package gosim

// The runner kernel is the model-independent half of every runner: the
// bit-accurate helpers, the decode table and the line codec of the
// runner protocol. The emitter splices this file, from its import
// declaration on, verbatim into each runner's source; in this package
// the IR interpreter computes with the same helpers and dispatches
// through the same table, and the host writes requests and reads replies
// with the same codec. So the file imports the standard library only and
// names nothing else of the package (TestKernelStandsAlone).
//
// Widths are bit counts, at most 64. Every value is a payload
// zero-extended into a uint64, as in bitvec.Value, and every helper
// returns one.

import (
	"strconv"
	"strings"
)

// mask is the payload mask of width w.
func mask(w int) uint64 { return 1<<uint(w) - 1 }

// sx sign-extends the low w bits of v to 64 bits.
func sx(v uint64, w int) uint64 {
	sh := uint(64 - w)
	return uint64(int64(v<<sh) >> sh)
}

// b2i is a condition's value.
func b2i(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// tern is c ? a : b, with both operands evaluated.
func tern(c bool, a, b uint64) uint64 {
	if c {
		return a
	}
	return b
}

// shl, shru and shrs shift the w-bit a by b&63, the count the behavior
// layer takes: a count of w or more clears a, or fills it with its sign.
func shl(a, b uint64, w int) uint64 {
	if n := b & 63; n < uint64(w) {
		return (a << n) & mask(w)
	}
	return 0
}

func shru(a, b uint64, w int) uint64 {
	if n := b & 63; n < uint64(w) {
		return a >> n
	}
	return 0
}

func shrs(a, b uint64, w int) uint64 {
	return uint64(int64(sx(a, w))>>min(b&63, uint64(w-1))) & mask(w)
}

// sdiv, udiv, smod and umod divide w-bit operands as bitvec.DivS and RemS
// do: a quotient by zero is all ones and a remainder by zero is zero. Go
// defines the most negative value divided by -1 as itself.
func sdiv(a, b uint64, w int) uint64 {
	if d := int64(sx(b, w)); d != 0 {
		return uint64(int64(sx(a, w))/d) & mask(w)
	}
	return mask(w)
}

func udiv(a, b uint64, w int) uint64 {
	if b != 0 {
		return (a / b) & mask(w)
	}
	return mask(w)
}

func smod(a, b uint64, w int) uint64 {
	if d := int64(sx(b, w)); d != 0 {
		return uint64(int64(sx(a, w))%d) & mask(w)
	}
	return 0
}

func umod(a, b uint64, w int) uint64 {
	if b != 0 {
		return (a % b) & mask(w)
	}
	return 0
}

// absv is the magnitude of the w-bit v; the most negative value wraps
// onto itself, as in bitvec.Abs.
func absv(v uint64, w int) uint64 {
	if int64(sx(v, w)) < 0 {
		return -v & mask(w)
	}
	return v
}

// smin and smax order w-bit operands as two's complement.
func smin(a, b uint64, w int) uint64 {
	if int64(sx(a, w)) <= int64(sx(b, w)) {
		return a
	}
	return b
}

func smax(a, b uint64, w int) uint64 {
	if int64(sx(a, w)) <= int64(sx(b, w)) {
		return b
	}
	return a
}

// ssat saturates the w-bit v to the signed range of to bits and returns
// it at width w, as bitvec.SatS.
func ssat(v uint64, w, to int) uint64 {
	hi := int64(mask(to - 1))
	return uint64(min(max(int64(sx(v, w)), -hi-1), hi)) & mask(w)
}

// sadds is addsat(a, b), or subsat(a, b) when sub is set, of an aw-bit a
// and a bw-bit b: saturated to the wider width, as bitvec.AddSat and
// SubSat.
func sadds(a uint64, aw int, b uint64, bw int, sub bool) uint64 {
	w, d := max(aw, bw), int64(sx(b, bw))
	if sub {
		d = -d
	}
	return ssat(uint64(int64(sx(a, aw))+d), 64, w) & mask(w)
}

// fmtS and fmtU render a print() argument: signed from width w, or
// unsigned.
func fmtS(v uint64, w int) string { return strconv.FormatInt(int64(sx(v, w)), 10) }

func fmtU(v uint64) string { return strconv.FormatUint(v, 10) }

// atCycle and unknownWord render a run error raised at a cycle and the
// dispatch of a word the decode table lacks, byte for byte as fmt's
// "cycle %d: %s" and "dispatch of unknown word %#x" do, so that a runner
// need not link fmt.
func atCycle(cycle uint64, msg string) string {
	return "cycle " + strconv.FormatUint(cycle, 10) + ": " + msg
}

func unknownWord(k uint64) string { return "dispatch of unknown word 0x" + strconv.FormatUint(k, 16) }

// table maps a program's dispatch keys to the indices of their decoded
// words by open addressing. It is at most half full, so a lookup costs a
// multiply and about one probe.
type table struct {
	keys  []uint64
	idx   []int // index+1; 0 marks a free slot
	shift uint
}

// newTable makes an empty table for up to n keys.
func newTable(n int) table {
	size, shift := 2, uint(63)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	return table{make([]uint64, size), make([]int, size), shift}
}

// put maps k to i.
func (t *table) put(k uint64, i int) {
	j := k * 0x9e3779b97f4a7c15 >> t.shift
	for t.idx[j] != 0 && t.keys[j] != k {
		j = (j + 1) & uint64(len(t.idx)-1)
	}
	t.keys[j], t.idx[j] = k, i+1
}

// get returns k's index, or -1.
func (t *table) get(k uint64) int {
	for j := k * 0x9e3779b97f4a7c15 >> t.shift; ; j = (j + 1) & uint64(len(t.idx)-1) {
		if t.idx[j] == 0 || t.keys[j] == k {
			return t.idx[j] - 1
		}
	}
}

// The line codec. A line is a one-byte tag and then items, each after one
// space: decimal numbers, strings Go-quoted so that every byte survives,
// and lists, a count and then that many entries.

func appendNum(b []byte, v uint64) []byte { return strconv.AppendUint(append(b, ' '), v, 10) }

func appendStr(b []byte, s string) []byte { return strconv.AppendQuote(append(b, ' '), s) }

// appendList appends a list of numbers.
func appendList(b []byte, v []uint64) []byte {
	b = appendNum(b, uint64(len(v)))
	for _, x := range v {
		b = appendNum(b, x)
	}
	return b
}

// appendState appends a machine state: the list of scalars, then a list
// of memories, each a list of (index, value) pairs.
func appendState(b []byte, sc []uint64, mem [][]uint64) []byte {
	b = appendNum(appendList(b, sc), uint64(len(mem)))
	for _, m := range mem {
		b = appendList(b, m)
	}
	return b
}

// lineReader reads a line's items in order. A malformed item marks the
// line bad, and every later read returns a zero value.
type lineReader struct {
	s   string
	bad bool
}

// readLine returns a line's tag and a reader of its items.
func readLine(line string) (byte, lineReader) {
	if line == "" {
		return 0, lineReader{bad: true}
	}
	return line[0], lineReader{s: line[1:]}
}

func (r *lineReader) num() uint64 {
	if r.bad || len(r.s) < 2 || r.s[0] != ' ' {
		r.bad = true
		return 0
	}
	n := strings.IndexByte(r.s[1:], ' ') + 1
	if n == 0 {
		n = len(r.s)
	}
	v, err := strconv.ParseUint(r.s[1:n], 10, 64)
	r.s, r.bad = r.s[n:], err != nil
	return v
}

// count reads a list's length. Each entry holds per items of two bytes or
// more, so a length the rest of the line cannot hold is malformed, and
// what a reader allocates for a list stays in proportion to the line.
func (r *lineReader) count(per int) int {
	n := r.num()
	if n > uint64(len(r.s)/(2*per)) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *lineReader) list() []uint64 {
	v := make([]uint64, r.count(1))
	for i := range v {
		v[i] = r.num()
	}
	return v
}

func (r *lineReader) str() string {
	if r.bad || !strings.HasPrefix(r.s, ` "`) {
		r.bad = true
		return ""
	}
	q, err := strconv.QuotedPrefix(r.s[1:])
	if err != nil {
		r.bad = true
		return ""
	}
	r.s = r.s[1+len(q):]
	s, _ := strconv.Unquote(q)
	return s
}

// state reads what appendState appends.
func (r *lineReader) state() ([]uint64, [][]uint64) {
	sc, mem := r.list(), make([][]uint64, r.count(1))
	for i := range mem {
		mem[i] = r.list()
	}
	return sc, mem
}

// done reports whether the whole line read well.
func (r *lineReader) done() bool { return !r.bad && r.s == "" }

// A request asks a runner for one run:
//
//	r max trace origin image words
//
// the step limit; 1 to stream the state after every step, else 0; the
// address of the program's first word and its image, a list; and the
// decode table, a list of the program's distinct dispatch keys, each
// followed by its leaf id, its nField LABEL field values and the error
// that dispatching it raises, empty for a word that decodes.
type request struct {
	max, trace, origin uint64
	image              []uint64
	leaves, fields     []uint64 // by word; nField fields each
	errs               []string // by word
	tab                table    // the words' dispatch keys
}

// readRequest parses a request line whose words carry nField fields, for
// a program memory of size words from address base. ok is false for a
// malformed line, and for an image that runs past program memory, which
// is refused before its decode table is read.
func readRequest(line string, nField int, base, size uint64) (q request, ok bool) {
	tag, r := readLine(strings.TrimSuffix(line, "\n"))
	q.max, q.trace, q.origin, q.image = r.num(), r.num(), r.num(), r.list()
	if n := uint64(len(q.image)); n > 0 && (q.origin < base || n > size || q.origin-base > size-n) {
		return q, false
	}
	n := r.count(3 + nField)
	q.leaves, q.fields, q.errs, q.tab = make([]uint64, n), make([]uint64, n*nField), make([]string, n), newTable(n)
	for i := range n {
		q.tab.put(r.num(), i)
		q.leaves[i] = r.num()
		for j := range nField {
			q.fields[i*nField+j] = r.num()
		}
		q.errs[i] = r.str()
	}
	return q, tag == 'r' && r.done()
}

// nonzero lists m's nonzero elements as (index, value) pairs.
func nonzero(m []uint64) []uint64 {
	var out []uint64
	for i, v := range m {
		if v != 0 {
			out = append(out, uint64(i), v)
		}
	}
	return out
}

// changed lists m's elements that differ from its shadow sh as (index,
// value) pairs, and brings sh up to date.
func changed(m, sh []uint64) []uint64 {
	var out []uint64
	for i, v := range m {
		if v != sh[i] {
			out = append(out, uint64(i), v)
			sh[i] = v
		}
	}
	return out
}
