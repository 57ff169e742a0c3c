package gosim

import (
	"fmt"
	"go/format"
	"strconv"
	"strings"

	"golisa/internal/model"
	"golisa/internal/perf"
)

// EmitSource returns the model's runner: a self-contained single-file Go
// main package that serves any program of the model. Architectural state
// becomes package-level variables (s_<name> scalars, m_<name> memories),
// every coding leaf becomes one function per activation target over the
// leaf's LABEL fields, and the ACTIVATION schedule becomes a static
// step() function. The runner reads each run's program image and decode
// table from stdin, resets all of its state, self-times its step loop,
// and replies over the NDJSON protocol (proto.go).
//
// The source depends on the model alone: it is emitted once per model
// and shared by every Program of it.
func (p *Program) EmitSource() ([]byte, error) {
	src, _, err := p.source()
	return src, err
}

// source emits the runner once and names it: the key is the hash of
// everything above the final runnerKey line, which the runner reports in
// its handshake.
func (p *modelIR) source() ([]byte, string, error) {
	p.srcOnce.Do(func() {
		g := &gen{p: p}
		g.file()
		body, err := format.Source([]byte(g.b.String()))
		if err != nil {
			p.srcErr = fmt.Errorf("gosim: emitted source does not format (emitter bug): %w", err)
			return
		}
		p.key = perf.HashString(string(body))
		p.src = fmt.Appendf(body, "\n// runnerKey names this runner: the hash of the source above.\nconst runnerKey = %q\n", p.key)
	})
	return p.src, p.key, p.srcErr
}

type gen struct {
	p *modelIR
	b strings.Builder
}

func (g *gen) pf(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// raw writes a literal block (no format expansion).
func (g *gen) raw(s string) {
	g.b.WriteString(s)
	g.b.WriteByte('\n')
}

// hasRing reports whether any activation target is staged past 0 (the
// ring machinery is emitted only then).
func (g *gen) hasRing() bool {
	for _, l := range g.p.leaves {
		for _, t := range l.targets {
			if l.err == nil && t.stage > 0 {
				return true
			}
		}
	}
	return false
}

// traced reports whether the protocol reports a memory's state: every
// memory but program memory, which no behavior writes.
func (g *gen) traced(r *model.Resource) bool { return r != nil && r != g.p.progMem }

func (g *gen) file() {
	p := g.p
	g.pf("// Code generated by golisa's gosim compiler. DO NOT EDIT.")
	g.pf("//")
	g.pf("// runner for model hash %s: %d coding leaves, pipeline depth %d", p.hash, len(p.leaves), p.depth)
	g.pf("//")
	g.pf("// leaves (id: instruction, LABEL fields):")
	for _, l := range p.leaves {
		switch {
		case l.err != nil:
			g.pf("//   %d: unsupported: %v", l.id, l.err)
		default:
			g.pf("//   %d: %s, %d fields", l.id, l.name, l.nField)
		}
	}
	g.pf("package main")
	g.pf("")
	g.pf("import (")
	g.pf("\t\"bufio\"")
	g.pf("\t\"encoding/json\"")
	g.pf("\t\"fmt\"")
	g.pf("\t\"os\"")
	g.pf("\t\"strconv\"")
	g.pf("\t\"strings\"")
	g.pf("\t\"time\"")
	g.pf(")")
	g.pf("")
	g.pf("const (")
	g.pf("\tmodelHash = %q", p.hash)
	g.pf("\tnField    = %d", p.nField)
	if g.hasRing() {
		g.pf("\tdepth = %d", p.depth)
	}
	g.pf(")")
	g.state()
	g.runtimeHelpers()
	g.memHelpers()
	g.stateDump()
	g.resetFn()
	g.handlerFns()
	g.dispatchFn()
	g.stepFn()
	g.mainFn()
}

// state emits the flattened architectural state and the schedule queues.
func (g *gen) state() {
	p := g.p
	g.pf("")
	g.pf("// architectural state, slot-flattened")
	g.pf("var (")
	for _, r := range p.scalars {
		if r != nil {
			g.pf("\ts_%s uint64 // %d bits", r.Name, r.Width)
		}
	}
	for _, r := range p.arrays {
		if r != nil {
			g.pf("\tm_%s [%d]uint64 // %d bits each", r.Name, r.Total(), r.Width)
		}
		if g.traced(r) {
			g.pf("\tsh_%s [%d]uint64 // m_%s as the trace last reported it", r.Name, r.Total(), r.Name)
		}
	}
	for _, r := range p.latches {
		g.pf("\tpv_%s uint64", r.Name)
		g.pf("\tps_%s bool", r.Name)
	}
	if p.nLoc > 0 {
		g.pf("\tloc [%d]uint64", p.nLoc)
	}
	g.pf(")")
	g.pf("")
	g.raw(`// dw is one decoded program word: its LABEL fields and the scheduler of
// its leaf, or of the error dispatching it raises.
type dw struct {
	f     [nField]uint64
	sched func(*dw)
	err   string
}

func failWord(d *dw) { fail(d.err) }

// ent is one scheduled activation and the word that scheduled it.
type ent struct {
	st int
	fn func(*dw)
	d  *dw
}

var (
	now     []ent
	cycle   uint64
	runErr  string
	prints  []string
)

// The decode table: open addressing over the dispatch keys, at most half
// full, so a lookup costs a multiply and about one probe.
var (
	tabK     []uint64
	tabD     []*dw
	tabShift uint
)

func lookup(k uint64) *dw {
	mask := uint64(len(tabD) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> tabShift; ; i = (i + 1) & mask {
		if d := tabD[i]; d == nil || tabK[i] == k {
			return d
		}
	}
}

// newTable makes an empty decode table for n keys.
func newTable(n int) {
	size, shift := 2, uint(63)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	tabK, tabD, tabShift = make([]uint64, size), make([]*dw, size), shift
}

func insert(k uint64, d *dw) {
	mask := uint64(len(tabD) - 1)
	i := (k * 0x9e3779b97f4a7c15) >> tabShift
	for tabD[i] != nil && tabK[i] != k {
		i = (i + 1) & mask
	}
	tabK[i], tabD[i] = k, d
}`)
	if g.hasRing() {
		g.pf("")
		g.pf("var ring [depth][]ent")
		g.pf("")
		g.pf("func push(st int, fn func(*dw), d *dw) {")
		g.pf("\ts := (cycle + uint64(st)) %% depth")
		g.pf("\tring[s] = append(ring[s], ent{st, fn, d})")
		g.pf("}")
	}
}

// runtimeHelpers emits the fixed semantic kernel every runner shares; the
// bodies mirror interp.go's closures operation for operation.
func (g *gen) runtimeHelpers() {
	g.pf("")
	g.raw(`// semantic kernel: bit-accurate helpers mirroring internal/bitvec
func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

func sx(v uint64, w uint) uint64 {
	if w >= 64 {
		return v
	}
	sh := 64 - w
	return uint64(int64(v<<sh) >> sh)
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func shl(a, b uint64, w uint) uint64 {
	n := uint(b & 63)
	if n >= w {
		return 0
	}
	return (a << n) & mask(w)
}

func shru(a, b uint64, w uint) uint64 {
	n := uint(b & 63)
	if n >= w {
		return 0
	}
	return a >> n
}

func shrs(a, b uint64, w uint) uint64 {
	n := uint(b & 63)
	if n >= w {
		n = w - 1
	}
	return uint64(sx(a, w)>>n) & mask(w)
}

func sdiv(a, b uint64, w uint) uint64 {
	ai, bi := int64(sx(a, w)), int64(sx(b, w))
	switch {
	case bi == 0:
		return mask(w)
	case ai == -1<<63 && bi == -1:
		return uint64(ai) & mask(w)
	}
	return uint64(ai/bi) & mask(w)
}

func udiv(a, b uint64, w uint) uint64 {
	if b == 0 {
		return mask(w)
	}
	return (a / b) & mask(w)
}

func smod(a, b uint64, w uint) uint64 {
	ai, bi := int64(sx(a, w)), int64(sx(b, w))
	if bi == 0 || (ai == -1<<63 && bi == -1) {
		return 0
	}
	return uint64(ai%bi) & mask(w)
}

func umod(a, b uint64, w uint) uint64 {
	if b == 0 {
		return 0
	}
	return (a % b) & mask(w)
}

func tern(c bool, a, b uint64) uint64 {
	if c {
		return a
	}
	return b
}

func absv(v uint64, w uint) uint64 {
	if int64(sx(v, w)) < 0 {
		return (-v) & mask(w)
	}
	return v
}

func smin(a, b uint64, w uint) uint64 {
	if int64(sx(a, w)) <= int64(sx(b, w)) {
		return a
	}
	return b
}

func smax(a, b uint64, w uint) uint64 {
	if int64(sx(a, w)) <= int64(sx(b, w)) {
		return b
	}
	return a
}

func umin(a, b uint64) uint64 {
	if a <= b {
		return a
	}
	return b
}

func umax(a, b uint64) uint64 {
	if a <= b {
		return b
	}
	return a
}

func ssat(v uint64, w, to uint) uint64 {
	hi := int64(mask(to - 1))
	lo := -hi - 1
	i := int64(sx(v, w))
	if i > hi {
		i = hi
	} else if i < lo {
		i = lo
	}
	return uint64(i) & mask(w)
}

func sext(v uint64, n uint) uint64 { return sx(v&mask(n), n) }

func sadds(a uint64, aw uint, b uint64, bw uint, w uint, sub bool) uint64 {
	ai, bi := int64(sx(a, aw)), int64(sx(b, bw))
	s := ai + bi
	if sub {
		s = ai - bi
	}
	if w < 64 {
		hi := int64(mask(w - 1))
		lo := -hi - 1
		if s > hi {
			s = hi
		} else if s < lo {
			s = lo
		}
	}
	return uint64(s) & mask(w)
}

func fmtS(v uint64, w uint) string { return strconv.FormatInt(int64(sx(v, w)), 10) }

func fmtU(v uint64) string { return strconv.FormatUint(v, 10) }

func fail(msg string) {
	if runErr == "" {
		runErr = fmt.Sprintf("cycle %d: %s", cycle, msg)
	}
}

func emitP(s string) { prints = append(prints, s) }`)
}

// memHelpers emits the per-memory bounds-checked accessors (out-of-range
// reads yield 0, writes drop, like model.State).
func (g *gen) memHelpers() {
	for _, r := range g.p.arrays {
		if r == nil {
			continue
		}
		g.pf("")
		g.pf("func rd_%s(a uint64) uint64 {", r.Name)
		if r.Base != 0 {
			g.pf("\ta -= %#x", r.Base)
		}
		g.pf("\tif a < %d {", r.Size)
		g.pf("\t\treturn m_%s[a]", r.Name)
		g.pf("\t}")
		g.pf("\treturn 0")
		g.pf("}")
		g.pf("")
		g.pf("func wr_%s(a, v uint64) {", r.Name)
		if r.Base != 0 {
			g.pf("\ta -= %#x", r.Base)
		}
		g.pf("\tif a < %d {", r.Size)
		g.pf("\t\tm_%s[a] = v & %#x", r.Name, maskN(r.Width))
		g.pf("\t}")
		g.pf("}")
	}
}

// stateDump emits the slot-indexed state the protocol reports: every
// scalar, and per memory either its nonzero elements (the result) or
// the elements that changed since the last trace line, as (index,
// value) pairs. Program memory is the host's own image and is never
// reported. The trace compares against a shadow copy, so the memory
// writes on the step loop's path stay as small as an untraced run needs.
func (g *gen) stateDump() {
	p := g.p
	g.pf("")
	g.pf("func scalars() []uint64 {")
	parts := make([]string, len(p.scalars))
	for i, r := range p.scalars {
		if r == nil {
			parts[i] = "0"
		} else {
			parts[i] = "s_" + r.Name
		}
	}
	g.pf("\treturn []uint64{%s}", strings.Join(parts, ", "))
	g.pf("}")
	g.raw(`
func nonzero(m []uint64) []uint64 {
	var out []uint64
	for i, v := range m {
		if v != 0 {
			out = append(out, uint64(i), v)
		}
	}
	return out
}

// changed returns m's elements that differ from its shadow sh, and
// brings sh up to date.
func changed(m, sh []uint64) []uint64 {
	var out []uint64
	for i, v := range m {
		if v != sh[i] {
			out = append(out, uint64(i), v)
			sh[i] = v
		}
	}
	return out
}`)
	dump := make([]string, len(p.arrays))
	delta := make([]string, len(p.arrays))
	for i, r := range p.arrays {
		dump[i], delta[i] = "nil", "nil"
		if g.traced(r) {
			dump[i] = "nonzero(m_" + r.Name + "[:])"
			delta[i] = "changed(m_" + r.Name + "[:], sh_" + r.Name + "[:])"
		}
	}
	g.pf("")
	g.pf("func memDump() [][]uint64 {")
	g.pf("\treturn [][]uint64{%s}", strings.Join(dump, ", "))
	g.pf("}")
	g.pf("")
	g.pf("func memDelta() [][]uint64 {")
	g.pf("\treturn [][]uint64{%s}", strings.Join(delta, ", "))
	g.pf("}")
	if len(p.latches) > 0 {
		g.pf("")
		g.pf("func commit() {")
		for _, r := range p.latches {
			g.pf("\tif ps_%s {", r.Name)
			g.pf("\t\ts_%s = pv_%s", r.Name, r.Name)
			g.pf("\t\tps_%s = false", r.Name)
			g.pf("\t}")
		}
		g.pf("}")
	}
}

func (g *gen) commitCall() string {
	if len(g.p.latches) > 0 {
		return "commit()"
	}
	return ""
}

// resetFn emits the per-run reset: every variable back to zero, then
// the model's reset behavior (latch writes take effect immediately).
func (g *gen) resetFn() {
	p := g.p
	g.pf("")
	g.pf("func resetSim() {")
	for _, r := range p.scalars {
		if r != nil {
			g.pf("\ts_%s = 0", r.Name)
		}
	}
	for _, r := range p.arrays {
		if r != nil {
			g.pf("\tclear(m_%s[:])", r.Name)
		}
		if g.traced(r) {
			g.pf("\tclear(sh_%s[:])", r.Name)
		}
	}
	for _, r := range p.latches {
		g.pf("\tps_%s = false", r.Name)
	}
	g.pf("\tnow = now[:0]")
	if g.hasRing() {
		g.pf("\tfor i := range ring {")
		g.pf("\t\tring[i] = ring[i][:0]")
		g.pf("\t}")
	}
	g.pf("\tcycle, runErr, prints = 0, \"\", prints[:0]")
	g.stmts(p.resetB, 1)
	if c := g.commitCall(); c != "" {
		g.pf("\t%s", c)
	}
	g.pf("}")
}

// handlerFns emits one function per activation target (the main items
// and every leaf's behaviors) and one scheduler per leaf, indexed by
// leaf id in the leaves table.
func (g *gen) handlerFns() {
	for i, it := range g.p.items {
		if len(it.body) == 0 {
			continue
		}
		g.pf("")
		g.pf("func it_%d(*dw) { // main -> %s", i, it.opName)
		g.stmts(it.body, 1)
		g.pf("}")
	}
	for _, l := range g.p.leaves {
		if l.err != nil {
			continue
		}
		for i, t := range l.targets {
			if len(t.body) == 0 {
				continue
			}
			g.pf("")
			stage := "this cycle"
			if t.stage > 0 {
				stage = fmt.Sprintf("stage %d", t.stage)
			}
			g.pf("func l%d_%d(d *dw) { // %s, %s", l.id, i, t.opName, stage)
			g.stmts(t.body, 1)
			g.pf("}")
		}
		g.pf("")
		g.pf("func s%d(d *dw) {", l.id)
		for i, t := range l.targets {
			if len(t.body) == 0 {
				continue
			}
			if t.stage > 0 {
				g.pf("\tpush(%d, l%d_%d, d)", t.stage, l.id, i)
			} else {
				g.pf("\tnow = append(now, ent{0, l%d_%d, d})", l.id, i)
			}
		}
		g.pf("}")
	}
	g.pf("")
	g.pf("// leaves schedules each leaf's handlers, by leaf id; nil for leaves")
	g.pf("// the IR cannot compile, which no request names.")
	g.pf("var leaves = [...]func(*dw){")
	for _, l := range g.p.leaves {
		if l.err != nil {
			g.pf("\tnil,")
		} else {
			g.pf("\ts%d,", l.id)
		}
	}
	g.pf("}")
}

// dispatchFn emits the decode-table lookup of the dispatch register.
func (g *gen) dispatchFn() {
	p := g.p
	if p.root == nil {
		return
	}
	g.pf("")
	g.pf("func dispatch() {")
	g.pf("\tk := s_%s & %#x", p.rootRes.Name, maskN(p.dispW))
	g.raw(`	if d := lookup(k); d != nil {
		d.sched(d)
	} else {
		fail(fmt.Sprintf("dispatch of unknown word %#x", k))
	}
}`)
}

// stepFn emits one control step: main behavior, activation items, the
// this-cycle queue, the matured ring slot (stage-ascending, insertion
// order within a stage), and the latch commit.
func (g *gen) stepFn() {
	p := g.p
	g.pf("")
	g.pf("func step() {")
	g.stmts(p.mainB, 1)
	for i, it := range p.items {
		if len(it.body) == 0 {
			continue
		}
		if it.cond != nil {
			g.pf("\tif (%s) != 0 {", g.expr(it.cond))
			g.pf("\t\tnow = append(now, ent{0, it_%d, nil})", i)
			g.pf("\t}")
		} else {
			g.pf("\tnow = append(now, ent{0, it_%d, nil})", i)
		}
	}
	g.pf("\tfor i := 0; i < len(now); i++ {")
	g.pf("\t\tnow[i].fn(now[i].d)")
	g.pf("\t}")
	g.pf("\tnow = now[:0]")
	if g.hasRing() {
		g.pf("\tcur := cycle %% depth")
		g.pf("\tslot := ring[cur]")
		g.pf("\tfor st := 1; st < depth; st++ {")
		g.pf("\t\tfor _, en := range slot {")
		g.pf("\t\t\tif en.st == st {")
		g.pf("\t\t\t\ten.fn(en.d)")
		g.pf("\t\t\t}")
		g.pf("\t\t}")
		g.pf("\t}")
		g.pf("\tring[cur] = slot[:0]")
	}
	if c := g.commitCall(); c != "" {
		g.pf("\t%s", c)
	}
	g.pf("\tcycle++")
	g.pf("}")
}

// mainFn emits the protocol loop: the handshake, then one run per
// request line — load, self-timed step loop, reply — until stdin closes.
func (g *gen) mainFn() {
	p := g.p
	g.pf("")
	g.raw(`// req reads a request line: decimal numbers and Go-quoted strings,
// separated by spaces.
type req struct {
	s   string
	bad bool
}

func (r *req) skip() {
	for len(r.s) > 0 && r.s[0] == ' ' {
		r.s = r.s[1:]
	}
}

func (r *req) num() uint64 {
	r.skip()
	i := strings.IndexByte(r.s, ' ')
	if i < 0 {
		i = len(r.s)
	}
	v, err := strconv.ParseUint(r.s[:i], 10, 64)
	r.s = r.s[i:]
	r.bad = r.bad || err != nil
	return v
}

// count reads a list length, which cannot exceed the rest of the line.
func (r *req) count() int {
	n := r.num()
	if n > uint64(len(r.s)) {
		r.bad, n = true, 0
	}
	return int(n)
}

func (r *req) str() string {
	r.skip()
	q, err := strconv.QuotedPrefix(r.s)
	if err != nil {
		r.bad = true
		return ""
	}
	r.s = r.s[len(q):]
	s, _ := strconv.Unquote(q)
	return s
}

// load resets the machine and installs one request's program: the image
// in program memory and the decode table of its distinct words. It
// returns the step limit and the trace switch.
func load(line string) (uint64, bool, bool) {
	r := &req{s: strings.TrimSuffix(line, "\n")}
	max := r.num()
	trace := r.num() != 0
	origin := r.num()
	resetSim()
	n := r.count()
	for i := 0; i < n; i++ {`)
	g.pf("\t\twr_%s(origin+uint64(i), r.num())", p.progMem.Name)
	g.raw(`	}
	words := make([]dw, r.count())
	keys := make([]uint64, len(words))
	for i := range words {
		keys[i] = r.num()
		leaf := r.num()
		d := &words[i]
		for j := range d.f {
			d.f[j] = r.num()
		}
		d.sched = failWord
		if leaf < uint64(len(leaves)) && leaves[leaf] != nil {
			d.sched = leaves[leaf]
		} else {
			d.err = fmt.Sprintf("no handler for leaf %d", leaf)
		}
	}
	for n := r.count(); n > 0; n-- {
		keys = append(keys, r.num())
		words = append(words, dw{sched: failWord, err: r.str()})
	}
	newTable(len(words))
	for i := range words {
		insert(keys[i], &words[i])
	}
	return max, trace, !r.bad
}

func appendNums(b []byte, v []uint64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, x, 10)
	}
	return append(b, ']')
}

func appendState(b []byte, sc []uint64, mem [][]uint64) []byte {
	b = append(b, ` + "`" + `"sc":` + "`" + `...)
	b = appendNums(b, sc)
	b = append(b, ` + "`" + `,"mem":[` + "`" + `...)
	for i, m := range mem {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNums(b, m)
	}
	return append(b, ']')
}

var (
	out  *bufio.Writer
	line []byte
)

func run(max uint64, trace bool) {
	var steps uint64
	start := time.Now()
	for steps < max {`)
	if p.halt != nil {
		g.pf("\t\tif s_%s != 0 {", p.halt.Name)
		g.pf("\t\t\tbreak")
		g.pf("\t\t}")
	}
	g.raw(`		step()
		if trace {
			line = strconv.AppendUint(append(line[:0], ` + "`" + `{"t":"c","n":` + "`" + `...), cycle, 10)
			line = append(appendState(append(line, ','), scalars(), memDelta()), "}\n"...)
			out.Write(line)
		}
		if runErr != "" {
			break
		}
		steps++
	}
	wall := time.Since(start).Nanoseconds()
	for _, s := range prints {
		q, _ := json.Marshal(s)
		line = append(append(append(line[:0], ` + "`" + `{"t":"p","s":` + "`" + `...), q...), "}\n"...)
		out.Write(line)
	}
	line = strconv.AppendUint(append(line[:0], ` + "`" + `{"t":"r","steps":` + "`" + `...), steps, 10)
	line = strconv.AppendInt(append(line, ` + "`" + `,"wall_ns":` + "`" + `...), wall, 10)
	line = appendState(append(line, ','), scalars(), memDump())
	if runErr != "" {
		q, _ := json.Marshal(runErr)
		line = append(append(line, ` + "`" + `,"err":` + "`" + `...), q...)
	}
	out.Write(append(line, "}\n"...))
}

func main() {
	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	out = bufio.NewWriterSize(os.Stdout, 1<<16)
	fmt.Fprintf(out, "{\"t\":\"h\",\"model\":%q,\"key\":%q}\n", modelHash, runnerKey)
	out.Flush()
	for {
		l, err := in.ReadString('\n')
		if err != nil {
			return // stdin closed: the host is done with this runner
		}
		max, trace, ok := load(l)
		if !ok {
			os.Exit(2) // a malformed request: no reply, so the host drops this runner
		}
		run(max, trace)
		out.Flush()
	}
}`)
}

// ---- statement emission --------------------------------------------------

func (g *gen) stmts(list []*stmt, depth int) {
	ind := strings.Repeat("\t", depth)
	for _, s := range list {
		switch s.kind {
		case sAssign:
			g.pf("%s%s", ind, g.assign(s.lhs, s.rhs))
		case sIf:
			g.pf("%sif (%s) != 0 {", ind, g.expr(s.cond))
			g.stmts(s.then, depth+1)
			if len(s.els) > 0 {
				g.pf("%s} else {", ind)
				g.stmts(s.els, depth+1)
			}
			g.pf("%s}", ind)
		case sPrint:
			g.pf("%semitP(%s)", ind, g.printArg(s.parts))
		case sDispatch:
			g.pf("%sdispatch()", ind)
		}
	}
}

func (g *gen) printArg(parts []printPart) string {
	if len(parts) == 0 {
		return `""`
	}
	segs := make([]string, len(parts))
	for i, pp := range parts {
		if pp.isStr {
			segs[i] = strconv.Quote(pp.str)
		} else if pp.signed {
			segs[i] = fmt.Sprintf("fmtS(%s, %d)", g.expr(pp.x), pp.x.w)
		} else {
			segs[i] = fmt.Sprintf("fmtU(%s)", g.expr(pp.x))
		}
	}
	return strings.Join(segs, ` + " " + `)
}

func (g *gen) assign(lhs *lval, rhs *expr) string {
	rs := g.expr(rhs)
	switch lhs.kind {
	case lLocal:
		lw := lhs.local.w
		if lhs.local.signed {
			return fmt.Sprintf("loc[%d] = sx(%s, %d) & %#x", lhs.local.idx, rs, lhs.rhsW, maskN(lw))
		}
		return fmt.Sprintf("loc[%d] = (%s) & %#x", lhs.local.idx, rs, maskN(lw))
	case lScalar:
		r := lhs.res
		if r.Latch {
			return fmt.Sprintf("pv_%s, ps_%s = (%s)&%#x, true", r.Name, r.Name, rs, maskN(r.Width))
		}
		return fmt.Sprintf("s_%s = (%s) & %#x", r.Name, rs, maskN(r.Width))
	case lSlice:
		r := lhs.res
		mm := maskN(lhs.hi-lhs.lo+1) << uint(lhs.lo)
		merged := fmt.Sprintf("((s_%s &^ %#x) | (((%s) << %d) & %#x)) & %#x",
			r.Name, mm, rs, lhs.lo, mm, maskN(r.Width))
		if r.Latch {
			return fmt.Sprintf("pv_%s, ps_%s = %s, true", r.Name, r.Name, merged)
		}
		return fmt.Sprintf("s_%s = %s", r.Name, merged)
	case lElem:
		if inRange(lhs.res, lhs.idx) {
			return fmt.Sprintf("m_%s[%s&%#x] = (%s) & %#x", lhs.res.Name, g.expr(lhs.idx), maskN(lhs.idx.w), rs, maskN(lhs.res.Width))
		}
		return fmt.Sprintf("wr_%s(%s, %s)", lhs.res.Name, g.expr(lhs.idx), rs)
	}
	panic("gosim: unknown lvalue kind")
}

// inRange reports whether every value of idx's static width addresses an
// element of r, as a register index field does its register file. The
// access then needs no bounds check: the mask lets the Go compiler see
// it, and changes no value, since the IR keeps every payload within its
// width.
func inRange(r *model.Resource, idx *expr) bool {
	return r.Base == 0 && idx.w < 64 && uint64(1)<<uint(idx.w) <= r.Size
}

// ---- expression emission -------------------------------------------------

// widen emits the arithmetic-widening conversion to the common width
// (sign-extension for narrower signed operands, identity otherwise).
func (g *gen) widen(c *expr, s string, to int) string {
	if c.signed && c.w < to {
		return fmt.Sprintf("(sx(%s, %d) & %#x)", s, c.w, maskN(to))
	}
	return s
}

// cmpInt emits the operand as the int64 the signed compare sees: signed
// operands sign-extend from their own width, unsigned ones from the
// common width.
func (g *gen) cmpInt(c *expr, s string, w int) string {
	if c.signed {
		return fmt.Sprintf("int64(sx(%s, %d))", s, c.w)
	}
	return fmt.Sprintf("int64(sx(%s, %d))", s, w)
}

func (g *gen) expr(e *expr) string {
	switch e.kind {
	case eConst:
		return fmt.Sprintf("%#x", e.k)
	case eLocal:
		return fmt.Sprintf("loc[%d]", e.local.idx)
	case eField:
		return fmt.Sprintf("d.f[%d]", e.n)
	case eScalar:
		return "s_" + e.res.Name
	case eElem:
		if inRange(e.res, e.idx) {
			return fmt.Sprintf("m_%s[%s&%#x]", e.res.Name, g.expr(e.idx), maskN(e.idx.w))
		}
		return fmt.Sprintf("rd_%s(%s)", e.res.Name, g.expr(e.idx))
	case eSlice:
		return fmt.Sprintf("((%s >> %d) & %#x)", g.expr(e.a), e.n, maskN(e.w))
	case eUn:
		a := g.expr(e.a)
		switch e.op {
		case "-":
			return fmt.Sprintf("((-(%s)) & %#x)", a, maskN(e.w))
		case "!":
			return fmt.Sprintf("b2i((%s) == 0)", a)
		case "~":
			return fmt.Sprintf("((^(%s)) & %#x)", a, maskN(e.w))
		}
	case eBin:
		return g.bin(e)
	case eCond:
		return fmt.Sprintf("tern((%s) != 0, %s, %s)", g.expr(e.a), g.expr(e.b), g.expr(e.c))
	case eAbs:
		return fmt.Sprintf("absv(%s, %d)", g.expr(e.a), e.a.w)
	case eMinMax:
		fn := map[string]string{"min": "umin", "max": "umax"}[e.op]
		if e.a.signed {
			return fmt.Sprintf("s%s(%s, %s, %d)", e.op, g.expr(e.a), g.expr(e.b), e.a.w)
		}
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(e.a), g.expr(e.b))
	case eSat:
		if e.n >= 64 {
			return g.expr(e.a)
		}
		return fmt.Sprintf("ssat(%s, %d, %d)", g.expr(e.a), e.a.w, e.n)
	case eSext:
		return fmt.Sprintf("sext(%s, %d)", g.expr(e.a), e.n)
	case eZext:
		return fmt.Sprintf("((%s) & %#x)", g.expr(e.a), maskN(e.n))
	case eAddSat:
		return fmt.Sprintf("sadds(%s, %d, %s, %d, %d, %v)",
			g.expr(e.a), e.a.w, g.expr(e.b), e.b.w, e.w, e.op == "-")
	}
	panic("gosim: unknown expression kind")
}

func (g *gen) bin(e *expr) string {
	l, r := e.a, e.b
	w := l.w
	if r.w > w {
		w = r.w
	}
	ls, rs := g.expr(l), g.expr(r)
	signed := l.signed || r.signed
	switch e.op {
	case "+", "-", "*":
		return fmt.Sprintf("((%s %s %s) & %#x)", g.widen(l, ls, w), e.op, g.widen(r, rs, w), maskN(w))
	case "&", "|", "^":
		return fmt.Sprintf("(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
	case "==", "!=":
		return fmt.Sprintf("b2i(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
	case "/":
		if signed {
			return fmt.Sprintf("sdiv(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
		}
		return fmt.Sprintf("udiv(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
	case "%":
		if signed {
			return fmt.Sprintf("smod(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
		}
		return fmt.Sprintf("umod(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
	case "<", "<=", ">", ">=":
		if signed {
			return fmt.Sprintf("b2i(%s %s %s)", g.cmpInt(l, ls, w), e.op, g.cmpInt(r, rs, w))
		}
		// Unsigned compares are payload compares at the operands' own
		// widths (no widening).
		return fmt.Sprintf("b2i((%s) %s (%s))", ls, e.op, rs)
	case "<<":
		return fmt.Sprintf("shl(%s, %s, %d)", ls, rs, l.w)
	case ">>":
		if l.signed {
			return fmt.Sprintf("shrs(%s, %s, %d)", ls, rs, l.w)
		}
		return fmt.Sprintf("shru(%s, %s, %d)", ls, rs, l.w)
	case "&&":
		return fmt.Sprintf("b2i((%s) != 0 && (%s) != 0)", ls, rs)
	case "||":
		return fmt.Sprintf("b2i((%s) != 0 || (%s) != 0)", ls, rs)
	}
	panic("gosim: unknown binary operator " + e.op)
}
