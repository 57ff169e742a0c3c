package gosim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The runner protocol. A runner process first writes a handshake line,
// then serves runs: the host writes one request line to its stdin — the
// step limit, the trace switch, the program image and its decode table
// as decimal numbers separated by spaces,
//
//	max trace origin n word*n  m (key leaf field*nField)*m  k (key "err")*k
//
// with each undecodable word's error message Go-quoted — and reads the
// reply from the runner's stdout, NDJSON discriminated by t:
//
//	{"t":"h","model":H,"key":K}                     handshake, once per process
//	{"t":"c","n":N,"sc":[..],"mem":[[i,v,..],..]}   trace: state after step N (traced runs)
//	{"t":"p","s":"line"}                            one print() line
//	{"t":"r","steps":N,"wall_ns":N,"sc":[..],"mem":[[i,v,..],..],"err":".."}
//
// The result line ("r") ends the reply; err is set when the run stopped on
// a simulation error. sc holds every scalar slot. mem holds one list per
// memory slot of (index, value) pairs: in a trace line the elements that
// changed since the previous line, in the result the nonzero elements. Program memory is never
// reported: no behavior writes it (checkDispatchSafety), so the host
// fills it from its own image. Both state forms grow with the words
// written, not with memory size. The request is plain numbers because
// decoding a JSON program image and table cost more than a short run.

// request renders one run's request line. The program part is encoded
// once per Program.
func (p *Program) request(max uint64, trace bool) []byte {
	p.reqOnce.Do(func() {
		keys := make([]uint64, 0, len(p.decoded))
		for k := range p.decoded {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var ok, bad []byte
		nOK, nBad := 0, 0
		for _, k := range keys {
			d := p.decoded[k]
			if d.leaf == nil {
				bad = strconv.AppendQuote(append(appendNums(bad, k), ' '), d.errMsg)
				nBad++
				continue
			}
			ok = appendNums(appendNums(ok, k, uint64(d.leaf.id)), d.fields...)
			nOK++
		}
		b := appendNums(nil, p.Origin, uint64(len(p.Words)))
		b = appendNums(b, p.Words...)
		b = append(appendNums(b, uint64(nOK)), ok...)
		b = append(appendNums(b, uint64(nBad)), bad...)
		p.req = append(b, '\n')
	})
	tr := uint64(0)
	if trace {
		tr = 1
	}
	return append(appendNums(nil, max, tr), p.req...)
}

// appendNums appends each number after a space.
func appendNums(b []byte, v ...uint64) []byte {
	for _, x := range v {
		b = strconv.AppendUint(append(b, ' '), x, 10)
	}
	return b
}

// errNoResult marks a runner whose output ended before the result line.
var errNoResult = errors.New("gosim: runner exited without a result")

// replyReader reads a runner's output. Every state it returns has passed
// the layout checks of applyState, and no line may exceed lineCap.
type replyReader struct {
	sc *bufio.Scanner
}

// newReplyReader reads runner output for p's model from r.
func (p *Program) newReplyReader(r io.Reader) *replyReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), p.lineCap())
	return &replyReader{sc: sc}
}

// lineCap bounds one output line: room for a result line that carries
// every scalar and every element of every reported memory, plus slack for
// print lines.
func (p *Program) lineCap() int {
	n := len(p.scalars)
	for _, r := range p.arrays {
		if r != nil && r != p.progMem {
			n += int(r.Total())
		}
	}
	return 64<<10 + 48*n
}

type outLine struct {
	T      string     `json:"t"`
	Key    string     `json:"key"`
	N      uint64     `json:"n"`
	S      string     `json:"s"`
	Steps  uint64     `json:"steps"`
	WallNs int64      `json:"wall_ns"`
	Sc     []uint64   `json:"sc"`
	Mem    [][]uint64 `json:"mem"`
	Err    string     `json:"err"`
}

func (rr *replyReader) next() (*outLine, error) {
	for rr.sc.Scan() {
		if len(rr.sc.Bytes()) == 0 {
			continue
		}
		ln := &outLine{}
		if err := json.Unmarshal(rr.sc.Bytes(), ln); err != nil {
			return nil, fmt.Errorf("gosim: runner protocol: %w", err)
		}
		return ln, nil
	}
	if err := rr.sc.Err(); err != nil {
		return nil, fmt.Errorf("gosim: read runner output: %w", err)
	}
	return nil, errNoResult
}

// handshake reads the runner's identity line and returns its key.
func (rr *replyReader) handshake() (string, error) {
	ln, err := rr.next()
	if err != nil {
		return "", err
	}
	if ln.T != "h" {
		return "", fmt.Errorf("gosim: runner protocol: %q line before the handshake", ln.T)
	}
	return ln.Key, nil
}

// reply reads one run of p, up to and including its result line. A
// simulation error comes back with its partial result, like the IR
// path's; any other error means the runner is broken and comes back
// alone. onCycle, when non-nil, receives the full state after every
// step; the slices are valid only during the call.
func (rr *replyReader) reply(p *Program, onPrint func(string), onCycle func(uint64, []uint64, [][]uint64)) (*Result, error) {
	res := &Result{}
	var mirror [][]uint64 // the traced run's state, rebuilt from the write deltas
	var n uint64
	if onCycle != nil {
		mirror = p.newArrays()
	}
	for {
		ln, err := rr.next()
		if err != nil {
			return nil, err
		}
		switch ln.T {
		case "p":
			res.Prints = append(res.Prints, ln.S)
			if onPrint != nil {
				onPrint(ln.S)
			}
		case "c":
			if mirror == nil {
				return nil, fmt.Errorf("gosim: runner protocol: trace line in an untraced run")
			}
			if ln.N != n+1 {
				return nil, fmt.Errorf("gosim: runner protocol: trace of step %d after step %d", ln.N, n)
			}
			n = ln.N
			if err := p.applyState(ln.Sc, ln.Mem, mirror); err != nil {
				return nil, err
			}
			onCycle(n, ln.Sc, mirror)
		case "r":
			arr := p.newArrays()
			if err := p.applyState(ln.Sc, ln.Mem, arr); err != nil {
				return nil, err
			}
			res.Steps, res.RunNs = ln.Steps, ln.WallNs
			res.Scalars, res.Arrays = ln.Sc, arr
			res.Halted = p.halt != nil && ln.Sc[p.halt.Slot] != 0
			if ln.Err != "" {
				return res, fmt.Errorf("gosim: runner: %s", ln.Err)
			}
			return res, nil
		default:
			return nil, fmt.Errorf("gosim: runner protocol: unexpected %q line", ln.T)
		}
	}
}

// newArrays allocates p's memories, zeroed, with the program image in
// program memory: the state a reply's memory pairs apply to.
func (p *Program) newArrays() [][]uint64 {
	arr := make([][]uint64, len(p.arrays))
	for i, r := range p.arrays {
		if r != nil {
			arr[i] = make([]uint64, r.Total())
		}
	}
	p.loadImage(arr[p.progMem.Slot])
	return arr
}

// applyState checks a line's scalars and memory pairs against p's state
// layout — slot counts, element indices, value widths — and writes the
// pairs into arr.
func (p *Program) applyState(sc []uint64, mem [][]uint64, arr [][]uint64) error {
	if len(sc) != len(p.scalars) {
		return fmt.Errorf("gosim: runner protocol: %d scalars, the model has %d", len(sc), len(p.scalars))
	}
	for i, v := range sc {
		w := 0
		if r := p.scalars[i]; r != nil {
			w = r.Width
		}
		if v&^maskN(w) != 0 {
			return fmt.Errorf("gosim: runner protocol: scalar slot %d holds %#x, wider than %d bits", i, v, w)
		}
	}
	if len(mem) != len(p.arrays) {
		return fmt.Errorf("gosim: runner protocol: %d memories, the model has %d", len(mem), len(p.arrays))
	}
	for i, pairs := range mem {
		if len(pairs) == 0 {
			continue
		}
		r := p.arrays[i]
		if r == nil || r == p.progMem {
			return fmt.Errorf("gosim: runner protocol: memory slot %d carries no runner state", i)
		}
		if len(pairs)%2 != 0 {
			return fmt.Errorf("gosim: runner protocol: memory %s has an unpaired element", r.Name)
		}
		for j := 0; j < len(pairs); j += 2 {
			idx, v := pairs[j], pairs[j+1]
			if idx >= r.Total() {
				return fmt.Errorf("gosim: runner protocol: %s[%d] is past its %d elements", r.Name, idx, r.Total())
			}
			if v&^maskN(r.Width) != 0 {
				return fmt.Errorf("gosim: runner protocol: %s[%d] holds %#x, wider than %d bits", r.Name, idx, v, r.Width)
			}
			arr[i][idx] = v
		}
	}
	return nil
}
