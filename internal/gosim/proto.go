package gosim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
)

// The runner protocol, in the line codec of kernel.go. A runner process
// first writes a handshake line; then for each run the host writes one
// request line to its stdin (request, in kernel.go), and the runner
// replies on its stdout:
//
//	h "model" "key"               handshake, once per process
//	c n sc mem                    trace: the state after step n (traced runs)
//	p "line"                      one print() line, as it retires
//	r steps wall_ns sc mem "err"  result, ending the reply
//
// err is empty unless the run stopped on a simulation error. sc lists
// every scalar slot; mem lists one list per memory slot, of (index,
// value) pairs: in a trace line the elements that changed since the
// previous line, in the result the nonzero elements. Program memory is
// never reported: no behavior writes it (checkDispatchSafety), so the
// host fills it from its own image. Both state forms grow with the words
// written, not with memory size.

// request renders one run's request line. The program part is encoded
// once per Program.
func (p *Program) request(max uint64, trace bool) []byte {
	p.reqOnce.Do(func() {
		b := appendList(appendNum(nil, p.Origin), p.Words)
		b = appendNum(b, uint64(len(p.words)))
		for _, d := range p.words {
			b = appendNum(appendNum(b, d.key), uint64(d.leaf))
			for _, f := range d.fields {
				b = appendNum(b, f)
			}
			b = appendStr(b, d.errMsg)
		}
		p.req = append(b, '\n')
	})
	return append(appendNum(appendNum([]byte{'r'}, max), b2i(trace)), p.req...)
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

// next reads a line: its tag and a reader of its items.
func (rr *replyReader) next() (byte, lineReader, error) {
	if rr.sc.Scan() {
		tag, r := readLine(rr.sc.Text())
		return tag, r, nil
	}
	if err := rr.sc.Err(); err != nil {
		return 0, lineReader{}, fmt.Errorf("gosim: read runner output: %w", err)
	}
	return 0, lineReader{}, errNoResult
}

func errMalformed(tag byte) error {
	return fmt.Errorf("gosim: runner protocol: malformed %q line", tag)
}

// handshake reads the runner's identity line and returns its key.
func (rr *replyReader) handshake() (string, error) {
	tag, r, err := rr.next()
	if err != nil {
		return "", err
	}
	if tag != 'h' {
		return "", fmt.Errorf("gosim: runner protocol: %q line before the handshake", tag)
	}
	r.str() // the model hash, which the key covers
	key := r.str()
	if !r.done() {
		return "", errMalformed(tag)
	}
	return key, nil
}

// reply reads one run of p, up to and including its result line. A
// simulation error comes back with its partial result, like the IR
// path's; any other error means the runner is broken and comes back
// alone. onPrint and onCycle see the run's prints and states in the
// order the run made them; onCycle, when non-nil, receives the full
// state after every step, the slices valid only during the call.
func (rr *replyReader) reply(p *Program, onPrint func(string), onCycle func(uint64, []uint64, [][]uint64)) (*Result, error) {
	res := &Result{}
	var mirror [][]uint64 // the traced run's state, rebuilt from the write deltas
	var n uint64
	if onCycle != nil {
		mirror = p.newArrays()
	}
	for {
		tag, r, err := rr.next()
		if err != nil {
			return nil, err
		}
		switch tag {
		case 'p':
			s := r.str()
			if !r.done() {
				return nil, errMalformed(tag)
			}
			res.Prints = append(res.Prints, s)
			if onPrint != nil {
				onPrint(s)
			}
		case 'c':
			step := r.num()
			sc, mem := r.state()
			switch {
			case !r.done():
				return nil, errMalformed(tag)
			case mirror == nil:
				return nil, fmt.Errorf("gosim: runner protocol: trace line in an untraced run")
			case step != n+1:
				return nil, fmt.Errorf("gosim: runner protocol: trace of step %d after step %d", step, n)
			}
			n = step
			if err := p.applyState(sc, mem, mirror); err != nil {
				return nil, err
			}
			onCycle(n, sc, mirror)
		case 'r':
			steps, wall := r.num(), r.num()
			sc, mem := r.state()
			msg := r.str()
			if !r.done() || wall > math.MaxInt64 {
				return nil, errMalformed(tag)
			}
			arr := p.newArrays()
			if err := p.applyState(sc, mem, arr); err != nil {
				return nil, err
			}
			res.Steps, res.RunNs = steps, int64(wall)
			res.Scalars, res.Arrays = sc, arr
			res.Halted = p.halt != nil && sc[p.halt.Slot] != 0
			if msg != "" {
				return res, fmt.Errorf("gosim: runner: %s", msg)
			}
			return res, nil
		default:
			return nil, fmt.Errorf("gosim: runner protocol: unexpected %q line", tag)
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
		if v&^mask(w) != 0 {
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
			if v&^mask(r.Width) != 0 {
				return fmt.Errorf("gosim: runner protocol: %s[%d] holds %#x, wider than %d bits", r.Name, idx, v, r.Width)
			}
			arr[i][idx] = v
		}
	}
	return nil
}
