package gosim

import (
	"errors"
	"strings"

	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// The in-process backend compiles the IR into threaded code: one Go
// closure per expression node and statement, specialized at compile time
// on operator, width and signedness, so the per-cycle loop runs with no
// AST walking, no map lookups and no bitvec boxing. It is the fallback
// engine when the Go toolchain is unavailable (or the program too short
// to be worth a runner), and the reference the emitted runner is
// cross-checked against in tests. It runs the same leaf handlers the
// runner carries, over the same per-program decode table, and computes
// with the runner's own helpers (kernel.go).

type efn func(*Machine) uint64
type sfn func(*Machine)

// runtimeProg is a model's compiled closure backend, built once and
// shared by every Machine of every Program of the model (closures only
// touch state through the *Machine argument).
type runtimeProg struct {
	resetFn sfn
	mainFn  sfn
	items   []rtItem
	stages  [][]sfn // by stage, then leaf id: the leaf's work there, or nil
}

type rtItem struct {
	cond efn // nil: unconditional
	fn   sfn
}

func (p *modelIR) runtime() *runtimeProg {
	p.rtOnce.Do(func() {
		rt := &runtimeProg{stages: make([][]sfn, p.depth)}
		rt.resetFn = compileStmtsFn(p, p.resetB)
		rt.mainFn = compileStmtsFn(p, p.mainB)
		for _, it := range p.items {
			var cf efn
			if it.cond != nil {
				cf = compileExprFn(it.cond)
			}
			rt.items = append(rt.items, rtItem{cond: cf, fn: compileStmtsFn(p, it.body)})
		}
		for s := range rt.stages {
			rt.stages[s] = make([]sfn, len(p.leaves))
			for _, l := range p.leaves {
				if l.err == nil {
					rt.stages[s][l.id] = compileStmtsFn(p, l.work[s])
				}
			}
		}
		p.rt = rt
	})
	return p.rt
}

// Machine is one in-process execution of a Program: flat uint64 state
// indexed by the model's resource slots, a latch pending set, the shared
// local pool, and the words in the pipeline's stages. Machines are
// single-goroutine; any number may run concurrently over one shared
// Program.
type Machine struct {
	p     *Program
	sc    []uint64
	arr   [][]uint64
	pendV []uint64
	pendS []bool
	loc   []uint64
	fld   []uint64   // LABEL fields of the handler running now
	fire  []bool     // by main item: whether its condition held this cycle
	pipe  []*decWord // by stage: the word whose work there runs this cycle
	cycle uint64
	err   error

	// OnPrint receives each print() line; nil discards.
	OnPrint func(string)
	// OnCycle runs after every completed cycle (lockstep hook).
	OnCycle func(*Machine)
}

// NewMachine allocates a reset Machine with the program image loaded.
func (p *Program) NewMachine() *Machine {
	p.runtime()
	m := &Machine{p: p}
	m.sc = make([]uint64, len(p.scalars))
	m.arr = make([][]uint64, len(p.arrays))
	for i, r := range p.arrays {
		if r != nil {
			m.arr[i] = make([]uint64, r.Total())
		}
	}
	m.pendV = make([]uint64, len(p.latches))
	m.pendS = make([]bool, len(p.latches))
	m.loc = make([]uint64, p.nLoc)
	m.fire = make([]bool, len(p.rt.items))
	m.pipe = make([]*decWord, p.depth)
	m.Reset()
	return m
}

// Reset zeroes all state, runs the model's reset behavior (latch writes
// take effect immediately, as in the simulator), and loads the program
// image into program memory.
func (m *Machine) Reset() {
	p := m.p
	clear(m.sc)
	for _, a := range m.arr {
		clear(a)
	}
	clear(m.pendS)
	clear(m.pipe)
	m.cycle = 0
	m.err = nil
	if p.rt.resetFn != nil {
		p.rt.resetFn(m)
	}
	m.commit()
	p.loadImage(m.arr[p.progMem.Slot])
}

// loadImage writes the program image into program memory's elements, as
// the simulator's LoadProgram does: masked to the memory's width, words
// outside the memory dropped.
func (p *Program) loadImage(mem []uint64) {
	base, size := p.progMem.Base, p.progMem.Size
	mk := mask(p.progMem.Width)
	for i, w := range p.Words {
		a := p.Origin + uint64(i)
		if a >= base && a-base < size {
			mem[a-base] = w & mk
		}
	}
}

// Halted reports whether the model's halt resource is nonzero.
func (m *Machine) Halted() bool {
	return m.p.halt != nil && m.sc[m.p.halt.Slot] != 0
}

// Cycles returns the number of completed control steps.
func (m *Machine) Cycles() uint64 { return m.cycle }

// Err returns the sticky runtime error, if any.
func (m *Machine) Err() error { return m.err }

// Run executes control steps until halt, an error, or max steps.
func (m *Machine) Run(max uint64) (uint64, error) {
	var n uint64
	for n < max {
		if m.Halted() {
			return n, nil
		}
		m.Step()
		if m.err != nil {
			return n, m.err
		}
		n++
	}
	return n, nil
}

// Step runs one control step: the main behavior, main's activation items
// (every condition first, then the items that hold, in activation order),
// the work of the word in each stage (stage-ascending, stage 0 being the
// word the items dispatched this cycle), the latch commit, and the
// pipeline shift.
func (m *Machine) Step() {
	rt := m.p.rt
	if rt.mainFn != nil {
		rt.mainFn(m)
	}
	for i, it := range rt.items {
		m.fire[i] = it.cond == nil || it.cond(m) != 0
	}
	for i, it := range rt.items {
		if m.fire[i] {
			it.fn(m)
		}
	}
	for s, d := range m.pipe {
		if d == nil {
			continue
		}
		if fn := rt.stages[s][d.leaf]; fn != nil {
			m.fld = d.fields
			fn(m)
		}
	}
	m.commit()
	copy(m.pipe[1:], m.pipe)
	m.pipe[0] = nil
	m.cycle++
	if m.OnCycle != nil {
		m.OnCycle(m)
	}
}

func (m *Machine) commit() {
	for i, set := range m.pendS {
		if set {
			m.sc[m.p.latches[i].Slot] = m.pendV[i]
			m.pendS[i] = false
		}
	}
}

// StateFrom renders a protocol state snapshot (slot-indexed scalars and
// memories, as Result and OnCycleState carry them) into a fresh
// model.State — the bridge between a generated run and cosim.Lockstep.
func (p *Program) StateFrom(sc []uint64, arr [][]uint64) *model.State {
	st := model.NewState(p.Model)
	for _, r := range p.scalars {
		if r != nil && r.Slot < len(sc) {
			st.Scalars[r.Slot] = bitvec.New(sc[r.Slot], r.Width)
		}
	}
	for _, r := range p.arrays {
		if r != nil && r.Slot < len(arr) {
			st.SetMemory(r, arr[r.Slot])
		}
	}
	return st
}

// Scalars returns a copy of the scalar file (slot-indexed).
func (m *Machine) Scalars() []uint64 { return append([]uint64(nil), m.sc...) }

// Arrays returns a copy of the memories (slot-indexed).
func (m *Machine) Arrays() [][]uint64 {
	out := make([][]uint64, len(m.arr))
	for i, a := range m.arr {
		if a != nil {
			out[i] = append([]uint64(nil), a...)
		}
	}
	return out
}

// ---- statement compilation ----------------------------------------------

func compileStmtsFn(p *modelIR, list []*stmt) sfn {
	if len(list) == 0 {
		return nil
	}
	fns := make([]sfn, len(list))
	for i, s := range list {
		fns[i] = compileStmtFn(p, s)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(m *Machine) {
		for _, f := range fns {
			f(m)
		}
	}
}

func compileStmtFn(p *modelIR, s *stmt) sfn {
	switch s.kind {
	case sAssign:
		return compileAssignFn(p, s.lhs, s.rhs)
	case sIf:
		cf := compileExprFn(s.cond)
		tf := compileStmtsFn(p, s.then)
		ef := compileStmtsFn(p, s.els)
		return func(m *Machine) {
			if cf(m) != 0 {
				if tf != nil {
					tf(m)
				}
			} else if ef != nil {
				ef(m)
			}
		}
	case sPrint:
		type part struct {
			str    string
			fn     efn
			w      int
			signed bool
		}
		parts := make([]part, len(s.parts))
		for i, pp := range s.parts {
			if pp.isStr {
				parts[i] = part{str: pp.str}
			} else {
				parts[i] = part{fn: compileExprFn(pp.x), w: pp.x.w, signed: pp.signed}
			}
		}
		return func(m *Machine) {
			segs := make([]string, len(parts))
			for i, pp := range parts {
				switch {
				case pp.fn == nil:
					segs[i] = pp.str
				case pp.signed:
					segs[i] = fmtS(pp.fn(m), pp.w)
				default:
					segs[i] = fmtU(pp.fn(m))
				}
			}
			if m.OnPrint != nil {
				m.OnPrint(strings.Join(segs, " "))
			}
		}
	case sDispatch:
		rrSlot := p.rootRes.Slot
		dmask := mask(p.dispW)
		return func(m *Machine) {
			key := m.sc[rrSlot] & dmask
			i := m.p.tab.get(key)
			if i < 0 {
				m.err = errors.New(atCycle(m.cycle, unknownWord(key)))
				return
			}
			d := &m.p.words[i]
			if d.errMsg != "" {
				m.err = errors.New(atCycle(m.cycle, d.errMsg))
				return
			}
			m.pipe[0] = d
		}
	}
	panic("gosim: unknown statement kind")
}

func compileAssignFn(p *modelIR, lhs *lval, rhs *expr) sfn {
	rf := compileExprFn(rhs)
	switch lhs.kind {
	case lLocal:
		idx, lw := lhs.local.idx, lhs.local.w
		mk := mask(lw)
		if lhs.local.signed {
			rw := lhs.rhsW
			return func(m *Machine) { m.loc[idx] = sx(rf(m), rw) & mk }
		}
		return func(m *Machine) { m.loc[idx] = rf(m) & mk }
	case lScalar:
		r := lhs.res
		mk := mask(r.Width)
		if r.Latch {
			pi := p.latchIdx[r]
			return func(m *Machine) {
				m.pendV[pi] = rf(m) & mk
				m.pendS[pi] = true
			}
		}
		slot := r.Slot
		return func(m *Machine) { m.sc[slot] = rf(m) & mk }
	case lSlice:
		r := lhs.res
		slot := r.Slot
		bmk := mask(r.Width)
		lo := uint(lhs.lo)
		mm := mask(lhs.hi-lhs.lo+1) << lo
		if r.Latch {
			pi := p.latchIdx[r]
			return func(m *Machine) {
				cur := m.sc[slot] // committed base, as model.State.Write does
				m.pendV[pi] = ((cur &^ mm) | ((rf(m) << lo) & mm)) & bmk
				m.pendS[pi] = true
			}
		}
		return func(m *Machine) {
			cur := m.sc[slot]
			m.sc[slot] = ((cur &^ mm) | ((rf(m) << lo) & mm)) & bmk
		}
	case lElem:
		r := lhs.res
		slot := r.Slot
		base, size := r.Base, r.Size
		mk := mask(r.Width)
		af := compileExprFn(lhs.idx)
		return func(m *Machine) {
			a := af(m)
			if a >= base && a-base < size {
				m.arr[slot][a-base] = rf(m) & mk
			}
		}
	}
	panic("gosim: unknown lvalue kind")
}

// ---- expression compilation ----------------------------------------------

// widenFn wraps a child closure with the arithmetic-widening conversion
// to the common width: sign-extension for signed operands, the identity
// for unsigned ones (payloads are already zero-extended).
func widenFn(c *expr, cf efn, to int) efn {
	if c.signed && c.w < to {
		w := c.w
		mk := mask(to)
		return func(m *Machine) uint64 { return sx(cf(m), w) & mk }
	}
	return cf
}

// cmpIntFn yields the operand as the int64 the interpreter's signed
// compare sees: signed operands sign-extend from their own width,
// unsigned operands from the common width (so an unsigned value with the
// top bit of the common width set compares negative, exactly like
// Resize(w) followed by CmpS).
func cmpIntFn(c *expr, cf efn, w int) func(*Machine) int64 {
	if c.signed {
		w = c.w
	}
	return func(m *Machine) int64 { return int64(sx(cf(m), w)) }
}

// cmpFn compiles a compare of two operands of one type.
func cmpFn[T int64 | uint64](op string, a, b func(*Machine) T) efn {
	switch op {
	case "<":
		return func(m *Machine) uint64 { return b2i(a(m) < b(m)) }
	case "<=":
		return func(m *Machine) uint64 { return b2i(a(m) <= b(m)) }
	case ">":
		return func(m *Machine) uint64 { return b2i(a(m) > b(m)) }
	}
	return func(m *Machine) uint64 { return b2i(a(m) >= b(m)) }
}

func compileExprFn(e *expr) efn {
	switch e.kind {
	case eConst:
		k := e.k
		return func(*Machine) uint64 { return k }
	case eLocal:
		idx := e.local.idx
		return func(m *Machine) uint64 { return m.loc[idx] }
	case eField:
		idx := e.n
		return func(m *Machine) uint64 { return m.fld[idx] }
	case eScalar:
		slot := e.res.Slot
		return func(m *Machine) uint64 { return m.sc[slot] }
	case eElem:
		slot := e.res.Slot
		base, size := e.res.Base, e.res.Size
		af := compileExprFn(e.idx)
		return func(m *Machine) uint64 {
			a := af(m)
			if a >= base && a-base < size {
				return m.arr[slot][a-base]
			}
			return 0
		}
	case eSlice:
		af := compileExprFn(e.a)
		lo := uint(e.n)
		mk := mask(e.w)
		return func(m *Machine) uint64 { return (af(m) >> lo) & mk }
	case eUn:
		af := compileExprFn(e.a)
		mk := mask(e.w)
		switch e.op {
		case "-":
			return func(m *Machine) uint64 { return -af(m) & mk }
		case "!":
			return func(m *Machine) uint64 { return b2i(af(m) == 0) }
		case "~":
			return func(m *Machine) uint64 { return ^af(m) & mk }
		}
	case eBin:
		return compileBinFn(e)
	case eCond:
		cf := compileExprFn(e.a)
		tf := compileExprFn(e.b)
		ff := compileExprFn(e.c)
		return func(m *Machine) uint64 {
			if cf(m) != 0 {
				return tf(m)
			}
			return ff(m)
		}
	case eAbs:
		af, w := compileExprFn(e.a), e.a.w
		return func(m *Machine) uint64 { return absv(af(m), w) }
	case eMinMax:
		af, bf, w := compileExprFn(e.a), compileExprFn(e.b), e.a.w
		switch {
		case !e.a.signed && e.op == "min":
			return func(m *Machine) uint64 { return min(af(m), bf(m)) }
		case !e.a.signed:
			return func(m *Machine) uint64 { return max(af(m), bf(m)) }
		case e.op == "min":
			return func(m *Machine) uint64 { return smin(af(m), bf(m), w) }
		}
		return func(m *Machine) uint64 { return smax(af(m), bf(m), w) }
	case eSat:
		af, w, to := compileExprFn(e.a), e.a.w, e.n
		return func(m *Machine) uint64 { return ssat(af(m), w, to) }
	case eSext:
		af, n := compileExprFn(e.a), e.n
		return func(m *Machine) uint64 { return sx(af(m), n) }
	case eZext:
		af := compileExprFn(e.a)
		mk := mask(e.n)
		return func(m *Machine) uint64 { return af(m) & mk }
	case eAddSat:
		af, bf := compileExprFn(e.a), compileExprFn(e.b)
		aw, bw, sub := e.a.w, e.b.w, e.op == "-"
		return func(m *Machine) uint64 { return sadds(af(m), aw, bf(m), bw, sub) }
	}
	panic("gosim: unknown expression kind")
}

func compileBinFn(e *expr) efn {
	l, r := e.a, e.b
	w := max(l.w, r.w)
	lf, rf := compileExprFn(l), compileExprFn(r)
	af, bf := widenFn(l, lf, w), widenFn(r, rf, w)
	mk := mask(w)
	signed := l.signed || r.signed
	switch e.op {
	case "+":
		return func(m *Machine) uint64 { return (af(m) + bf(m)) & mk }
	case "-":
		return func(m *Machine) uint64 { return (af(m) - bf(m)) & mk }
	case "*":
		return func(m *Machine) uint64 { return (af(m) * bf(m)) & mk }
	case "&":
		return func(m *Machine) uint64 { return af(m) & bf(m) }
	case "|":
		return func(m *Machine) uint64 { return af(m) | bf(m) }
	case "^":
		return func(m *Machine) uint64 { return af(m) ^ bf(m) }
	case "==":
		return func(m *Machine) uint64 { return b2i(af(m) == bf(m)) }
	case "!=":
		return func(m *Machine) uint64 { return b2i(af(m) != bf(m)) }
	case "/":
		if signed {
			return func(m *Machine) uint64 { return sdiv(af(m), bf(m), w) }
		}
		return func(m *Machine) uint64 { return udiv(af(m), bf(m), w) }
	case "%":
		if signed {
			return func(m *Machine) uint64 { return smod(af(m), bf(m), w) }
		}
		return func(m *Machine) uint64 { return umod(af(m), bf(m), w) }
	case "<", "<=", ">", ">=":
		if signed {
			return cmpFn(e.op, cmpIntFn(l, lf, w), cmpIntFn(r, rf, w))
		}
		// Unsigned compares are payload compares at the operands' own
		// widths (CmpU does not widen).
		return cmpFn(e.op, lf, rf)
	case "<<":
		lw := l.w
		return func(m *Machine) uint64 { return shl(lf(m), rf(m), lw) }
	case ">>":
		lw := l.w
		if l.signed {
			return func(m *Machine) uint64 { return shrs(lf(m), rf(m), lw) }
		}
		return func(m *Machine) uint64 { return shru(lf(m), rf(m), lw) }
	case "&&":
		return func(m *Machine) uint64 { return b2i(lf(m) != 0 && rf(m) != 0) }
	case "||":
		return func(m *Machine) uint64 { return b2i(lf(m) != 0 || rf(m) != 0) }
	}
	panic("gosim: unknown binary operator " + e.op)
}
