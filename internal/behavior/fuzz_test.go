package behavior

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/pipeline"
	"golisa/internal/sema"
)

// fuzzRegs is compileRegs plus a resource of each remaining kind the
// typed closures handle: 1-, 32-bit unsigned and 64-bit registers, a
// LATCH register, a signed alias and a banked memory.
const fuzzRegs = compileRegs + `
RESOURCE {
  REGISTER bit b1; REGISTER unsigned u32; REGISTER long s64;
  REGISTER int lat LATCH;
  REGISTER int al ALIAS s64[47..16];
  DATA_MEMORY bit[8] vb[2]([8]);
}
`

// recorder is a behavior context that keeps what a run prints and
// refuses the calls and pipeline operations the fuzz model has none of.
type recorder struct{ out []string }

var errNoContext = errors.New("not in the fuzz model")

func (r *recorder) PipeOp(*model.Pipeline, int, pipeline.Op) error { return errNoContext }
func (r *recorder) Print(s string)                                 { r.out = append(r.out, s) }
func (r *recorder) CallOp(*model.Operation) error                  { return errNoContext }
func (r *recorder) CallInstance(*model.Instance) error             { return errNoContext }

// engineRun is what one engine did with a behavior: its error, the writes
// its state saw in order, what it printed and the committed state.
type engineRun struct {
	err    error
	writes []string
	ctx    *recorder
	s      *model.State
}

func runEngine(m *model.Model, op string, budget int, compiled bool) engineRun {
	r := engineRun{ctx: &recorder{}, s: model.NewState(m)}
	r.s.OnWrite = func(res *model.Resource, v bitvec.Value) {
		r.writes = append(r.writes, fmt.Sprintf("%s=%v", res.Name, v))
	}
	r.s.OnWriteElem = func(res *model.Resource, addr uint64, v bitvec.Value) {
		r.writes = append(r.writes, fmt.Sprintf("%s[%d]=%v", res.Name, addr, v))
	}
	x := &Exec{M: m, S: r.s, Ctx: r.ctx, Budget: budget}
	if compiled {
		_, r.err = RunCompiled(x, model.NewInstance(m.Ops[op]))
	} else {
		r.err = x.Run(model.NewInstance(m.Ops[op]))
	}
	r.s.Commit()
	return r
}

// divergence runs op through the interpreter and the compiler and
// describes the first difference, or returns "". Both charge the budget
// one unit per loop iteration, so a run the budget cuts short is compared
// like any other, up to the fault.
func divergence(m *model.Model, op string, budget int) string {
	i, c := runEngine(m, op, budget, false), runEngine(m, op, budget, true)
	if fmt.Sprint(i.err) != fmt.Sprint(c.err) {
		return fmt.Sprintf("errors: interp %v, compiled %v", i.err, c.err)
	}
	if !slices.Equal(i.writes, c.writes) {
		return fmt.Sprintf("writes:\ninterp   %v\ncompiled %v", i.writes, c.writes)
	}
	if !slices.Equal(i.ctx.out, c.ctx.out) {
		return fmt.Sprintf("prints: interp %q, compiled %q", i.ctx.out, c.ctx.out)
	}
	if eq, diff := i.s.Equal(c.s); !eq {
		return "state at " + diff
	}
	return ""
}

// FuzzCompiledMatchesInterpreter runs a behavior through the interpreter
// and the typed closures and requires the same error, the same writes in
// the same order, the same prints and the same state. The behavior is
// body, seeded from TestCompiledMatchesInterpreter{Basics,Signedness},
// followed by the statements prog decodes to (fuzzGen).
func FuzzCompiledMatchesInterpreter(f *testing.F) {
	for _, body := range append(slices.Clone(basicsBodies), signednessBodies...) {
		f.Add(body, []byte(nil))
	}
	for _, prog := range fuzzSeeds() {
		f.Add("", prog)
	}
	f.Fuzz(func(t *testing.T, body string, prog []byte) {
		src := fuzzRegs + "OPERATION op { BEHAVIOR {\n" + body + "\n" + genBehavior(prog) + "} }"
		d, perrs := parser.Parse(src, "fuzz.lisa")
		if len(perrs) > 0 {
			return
		}
		m, errs := sema.Build("fuzz", d)
		if len(errs) > 0 || m.Ops["op"] == nil {
			return
		}
		for _, r := range m.Resources {
			if r.Total() > 1<<12 { // a body can declare memories of its own
				return
			}
		}
		// The small budget cuts runs with a few loops short.
		for _, budget := range []int{1 << 14, 5} {
			if diff := divergence(m, "op", budget); diff != "" {
				t.Fatalf("budget %d: %s\nbehavior:\n%s\n%s", budget, diff, body, genBehavior(prog))
			}
		}
	})
}

// fuzzSeeds are generator inputs: seeded random bytes, enough for a few
// statements each, some nested.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for i := int64(1); i <= 8; i++ {
		b := make([]byte, 400)
		rand.New(rand.NewSource(i)).Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// fuzzGen decodes bytes into behavior statements: every choice reads the
// next byte, and an exhausted input reads zeros, which end every list.
// Loops count a local of their own that no other statement names, to at
// most 4, so a generated behavior stays within any budget.
type fuzzGen struct {
	in     []byte
	sb     strings.Builder
	scopes [][]fuzzLocal
	nlocal int
	depth  int
	loops  int // enclosing loops: break and continue need one
}

type fuzzLocal struct{ name, typ string }

var (
	fuzzTypes   = []string{"bool", "bit[4]", "int", "unsigned", "long", "bit[12]"}
	fuzzScalars = []string{"b1", "small", "r0", "r1", "u32", "wide", "s64", "lat", "al"}
	fuzzUnary   = []string{"-", "+", "!", "~"}
	fuzzBinary  = []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}
	fuzzAssign  = []string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
	fuzzConsts  = []string{"0", "1", "2", "3", "7", "8", "15", "16", "31", "32", "63", "64", "0x7f", "0x80", "0xff",
		"0x7fffffff", "0x80000000", "0xffffffff", "0x100000000", "0xffffffffff", "0x7fffffffffffffff", "0xffffffffffffffff"}
)

func genBehavior(prog []byte) string {
	g := &fuzzGen{in: prog, scopes: [][]fuzzLocal{nil}}
	g.stmts(6)
	return g.sb.String()
}

func (g *fuzzGen) pick(n int) int {
	if len(g.in) == 0 {
		return 0
	}
	b := g.in[0]
	g.in = g.in[1:]
	return int(b) % n
}

func (g *fuzzGen) emit(format string, args ...any) { fmt.Fprintf(&g.sb, format, args...) }

// stmts emits up to n statements; a zero byte ends the list.
func (g *fuzzGen) stmts(n int) {
	for i := 0; i < n && len(g.in) > 0; i++ {
		if g.pick(16) == 0 {
			return
		}
		g.stmt()
	}
}

func (g *fuzzGen) block() {
	g.emit("{\n")
	g.scopes = append(g.scopes, nil)
	g.depth++
	g.stmts(3)
	g.depth--
	g.scopes = g.scopes[:len(g.scopes)-1]
	g.emit("}\n")
}

// caseBody emits a case's statements, in a scope of their own.
func (g *fuzzGen) caseBody() {
	g.scopes = append(g.scopes, nil)
	g.depth++
	g.stmts(2)
	g.depth--
	g.scopes = g.scopes[:len(g.scopes)-1]
}

func (g *fuzzGen) declare(typ string) string {
	name := fmt.Sprintf("l%d", g.nlocal)
	g.nlocal++
	g.scopes[len(g.scopes)-1] = append(g.scopes[len(g.scopes)-1], fuzzLocal{name, typ})
	return name
}

// counter declares a loop's own counter, which no other statement names.
func (g *fuzzGen) counter() string {
	name := fmt.Sprintf("c%d", g.nlocal)
	g.nlocal++
	g.emit("int %s = 0;\n", name)
	return name
}

func (g *fuzzGen) stmt() {
	nested := g.depth < 3
	switch k := g.pick(14); {
	case k <= 3:
		g.emit("%s %s %s;\n", g.lvalue(), fuzzAssign[g.pick(len(fuzzAssign))], g.expr(3))
	case k == 4:
		g.emit("%s%s;\n", g.lvalue(), []string{"++", "--"}[g.pick(2)])
	case k == 5:
		typ := fuzzTypes[g.pick(len(fuzzTypes))]
		if g.pick(3) == 0 {
			g.emit("%s %s;\n", typ, g.declare(typ))
		} else {
			init := g.expr(2)
			g.emit("%s %s = %s;\n", typ, g.declare(typ), init)
		}
	case k == 6 && nested:
		g.emit("if (%s) ", g.expr(2))
		g.block()
		if g.pick(2) == 0 {
			g.emit("else ")
			g.block()
		}
	case k == 7 && nested:
		c, n := g.counter(), 1+g.pick(4)
		g.loops++
		switch g.pick(3) {
		case 0:
			g.emit("for (%s = 0; %s < %d; %s++) ", c, c, n, c)
			g.block()
		case 1:
			g.emit("while (%s < %d) {\n%s++;\n", c, n, c)
			g.block()
			g.emit("}\n")
		default:
			g.emit("do {\n%s++;\n", c)
			g.block()
			g.emit("} while (%s < %d);\n", c, n)
		}
		g.loops--
	case k == 8 && nested:
		g.emit("switch (%s) {\n", g.expr(2))
		for n := 1 + g.pick(3); n > 0; n-- {
			g.emit("case %s", g.expr(1))
			if g.pick(2) == 0 {
				g.emit(", %s", g.expr(1))
			}
			g.emit(":\n")
			g.caseBody()
			if g.pick(2) == 0 {
				g.emit("break;\n")
			}
		}
		if g.pick(2) == 0 {
			g.emit("default:\n")
			g.caseBody()
		}
		g.emit("}\n")
	case k == 9 && g.loops > 0:
		g.emit("if (%s) %s;\n", g.expr(1), []string{"break", "continue"}[g.pick(2)])
	case k == 10:
		g.emit("if (%s) return;\n", g.expr(1))
	case k == 11:
		g.emit("print(\"v\", %s, %s);\n", g.expr(2), g.expr(1))
	case k == 12 && g.pick(16) == 0:
		// A declaration as a whole if body: its local stays in scope,
		// unset when the branch is not taken (interpreted).
		typ := fuzzTypes[g.pick(len(fuzzTypes))]
		cond, init := g.expr(1), g.expr(1)
		g.emit("if (%s) %s %s = %s;\n", cond, typ, g.declare(typ), init)
	default:
		g.emit("%s = %s;\n", g.lvalue(), g.expr(2))
	}
}

// fuzzTyped groups operands by type: a pair from one group has one static
// type, as a typed ?: or min/max needs.
var fuzzTyped = [][]string{
	{"r0", "r1", "r2", "r3", "lat", "al", "mem[r0]", "7", "0x7fffffff", "-1"},
	{"small"}, {"wide"}, {"u32"}, {"s64", "0x80000000", "0xffffffffffffffff"}, {"b1", "(r0 < r1)"},
	{"vb[r1][r2]", "small"},
}

// pair returns two operands of one type.
func (g *fuzzGen) pair() (string, string) {
	grp := fuzzTyped[g.pick(len(fuzzTyped))]
	return grp[g.pick(len(grp))], grp[g.pick(len(grp))]
}

// local returns a local in scope, or "" when there is none.
func (g *fuzzGen) local() string {
	var all []string
	for _, sc := range g.scopes {
		for _, l := range sc {
			all = append(all, l.name)
		}
	}
	if len(all) == 0 {
		return ""
	}
	return all[g.pick(len(all))]
}

func (g *fuzzGen) lvalue() string {
	switch g.pick(8) {
	case 0, 1:
		if l := g.local(); l != "" {
			return l
		}
	case 2:
		return fmt.Sprintf("mem[%s]", g.expr(1))
	case 3:
		return fmt.Sprintf("vb[%s][%s]", g.expr(1), g.expr(1))
	case 4:
		return fmt.Sprintf("r2[%s]", g.expr(1))
	case 5:
		hi, lo := g.pick(64), g.pick(64)
		return fmt.Sprintf("%s[%d..%d]", []string{"wide", "s64", "r3"}[g.pick(3)], hi, lo)
	case 6:
		if g.pick(16) == 0 { // bounds known only at run time (interpreted)
			return fmt.Sprintf("r3[%s..%s]", g.expr(1), g.expr(0))
		}
	}
	return fuzzScalars[g.pick(len(fuzzScalars))]
}

func (g *fuzzGen) expr(depth int) string {
	if depth <= 0 {
		switch g.pick(4) {
		case 0:
			return fuzzConsts[g.pick(len(fuzzConsts))]
		case 1:
			if l := g.local(); l != "" {
				return l
			}
		}
		return fuzzScalars[g.pick(len(fuzzScalars))]
	}
	d := depth - 1
	switch g.pick(16) {
	case 0, 1, 2:
		return fmt.Sprintf("(%s %s %s)", g.expr(d), fuzzBinary[g.pick(len(fuzzBinary))], g.expr(d))
	case 3:
		return fmt.Sprintf("%s(%s)", fuzzUnary[g.pick(len(fuzzUnary))], g.expr(d))
	case 4:
		if g.pick(16) == 0 { // branches of any types (interpreted when they differ)
			return fmt.Sprintf("(%s ? %s : %s)", g.expr(d), g.expr(d), g.expr(d))
		}
		a, b := g.pair()
		return fmt.Sprintf("(%s ? %s : %s)", g.expr(d), a, b)
	case 5:
		return fmt.Sprintf("mem[%s]", g.expr(d))
	case 6:
		return fmt.Sprintf("vb[%s][%s]", g.expr(d), g.expr(d))
	case 7:
		return fmt.Sprintf("%s[%s]", []string{"r1", "small", "s64"}[g.pick(3)], g.expr(d))
	case 8:
		return fmt.Sprintf("%s[%d..%d]", g.expr(0), g.pick(64), g.pick(64))
	case 9:
		if g.pick(16) == 0 { // bounds known only at run time (interpreted)
			return fmt.Sprintf("%s[%s..%s]", g.expr(0), g.expr(d), g.expr(0))
		}
		return fmt.Sprintf("%s[%s..%d]", g.expr(0), fuzzConsts[g.pick(12)], g.pick(64))
	case 10:
		return fmt.Sprintf("%s(%s)", []string{"abs", "-"}[g.pick(2)], g.expr(d))
	case 11:
		fn := []string{"min", "max", "addsat", "subsat"}[g.pick(4)]
		if fn[0] == 'm' && g.pick(16) != 0 {
			a, b := g.pair()
			return fmt.Sprintf("%s(%s, %s)", fn, a, b)
		}
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(d), g.expr(d))
	case 12:
		fn := []string{"saturate", "sign_extend", "zero_extend"}[g.pick(3)]
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(d), g.expr(0))
	case 13:
		if g.pick(16) == 0 { // bounds known only at run time (interpreted)
			return fmt.Sprintf("bits(%s, %s, %s)", g.expr(d), g.expr(0), g.expr(0))
		}
		return fmt.Sprintf("bits(%s, %d, %d)", g.expr(d), g.pick(64), g.pick(64))
	case 14:
		return "wait_states(mem)"
	}
	return g.expr(0)
}
