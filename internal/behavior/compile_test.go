package behavior

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

// runBoth executes the same operation through the interpreter and the
// pre-binding compiler on separate states and compares every resource.
func runBoth(t *testing.T, src, opName string) {
	t.Helper()
	d, perrs := parser.Parse(src, "compile_test.lisa")
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	m, errs := sema.Build("compile-test", d)
	for _, e := range errs {
		t.Fatalf("sema: %v", e)
	}
	sInterp := model.NewState(m)
	sComp := model.NewState(m)
	xi := &Exec{M: m, S: sInterp}
	xc := &Exec{M: m, S: sComp}
	in1 := model.NewInstance(m.Ops[opName])
	in2 := model.NewInstance(m.Ops[opName])
	errI := xi.Run(in1)
	_, errC := RunCompiled(xc, in2)
	if (errI == nil) != (errC == nil) {
		t.Fatalf("error divergence: interp=%v compiled=%v", errI, errC)
	}
	if errI != nil {
		return
	}
	if eq, diff := sInterp.Equal(sComp); !eq {
		t.Errorf("state divergence at %s\nprogram:\n%s", diff, src)
	}
}

const compileRegs = `
RESOURCE {
  REGISTER int r0; REGISTER int r1; REGISTER int r2; REGISTER int r3;
  REGISTER bit[8] small;
  REGISTER bit[40] wide;
  DATA_MEMORY int mem[32];
}
`

// basicsBodies are TestCompiledMatchesInterpreterBasics's bodies, over
// compileRegs.
var basicsBodies = []string{
	`r0 = 1 + 2 * 3;`,
	`int i; for (i = 0; i < 10; i++) { r0 += i; } r1 = r0 >> 1;`,
	`r0 = -5; r1 = r0 / 2; r2 = r0 % 3; r3 = abs(r0);`,
	`small = 250; small += 10; r0 = small;`,
	`wide = 0xffffffffff; wide = wide + 1; r0 = wide == 0;`,
	`int i = 0; while (i < 8) { mem[i] = i * i; i++; } r0 = mem[7];`,
	`int i = 0; do { i++; if (i == 3) continue; if (i > 6) break; r0 += i; } while (1);`,
	`switch (4) { case 1: r0 = 1; case 4, 5: r0 = 45; break; default: r0 = 9; }`,
	`r0 = 0xabcd; r1 = r0[15..8]; r0[7..0] = 0x12;`,
	`r0 = saturate(300, 8); r1 = sign_extend(0x80, 8); r2 = zero_extend(0xfff, 8);`,
	`r0 = min(3, max(7, 2)); r1 = addsat(0x7fffffff, 1); r2 = subsat(-2147483647, 100);`,
	`r0 = (1 == 1) && (2 > 1) || (3 < 2); r1 = !r0; r2 = ~0;`,
	`r0 = 7; r0 <<= 2; r0 |= 1; r0 ^= 0xf; r0 &= 0xff; r0 >>= 1;`,
	`r0 = bits(0xdeadbeef, 15, 8);`,
	`r0 = 1 ? 10 : 20; r1 = 0 ? 10 : 20;`,
	`if (r0 == 0) { r1 = 1; } else { r1 = 2; }`,
	`return; r0 = 99;`,
}

func TestCompiledMatchesInterpreterBasics(t *testing.T) {
	for i, body := range basicsBodies {
		t.Run(fmt.Sprintf("body%d", i), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR { "+body+" } }", "op")
		})
	}
}

// TestCompiledMatchesInterpreterRandom generates random straight-line
// arithmetic programs and checks interpreter/compiler equivalence — the
// differential-testing analog of the paper's simulator verification.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	regs := []string{"r0", "r1", "r2", "r3", "small", "wide"}
	binops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"}
	randExpr := func(depth int) string {
		var gen func(d int) string
		gen = func(d int) string {
			if d == 0 || rng.Intn(3) == 0 {
				switch rng.Intn(3) {
				case 0:
					return fmt.Sprintf("%d", rng.Intn(1000)-500)
				case 1:
					return regs[rng.Intn(len(regs))]
				default:
					return fmt.Sprintf("mem[%d]", rng.Intn(32))
				}
			}
			op := binops[rng.Intn(len(binops))]
			if op == "<<" || op == ">>" {
				return fmt.Sprintf("(%s %s %d)", gen(d-1), op, rng.Intn(16))
			}
			return fmt.Sprintf("(%s %s %s)", gen(d-1), op, gen(d-1))
		}
		return gen(depth)
	}
	for trial := 0; trial < 60; trial++ {
		var body string
		for stmt := 0; stmt < 6; stmt++ {
			switch rng.Intn(3) {
			case 0:
				body += fmt.Sprintf("%s = %s;\n", regs[rng.Intn(len(regs))], randExpr(3))
			case 1:
				body += fmt.Sprintf("mem[%d] = %s;\n", rng.Intn(32), randExpr(2))
			default:
				body += fmt.Sprintf("if (%s > %d) { %s = %s; }\n",
					regs[rng.Intn(len(regs))], rng.Intn(100)-50,
					regs[rng.Intn(len(regs))], randExpr(2))
			}
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR {\n"+body+"} }", "op")
		})
	}
}

func TestCompiledLabelFolding(t *testing.T) {
	// Labels become constants in compiled mode; verify a decoded operand
	// expression (A[index]) behaves identically.
	src := `
RESOURCE { REGISTER int A[16]; REGISTER int out; }
OPERATION reg {
  DECLARE { LABEL index; }
  CODING { index:0bx[4] }
  EXPRESSION { A[index] }
}
OPERATION use {
  DECLARE { GROUP Src = { reg }; }
  CODING { Src }
  BEHAVIOR { out = Src + 1; Src = 9; }
}
`
	d, perrs := parser.Parse(src, "t")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	mk := func() *model.Instance {
		in := model.NewInstance(m.Ops["use"])
		child := model.NewInstance(m.Ops["reg"])
		child.Labels["index"] = bitvec.New(5, 4)
		in.Bindings["Src"] = child
		return in
	}
	s1, s2 := model.NewState(m), model.NewState(m)
	_ = s1.WriteElem(m.Resource("A"), 5, bitvec.FromInt(41, 32))
	_ = s2.WriteElem(m.Resource("A"), 5, bitvec.FromInt(41, 32))
	if err := (&Exec{M: m, S: s1}).Run(mk()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCompiled(&Exec{M: m, S: s2}, mk()); err != nil {
		t.Fatal(err)
	}
	if eq, diff := s1.Equal(s2); !eq {
		t.Fatalf("divergence at %s", diff)
	}
	out := s1.Read(m.Resource("out"))
	if out.Int() != 42 {
		t.Errorf("out = %d", out.Int())
	}
	v, _ := s1.ReadElem(m.Resource("A"), 5)
	if v.Int() != 9 {
		t.Errorf("write through EXPRESSION lvalue: %d", v.Int())
	}
}

// TestCompiledCondCache checks that activation conditions are compiled
// once, together with the behavior, into the instance's bound plan, and
// that every later execution reuses that plan.
func TestCompiledCondCache(t *testing.T) {
	d, _ := parser.Parse(compileRegs+`
OPERATION other { BEHAVIOR { ; } }
OPERATION op {
  BEHAVIOR { r1 = r0; }
  ACTIVATION {
    if (r0 + 1 > 0) { other },
    switch (r0) { case 0, 1: { other } default: { } }
  }
}`, "t")
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	x := &Exec{M: m, S: model.NewState(m)}
	in := model.NewInstance(m.Ops["op"])
	var first []ActStep
	for i := 0; i < 3; i++ {
		plan, err := RunCompiled(x, in)
		if err != nil || len(plan) != 2 {
			t.Fatalf("RunCompiled: plan %v, err %v", plan, err)
		}
		if i == 0 {
			first = plan
		} else if &plan[0] != &first[0] {
			t.Fatal("plan re-bound on a later execution")
		}
		if got := x.ActCond(in, &plan[0]); !got {
			t.Fatalf("ActCond: %v", got)
		}
		if plan[0].Then[0].Kind != ActRun || plan[0].Then[0].Target != nil || plan[0].Then[0].Op != m.Ops["other"] {
			t.Fatalf("activation target not bound: %+v", plan[0].Then[0])
		}
		if chosen := x.ActChoose(in, &plan[1]); len(chosen) != 1 {
			t.Fatalf("ActChoose: %v", chosen)
		}
	}
	// One behavior closure, one condition, one switch tag, two case values.
	if x.Compiles != 5 {
		t.Errorf("compiled %d closures, want 5", x.Compiles)
	}
}

// TestCompiledBudgetPerCall runs a looping behavior far more often than
// its statement budget allows in total: the budget applies to each call,
// as it does in the interpreter, not to the engine's lifetime.
func TestCompiledBudgetPerCall(t *testing.T) {
	d, _ := parser.Parse(compileRegs+`OPERATION op { BEHAVIOR { int i; for (i = 0; i < 10; i++) { r0 += i; } } }`, "t")
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	x := &Exec{M: m, S: model.NewState(m), Budget: 50}
	in := model.NewInstance(m.Ops["op"])
	for i := 0; i < 100; i++ {
		if _, err := RunCompiled(x, in); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if err := x.Run(in); err != nil {
			t.Fatalf("interpreted call %d: %v", i, err)
		}
	}
}

// TestBudgetCountsLoopIterations: the interpreter and the compiled
// closures charge the budget by one rule, one unit per loop iteration, so
// a loop of 12 iterations in 3 statements runs within a budget of 40 on
// both, and a runaway loop fails on both with the same error.
func TestBudgetCountsLoopIterations(t *testing.T) {
	for _, tc := range []struct{ body, wantErr string }{
		{"int i; for (i = 0; i < 12; i++) { r0 += i; }", ""},
		{"while (1) { r0 = r0; }", "behavior execution exceeded 40 loop iterations (runaway loop?)"},
	} {
		d, _ := parser.Parse(compileRegs+"OPERATION op { BEHAVIOR { "+tc.body+" } }", "t")
		m, errs := sema.Build("t", d)
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		in := model.NewInstance(m.Ops["op"])
		interp := (&Exec{M: m, S: model.NewState(m), Budget: 40}).Run(in)
		_, compiled := RunCompiled(&Exec{M: m, S: model.NewState(m), Budget: 40}, in)
		for _, err := range []error{interp, compiled} {
			if fmt.Sprint(err) != cmp.Or(tc.wantErr, "<nil>") {
				t.Errorf("%s: interpreter %v, compiled %v, want %q", tc.body, interp, compiled, tc.wantErr)
			}
		}
	}
}

// TestCompiledErrors: defects in behavior code fail the model at load, so
// the closure compiler never meets them.
func TestCompiledErrors(t *testing.T) {
	cases := []struct{ fixture, want string }{
		{"unknown_identifier", "unknown identifier"},
		{"unknown_function", "unknown function"},
		{"memory_without_index", "needs an index"},
	}
	for _, c := range cases {
		if err := loadBroken(t, c.fixture); !strings.Contains(err, c.want) {
			t.Errorf("%s: got %q, want substring %q", c.fixture, err, c.want)
		}
	}
}

func TestCompiledRunawayBudget(t *testing.T) {
	d, _ := parser.Parse(compileRegs+`OPERATION op { BEHAVIOR { while (1) { r0 = r0; } } }`, "t")
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	x := &Exec{M: m, S: model.NewState(m), Budget: 500}
	if _, err := RunCompiled(x, model.NewInstance(m.Ops["op"])); err == nil {
		t.Error("runaway loop not caught in compiled mode")
	}
}

// TestCompiledMatchesInterpreterSignedness is the adversarial regression
// table from the sub-64-bit sign-extension/truncation audit. The two
// engines share binop/unop (expr.go) but duplicate the builtin
// implementations, so every case here leans on the places a future edit
// could split them: mixed signed/unsigned comparisons with the top bit
// set, shift counts at and beyond the operand width (and the &63 count
// mask), arithmetic right-shift sign fill, assignment truncation into
// narrow registers, signed division/remainder edges (MinInt/-1, /0),
// saturation and extension builtins at their boundary widths, and
// read-modify-write slice lvalues on sub-word registers.
func TestCompiledMatchesInterpreterSignedness(t *testing.T) {
	for i, body := range signednessBodies {
		t.Run(fmt.Sprintf("adv%d", i), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR { "+body+" } }", "op")
		})
	}
}

// signednessBodies are TestCompiledMatchesInterpreterSignedness's bodies,
// over compileRegs.
var signednessBodies = []string{
	// Mixed signed/unsigned comparison, top bit set: bit[8] 0xff is
	// 255, int -1 sign-extends; they must never compare equal.
	`small = 0xff; r0 = 0 - 1; r1 = small > r0; r2 = r0 < small; r3 = small == r0;`,
	// Unsigned/unsigned comparison stays unsigned even at top-bit.
	`unsigned a = 0x80000000; unsigned b = 1; r0 = a > b; r1 = a < b; r2 = min(a, b); r3 = max(a, b);`,
	// Shift counts at and beyond the operand width; the dialect masks
	// the count with &63, so x << 64 is x << 0.
	`small = 0x80; r0 = small >> 9; r1 = small << 8; r2 = small >> 7;`,
	`r0 = 1; r1 = r0 << 64; r2 = r0 >> 64; r3 = r0 << 63;`,
	// Arithmetic right shift must sign-fill, including full-width counts.
	`r0 = 0 - 8; r1 = r0 >> 1; r2 = r0 >> 63; r3 = r0 >> 31;`,
	// Assignment truncation: wide values chopped into narrow registers,
	// then read back with the register's own signedness.
	`r0 = 0x12345; small = r0; r1 = small; wide = 0xffffffffff; r2 = wide; r3 = wide >> 32;`,
	// Signed division/remainder edges: MinInt/-1 and divide-by-zero in
	// both signedness worlds.
	`r0 = 1 << 31; r1 = 0 - 1; r2 = r0 / r1; r3 = r0 % r1;`,
	`r0 = 5 / 0; r1 = (0 - 5) / 0; r2 = 5 % 0; r3 = (0 - 5) % 0;`,
	`unsigned u = 7; unsigned z = 0; r0 = u / z; r1 = u % z;`,
	// Saturation and extension builtins at boundary widths.
	`r0 = saturate(0 - 300, 8); r1 = saturate(127, 8); r2 = saturate(128, 8); r3 = saturate(0 - 128, 8);`,
	`r0 = sign_extend(0xff, 8); r1 = sign_extend(0x7f, 8); r2 = zero_extend(0xffffffff, 16); r3 = sign_extend(0x8000, 16);`,
	`small = 200; r0 = addsat(small, small); r1 = subsat(small, 0xff); wide = 0x7fffffffff; r2 = addsat(wide, 1);`,
	// min/max compare the raw operand widths: bit[8] 0x80 against a
	// negative int exercises the signed-compare path without widening.
	`small = 0x80; r0 = 0 - 1; r1 = min(small, r0); r2 = max(small, r0); r3 = min(small, small);`,
	// Unary negate/complement inside a narrow register wrap at its width.
	`small = 1; small = 0 - small; r0 = small; small = ~small; r1 = small;`,
	// Compound shifts truncate at the register width on every step.
	`small = 0xf0; small <<= 4; r0 = small; small = 0x80; small >>= 1; r1 = small;`,
	// Slice lvalue read-modify-write on a sub-word register.
	`small = 0; small[7..4] = 0xf; r0 = small; small[3..0] = small[7..4]; r1 = small;`,
	// bits() is an unsigned field extract regardless of source sign.
	`r0 = 0 - 1; r1 = bits(r0, 31, 24); r2 = bits(0xdeadbeef, 31, 28); r3 = bits(0xff, 3, 3);`,
	// Narrow locals: declaration initializers truncate like assignments.
	`bit[4] n = 0xff; r0 = n; int s = n - 16; r1 = s; bool b2 = 5; r2 = b2;`,
	// 64-bit long edges: overflow wrap and full-width saturating ops.
	`long l = 1; l <<= 62; l *= 2; r0 = l < 0; l = addsat(l, 0 - 1); r1 = l < 0;`,
	// Mixed-width multiply then narrow store: high bits must drop the
	// same way in both engines.
	`wide = 0xfffffffff; r0 = wide * wide; small = wide * 3; r1 = small;`,
	// switch compares its tag and case values as == does: a long -1
	// tag matches the 32-bit case value -1.
	`long q = 0 - 1; switch (q) { case -1: r1 = 1; break; default: r1 = 2; }`,
}
