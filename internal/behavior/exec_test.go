package behavior

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/pipeline"
	"golisa/internal/sema"
)

// harness builds a model + state + exec from LISA source.
func harness(t *testing.T, src string) (*model.Model, *model.State, *Exec) {
	t.Helper()
	d, perrs := parser.Parse(src, "test.lisa")
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	m, errs := sema.Build("test", d)
	for _, e := range errs {
		t.Fatalf("sema: %v", e)
	}
	s := model.NewState(m)
	return m, s, &Exec{M: m, S: s}
}

// run executes the named operation as a fresh instance.
func run(t *testing.T, x *Exec, m *model.Model, opName string) {
	t.Helper()
	in := model.NewInstance(m.Ops[opName])
	if err := x.Run(in); err != nil {
		t.Fatalf("run %s: %v", opName, err)
	}
}

const regsSrc = `
RESOURCE {
  REGISTER int r0; REGISTER int r1; REGISTER int r2;
  REGISTER bit[8] small;
  REGISTER bit carry;
  DATA_MEMORY int mem[32];
  DATA_MEMORY int banked[2]([8]);
  PROGRAM_MEMORY int prog[0x10..0x1f];
}
`

func TestAssignAndArithmetic(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = 6;
  r1 = 7;
  r2 = r0 * r1 + 1 - 3;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r2")).Int(); got != 40 {
		t.Errorf("r2 = %d, want 40", got)
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = 10;
  r0 += 5; r0 -= 2; r0 *= 3; r0 /= 2; r0 %= 12;
  r1 = 0; r1++; r1++; r1--;
  r2 = 1; r2 <<= 4; r2 |= 3; r2 &= 0xfe; r2 ^= 0xff; r2 >>= 1;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r0")).Int(); got != 7 {
		t.Errorf("r0 = %d, want 7", got) // ((10+5-2)*3)/2 = 19, 19%12=7
	}
	if got := s.Read(m.Resource("r1")).Int(); got != 1 {
		t.Errorf("r1 = %d", got)
	}
	// 1<<4=16 |3=19 &0xfe=18 ^0xff=237 >>1=118
	if got := s.Read(m.Resource("r2")).Int(); got != 118 {
		t.Errorf("r2 = %d, want 118", got)
	}
}

func TestControlFlow(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  int i;
  int acc = 0;
  for (i = 0; i < 10; i++) {
    if (i == 3) continue;
    if (i == 7) break;
    acc += i;
  }
  r0 = acc;            // 0+1+2+4+5+6 = 18
  int w = 0;
  while (w < 100) { w += 30; }
  r1 = w;              // 120
  int d = 0;
  do { d++; } while (d < 5);
  r2 = d;              // 5
} }`)
	run(t, x, m, "op")
	for _, c := range []struct {
		reg  string
		want int64
	}{{"r0", 18}, {"r1", 120}, {"r2", 5}} {
		if got := s.Read(m.Resource(c.reg)).Int(); got != c.want {
			t.Errorf("%s = %d, want %d", c.reg, got, c.want)
		}
	}
}

func TestSwitchStatement(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  int i;
  for (i = 0; i < 5; i++) {
    switch (i) {
      case 0: r0 += 1;
      case 1, 2: r1 += 1; break;
      default: r2 += 1;
    }
  }
} }`)
	run(t, x, m, "op")
	// i=0 hits case 0 (no fallthrough in LISA switch), i=1,2 hit case 1,2;
	// i=3,4 hit default.
	if got := s.Read(m.Resource("r0")).Int(); got != 1 {
		t.Errorf("r0 = %d", got)
	}
	if got := s.Read(m.Resource("r1")).Int(); got != 2 {
		t.Errorf("r1 = %d", got)
	}
	if got := s.Read(m.Resource("r2")).Int(); got != 2 {
		t.Errorf("r2 = %d", got)
	}
}

func TestMemoryAccess(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  int i;
  for (i = 0; i < 8; i++) mem[i] = i * i;
  r0 = mem[5];
  banked[0][3] = 11;
  banked[1][3] = 22;
  r1 = banked[0][3] + banked[1][3];
  prog[0x12] = 99;
  r2 = prog[0x12];
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r0")).Int(); got != 25 {
		t.Errorf("mem: r0 = %d", got)
	}
	if got := s.Read(m.Resource("r1")).Int(); got != 33 {
		t.Errorf("banked: r1 = %d", got)
	}
	if got := s.Read(m.Resource("r2")).Int(); got != 99 {
		t.Errorf("ranged: r2 = %d", got)
	}
	v, err := s.ReadBanked(m.Resource("banked"), 1, 3)
	if err != nil || v.Int() != 22 {
		t.Errorf("banked[1][3] = %v, %v", v, err)
	}
}

func TestBitWidthWrapping(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  small = 250;
  small += 10;     // wraps at 8 bits: 260 & 0xff = 4
  carry = small > 100;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("small")).Uint(); got != 4 {
		t.Errorf("small = %d, want 4", got)
	}
	if got := s.Read(m.Resource("carry")).Uint(); got != 0 {
		t.Errorf("carry = %d, want 0", got)
	}
}

func TestBitSliceAndBitSelect(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = 0xabcd;
  r1 = r0[15..8];         // 0xab
  r0[7..0] = 0x12;        // 0xab12
  carry = r0[1];          // bit 1 of 0x12 = 1
  small = 0;
  small[7] = 1;           // 0x80
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r1")).Uint(); got != 0xab {
		t.Errorf("slice read: %#x", got)
	}
	if got := s.Read(m.Resource("r0")).Uint(); got != 0xab12 {
		t.Errorf("slice write: %#x", got)
	}
	if got := s.Read(m.Resource("carry")).Uint(); got != 1 {
		t.Errorf("bit select: %d", got)
	}
	if got := s.Read(m.Resource("small")).Uint(); got != 0x80 {
		t.Errorf("bit set: %#x", got)
	}
}

func TestSignedness(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = -8;
  r1 = r0 / 2;            // -4 signed
  r2 = r0 >> 1;           // arithmetic shift: -4
  carry = r0 < 0;
  small = 200;
  r0 = small > 100 ? 1 : 2;  // unsigned compare on bit[8]
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r1")).Int(); got != -4 {
		t.Errorf("signed div: %d", got)
	}
	if got := s.Read(m.Resource("r2")).Int(); got != -4 {
		t.Errorf("arith shift: %d", got)
	}
	if got := s.Read(m.Resource("carry")).Uint(); got != 1 {
		t.Errorf("signed compare: %d", got)
	}
	if got := s.Read(m.Resource("r0")).Int(); got != 1 {
		t.Errorf("unsigned compare: %d", got)
	}
}

func TestMixedWidthWidening(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  small = 0xff;             // unsigned 8-bit 255
  r0 = small + 1;           // zero-extends: 256
  long wide = -1;
  r1 = wide == 0xffffffffffffffff;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r0")).Int(); got != 256 {
		t.Errorf("zero-extend add: %d", got)
	}
	if got := s.Read(m.Resource("r1")).Uint(); got != 1 {
		t.Errorf("long compare: %d", got)
	}
}

func TestBuiltins(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = abs(0 - 42);
  r1 = min(3, max(10, 7));
  r2 = saturate(300, 8);
  small = zero_extend(0xfff, 8);
  int se = sign_extend(0x80, 8);
  carry = se == -128;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r0")).Int(); got != 42 {
		t.Errorf("abs: %d", got)
	}
	if got := s.Read(m.Resource("r1")).Int(); got != 3 {
		t.Errorf("min/max: %d", got)
	}
	if got := s.Read(m.Resource("r2")).Int(); got != 127 {
		t.Errorf("saturate: %d", got)
	}
	if got := s.Read(m.Resource("small")).Uint(); got != 0xff {
		t.Errorf("zero_extend: %#x", got)
	}
	if got := s.Read(m.Resource("carry")).Uint(); got != 1 {
		t.Errorf("sign_extend: %d", got)
	}
}

func TestOperationCallAndGroupDispatch(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION helper { BEHAVIOR { r1 = 77; } }
OPERATION op { BEHAVIOR {
  helper();
  r0 = r1;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r0")).Int(); got != 77 {
		t.Errorf("helper call: %d", got)
	}
}

func TestBareIdentStatementExecutesBinding(t *testing.T) {
	// Paper Example 3 style: BEHAVIOR { Instruction } dispatches the bound
	// group member.
	m, s, x := harness(t, regsSrc+`
OPERATION member { CODING { 0b1 } BEHAVIOR { r0 = 5; } }
OPERATION root {
  DECLARE { GROUP Insn = { member }; }
  CODING { Insn }
  BEHAVIOR { Insn; }
}`)
	in := model.NewInstance(m.Ops["root"])
	child := model.NewInstance(m.Ops["member"])
	in.Bindings["Insn"] = child
	if err := x.Run(in); err != nil {
		t.Fatal(err)
	}
	if got := s.Read(m.Resource("r0")).Int(); got != 5 {
		t.Errorf("group dispatch: %d", got)
	}
}

func TestExpressionSectionReadWrite(t *testing.T) {
	// The paper's ADD.D semantics: Dest = Src1 + Src2 via EXPRESSION A[index].
	m, s, x := harness(t, `
RESOURCE { REGISTER int A[16]; REGISTER int B[16]; }
OPERATION register {
  DECLARE { LABEL index; }
  CODING { 0bx index:0bx[4] }
  EXPRESSION { A[index] }
}
OPERATION add_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 }
  BEHAVIOR { Dest = Src1 + Src2; }
}`)
	// Build instance: ADD.D A0, A3, A4 → A[0] = A[3] + A[4] (paper text).
	mkReg := func(idx uint64) *model.Instance {
		in := model.NewInstance(m.Ops["register"])
		in.Labels["index"] = bitvec.New(idx, 4)
		return in
	}
	in := model.NewInstance(m.Ops["add_d"])
	in.Bindings["Dest"] = mkReg(0)
	in.Bindings["Src1"] = mkReg(3)
	in.Bindings["Src2"] = mkReg(4)

	A := m.Resource("A")
	_ = s.WriteElem(A, 3, bitvec.FromInt(30, 32))
	_ = s.WriteElem(A, 4, bitvec.FromInt(12, 32))
	if err := x.Run(in); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ReadElem(A, 0)
	if got.Int() != 42 {
		t.Errorf("A[0] = %d, want 42", got.Int())
	}
}

func TestShortCircuit(t *testing.T) {
	// Division by a zero register must not execute when short-circuited.
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = 0;
  r1 = (r0 != 0) && (100 / r0 > 2);
  r2 = (r0 == 0) || (100 / r0 > 2);
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r1")).Uint(); got != 0 {
		t.Errorf("&&: %d", got)
	}
	if got := s.Read(m.Resource("r2")).Uint(); got != 1 {
		t.Errorf("||: %d", got)
	}
}

func TestRunawayLoopBudget(t *testing.T) {
	m, _, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR { while (1) { r0 = r0; } } }`)
	x.Budget = 1000
	in := model.NewInstance(m.Ops["op"])
	err := x.Run(in)
	if err == nil || !strings.Contains(err.Error(), "runaway") {
		t.Errorf("expected budget error, got %v", err)
	}
}

// TestErrorsSurface: defects in behavior code fail the model at load,
// before any engine runs it. The models are sema's broken fixtures.
func TestErrorsSurface(t *testing.T) {
	cases := []struct {
		name, fixture, want string
	}{
		{"unknown ident", "unknown_identifier", "unknown identifier"},
		{"label assign", "undeclared_label", "unknown identifier"},
		{"mem without index", "memory_without_index", "needs an index"},
		{"string outside print", "string_outside_print", "string literal"},
		{"unknown call", "unknown_function", "unknown function"},
		{"redeclared", "redeclared_local", "redeclared"},
		{"pipe outside sim", "unknown_pipeline", "unknown pipeline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := loadBroken(t, c.fixture); !strings.Contains(err, c.want) {
				t.Errorf("got %q, want substring %q", err, c.want)
			}
		})
	}
}

// loadBroken builds one of sema's broken fixtures and returns its first
// load error ("" when it loads).
func loadBroken(t *testing.T, fixture string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "sema", "testdata", "broken", fixture+".lisa"))
	if err != nil {
		t.Fatal(err)
	}
	d, perrs := parser.Parse(string(src), fixture+".lisa")
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs[0])
	}
	if _, errs := sema.Build("broken", d); len(errs) > 0 {
		return errs[0].Error()
	}
	return ""
}

func TestReturnStopsExecution(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR {
  r0 = 1;
  if (r0 == 1) return;
  r0 = 2;
} }`)
	run(t, x, m, "op")
	if got := s.Read(m.Resource("r0")).Int(); got != 1 {
		t.Errorf("return: r0 = %d", got)
	}
}

type testCtx struct {
	prints  []string
	pipeOps []string
}

func (c *testCtx) PipeOp(p *model.Pipeline, stage int, op pipeline.Op) error {
	c.pipeOps = append(c.pipeOps, p.Name+"/"+op.String())
	return nil
}
func (c *testCtx) Print(s string) { c.prints = append(c.prints, s) }

func (c *testCtx) CallOp(op *model.Operation) error      { return nil }
func (c *testCtx) CallInstance(in *model.Instance) error { return nil }

func TestPrintAndPipeHooks(t *testing.T) {
	m, _, x := harness(t, `
RESOURCE { REGISTER int r0; PIPELINE p = { A; B }; }
OPERATION op { BEHAVIOR {
  r0 = 7;
  print("r0 is", r0);
  p.shift();
  p.A.stall();
} }`)
	ctx := &testCtx{}
	x.Ctx = ctx
	run(t, x, m, "op")
	if len(ctx.prints) != 1 || ctx.prints[0] != "r0 is 7" {
		t.Errorf("prints: %v", ctx.prints)
	}
	if len(ctx.pipeOps) != 2 || ctx.pipeOps[0] != "p/shift" || ctx.pipeOps[1] != "p/stall" {
		t.Errorf("pipeOps: %v", ctx.pipeOps)
	}
}

func TestEvalCondAndValue(t *testing.T) {
	m, s, x := harness(t, regsSrc+`
OPERATION op { BEHAVIOR { ; } }`)
	s.Write(m.Resource("r0"), bitvec.FromInt(3, 32))
	in := model.NewInstance(m.Ops["op"])
	d, perrs := parser.Parse(`OPERATION q { BEHAVIOR { x = r0 + 4; } }`, "e")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	// reuse the parsed expression r0 + 4
	_ = d
	cond, err := x.EvalValue(in, mustExpr(t, "r0 == 3"))
	if err != nil || !cond.Bool() {
		t.Errorf("EvalValue(r0 == 3): %v %v", cond, err)
	}
	v, err := x.EvalValue(in, mustExpr(t, "r0 * 10"))
	if err != nil || v.Int() != 30 {
		t.Errorf("EvalValue: %v %v", v, err)
	}
}

// mustExpr parses a single expression by wrapping it in a dummy operation.
func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	d, errs := parser.Parse("OPERATION w { BEHAVIOR { dummy = "+src+"; } }", "expr")
	if len(errs) > 0 {
		t.Fatalf("expr parse: %v", errs[0])
	}
	beh := d.Operations[0].Sections[0].(*ast.BehaviorSec)
	return beh.Body.Stmts[0].(*ast.AssignStmt).RHS
}
