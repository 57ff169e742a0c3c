package gosim

import (
	"cmp"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/cosim"
	"golisa/internal/model"
	"golisa/internal/sim"
)

// progLoop is the branchy simple16 kernel the cosim suite uses: a counted
// loop with branch delay slots.
const progLoop = `
start:  LDI B1, 1
        LDI A1, 8
loop:   SUB A1, A1, B1
        BNZ A1, loop
        NOP
        NOP
        HALT
        NOP
        NOP
`

// progOps walks the whole simple16 ISA: ALU ops, the 40-bit MAC path,
// saturation, loads/stores with their delay slots, and a taken branch.
const progOps = `
start:  LDI A1, 5
        LDI A2, 7
        LDI B3, -3
        ADD A3, A1, A2
        SUB A4, A3, B3
        AND A5, A1, A3
        OR  A6, A1, A2
        XOR A7, A3, A4
        MPY B1, A1, A2
        CLRACC
        MAC A1, A2
        MAC A3, A4
        SAT B2
        LDI A8, 100
        ST  A3, A8, 0
        ST  A4, A8, 1
        LD  B4, A8, 0
        NOP
        LD  B5, A8, 1
        B   end
        NOP
        NOP
        ADD A1, A1, A1
end:    HALT
        NOP
        NOP
`

// opsModel is an unpipelined machine whose instructions stress the
// semantic corners the emitter must get right: signed/unsigned division
// and remainder, shift-count masking, mixed-signedness compares, alias
// slices, saturation, and print formatting.
const opsModel = `
RESOURCE {
  PROGRAM_COUNTER int pc;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int r0;
  REGISTER int r1;
  REGISTER int r2;
  REGISTER bit[8] small;
  REGISTER bit[40] wide;
  REGISTER bit[32] wide_hi ALIAS wide[39..8];
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] prog_mem[0x100];
  DATA_MEMORY int data_mem[0x40];
}

OPERATION reset {
  BEHAVIOR { pc = 0; halt = 0; }
}

OPERATION main {
  BEHAVIOR { }
  ACTIVATION { if (!halt) { fetch } }
}

OPERATION fetch {
  BEHAVIOR {
    ir = prog_mem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE {
    GROUP Instruction = {
      i_imm; i_arith; i_shift; i_cmp; i_mem; i_sat; i_bits; i_print; i_halt
    };
  }
  CODING { ir == Instruction }
  ACTIVATION { Instruction }
}

OPERATION i_imm {
  DECLARE { LABEL imm; }
  CODING { 0b0001 imm:0bx[12] }
  SYNTAX { "IMM " imm:#u }
  BEHAVIOR {
    r0 = sign_extend(imm, 12);
    small = imm;
    wide = wide + imm;
  }
}

OPERATION i_arith {
  CODING { 0b0010 0bx[12] }
  SYNTAX { "ARITH" }
  BEHAVIOR {
    r1 = r0 * 3 - 7;
    r2 = r1 / (r0 + 1);
    long p = r1;
    p = p * r0;
    wide = p;
    r2 = r2 % 5;
  }
}

OPERATION i_shift {
  CODING { 0b0011 0bx[12] }
  SYNTAX { "SHIFT" }
  BEHAVIOR {
    r1 = r0 << 3;
    r2 = r0 >> 2;
    small = small >> 1;
    unsigned u = r0;
    r1 = r1 ^ (u >> 2);
    r2 = r2 + (r0 << 35);
  }
}

OPERATION i_cmp {
  CODING { 0b0100 0bx[12] }
  SYNTAX { "CMP" }
  BEHAVIOR {
    unsigned a = small;
    r1 = (r0 < 5) + (small > 100) * 2 + (r0 == r2) * 4 + ((a >= 100) << 3);
    r2 = min(r0, r1) + max(r0, r1) + abs(r0 - 9);
    r1 = r0 ? r1 : ~r2;
  }
}

OPERATION i_mem {
  DECLARE { LABEL off; }
  CODING { 0b0101 off:0bx[12] }
  SYNTAX { "MEM " off:#u }
  BEHAVIOR {
    data_mem[off] = r0 + off;
    r1 = data_mem[off] * 2;
    data_mem[r1] = r1;
  }
}

OPERATION i_sat {
  CODING { 0b0110 0bx[12] }
  SYNTAX { "SATB" }
  BEHAVIOR {
    r1 = saturate(wide, 32);
    r2 = addsat(r0, r1);
    r0 = subsat(r2, 12345);
    wide_hi = r1;
  }
}

OPERATION i_bits {
  CODING { 0b0111 0bx[12] }
  SYNTAX { "BITS" }
  BEHAVIOR {
    r1 = bits(wide, 19, 4);
    r2 = wide[7..0] + zero_extend(r0, 8);
    wide[23..16] = r0;
  }
}

OPERATION i_print {
  CODING { 0b1000 0bx[12] }
  SYNTAX { "PRT" }
  BEHAVIOR {
    print("state", r0, small, wide);
  }
}

OPERATION i_halt {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

const opsProg = `
        IMM 100
        ARITH
        SHIFT
        CMP
        MEM 7
        SATB
        BITS
        PRT
        IMM 4000
        ARITH
        CMP
        SATB
        MEM 19
        BITS
        PRT
        HALT
`

// schedModel pins the order of the schedule: main's two conditional
// items, the first of which writes what the second's condition reads;
// the instruction a word names in the dispatch cycle (unassigned) or in
// DC, EX and WB; and a write-back operation the decode ACTIVATION names
// beside it. Every handler folds its own id into trail (x -> 3x + id), so
// any two handlers of one cycle that ran in the other order would leave
// another trail.
const schedModel = `
RESOURCE {
  PROGRAM_COUNTER int pc;
  CONTROL_REGISTER bit[16] ir;
  REGISTER bit[32] trail;
  REGISTER int acc;
  REGISTER bit odd;
  REGISTER int ticks;
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] prog_mem[0x100];
  PIPELINE pipe = { FE; DC; EX; WB };
}

OPERATION reset {
  BEHAVIOR { pc = 0; halt = 0; trail = 1; }
}

OPERATION main {
  ACTIVATION {
    if (!halt) { fetch },
    if (odd) { tick },
    pipe.shift()
  }
}

OPERATION fetch IN pipe.FE {
  BEHAVIOR {
    ir = prog_mem[pc];
    pc = pc + 1;
    odd = !odd;
    decode();
  }
}

OPERATION tick {
  BEHAVIOR { ticks = ticks + 1; trail = trail * 3 + 1; }
}

OPERATION decode {
  DECLARE { GROUP Instruction = { i_now; i_dc; i_ex; i_wb; i_halt }; }
  CODING { ir == Instruction }
  ACTIVATION { Instruction, retire }
}

OPERATION retire IN pipe.WB {
  BEHAVIOR { trail = trail * 3 + 2; }
}

OPERATION i_now {
  DECLARE { LABEL k; }
  CODING { 0b0001 k:0bx[12] }
  SYNTAX { "NOW " k:#u }
  BEHAVIOR { acc = acc * 5 + k; trail = trail * 3 + 3; }
}

OPERATION i_dc IN pipe.DC {
  DECLARE { LABEL k; }
  CODING { 0b0010 k:0bx[12] }
  SYNTAX { "DC " k:#u }
  BEHAVIOR { acc = acc * 5 + k; trail = trail * 3 + 4; }
}

OPERATION i_ex IN pipe.EX {
  DECLARE { LABEL k; }
  CODING { 0b0011 k:0bx[12] }
  SYNTAX { "EX " k:#u }
  BEHAVIOR { acc = acc * 5 + k; trail = trail * 3 + 5; }
}

OPERATION i_wb IN pipe.WB {
  DECLARE { LABEL k; }
  CODING { 0b0100 k:0bx[12] }
  SYNTAX { "WB " k:#u }
  BEHAVIOR { acc = acc * 5 + k; trail = trail * 3 + 6; print("wb", k, acc, trail); }
}

OPERATION i_halt {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

// schedProg runs words whose stage work meets in one cycle and writes acc
// and trail: a WB word and the EX word right after it (both three cycles
// after the WB word's dispatch), a WB word and the DC word two words
// later, and NOW words beside the EX and WB work of older words.
const schedProg = `
        DC 1
        WB 2
        EX 3
        NOW 4
        WB 5
        NOW 6
        DC 7
        EX 8
        WB 9
        EX 10
        NOW 11
        NOW 12
        NOW 13
        NOW 14
        HALT
`

// schedNop is schedModel with an instruction for the all-zeros word, so
// that a fetch from unloaded program memory dispatches a NOP.
var schedNop = strings.Replace(schedModel, "i_wb; i_halt }", "i_wb; i_halt; i_nop }", 1) + `
OPERATION i_nop {
  CODING { 0b0000 0bx[12] }
  SYNTAX { "NOP" }
  BEHAVIOR { }
}
`

// dispatchCases drive the runner's dispatch by program address through
// its edges; the IR interpreter dispatches every word through the
// decode table.
var dispatchCases = []struct {
	label, model, lisa, prog string
	edit                     func(*asm.Program) // applied to the assembled image
	max                      uint64             // 0: 10,000 steps
	wantErr                  string             // part of the error both backends must stop with
	lockstep                 bool               // the interpretive engine runs it too
}{
	// A LATCH dispatch register: each fetched word dispatches a cycle
	// late, and the dispatch before the first commit reads the reset
	// value 0, not the word at address 0.
	{label: "latch-ir", model: "schedtest", lisa: strings.Replace(schedNop, "bit[16] ir;", "bit[16] ir LATCH;", 1), prog: schedProg, lockstep: true},
	// Program memory at 0x100..0x1ff.
	{label: "based", model: "schedtest",
		lisa: strings.NewReplacer("prog_mem[0x100]", "prog_mem[0x100..0x1ff]", "pc = 0;", "pc = 0x100;").Replace(schedModel),
		prog: ".org 0x100\n" + schedProg, lockstep: true},
	// An 8-bit dispatch register over 16-bit program words with their
	// high bytes set: a word dispatches by its low byte.
	{label: "narrow-ir", model: "schedtest",
		lisa: strings.NewReplacer("bit[16] ir;", "bit[8] ir;", "0bx[12]", "0bx[4]").Replace(schedModel),
		prog: schedProg,
		edit: func(p *asm.Program) {
			p.Width = 16
			for i := range p.Words {
				p.Words[i] |= uint64(0x5a00 + i<<8)
			}
		}, lockstep: true},
	// Off the end of the image, memory holds zero words: NOPs.
	{label: "past-image", model: "simple16", prog: "LDI A1, 5\nADD A2, A1, A1\n", max: 64, lockstep: true},
	// An undecodable word inside the image.
	{label: "undecodable", model: "simple16", prog: "NOP\n.word 0x84000000\nNOP\nNOP\nNOP\n", wantErr: "cycle 1: word 0x84000000 does not decode"},
	// A model that never dispatches: its runner has no address to record.
	{label: "no-root", model: "noroot", lisa: noRootModel, prog: "", lockstep: true},
	// A behavior reads the dispatch register, an 8-bit LATCH over 16-bit
	// words with their high bytes set: the read derives the committed
	// value from the address, fitted to the register.
	{label: "ir-read", model: "schedtest",
		lisa: strings.NewReplacer("bit[16] ir;", "bit[8] ir LATCH;", "0bx[12]", "0bx[4]", "trail = trail * 3 + 2;", "trail = trail * 3 + ir;").Replace(schedNop),
		prog: schedProg,
		edit: func(p *asm.Program) {
			p.Width = 16
			for i := range p.Words {
				p.Words[i] |= uint64(0x5a00 + i<<8)
			}
		}, lockstep: true},
	// The run halts before its first fetch: the result reads the dispatch
	// register as reset, 0, through the address below the image, which
	// lies inside program memory.
	{label: "reset-halt", model: "opstest", lisa: strings.Replace(opsModel, "halt = 0;", "halt = 1;", 1), prog: ".org 1\n" + opsProg, lockstep: true},
}

// TestImagePastProgramMemory: an image that runs past the end of program
// memory is refused with the same error by gosim's Compile as by the
// simulator's LoadProgram, before either writes or compiles anything.
func TestImagePastProgramMemory(t *testing.T) {
	mc, err := core.LoadMachine("schedtest", schedNop)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble(schedProg)
	if err != nil {
		t.Fatal(err)
	}
	// The image's last eleven words lie past the memory's 0x100 words.
	prog.Origin = 0xfc
	const want = "prog_mem: address 0x100 out of range (size 0x100, base 0x0)"
	if _, err := Compile(mc, prog); err == nil || err.Error() != want {
		t.Fatalf("Compile: error %v, want %q", err, want)
	} else if errors.Is(err, ErrUnsupported) {
		t.Fatal("Compile's refusal wraps ErrUnsupported: the image is wrong, not the engine")
	}
	s, err := mc.NewSimulator(sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram("prog_mem", prog.Origin, prog.Words); err == nil || err.Error() != want {
		t.Fatalf("LoadProgram: error %v, want %q", err, want)
	}
	for i, v := range s.S.Arrays[mc.Model.Resource("prog_mem").Slot] {
		if v.Uint() != 0 {
			t.Fatalf("LoadProgram wrote prog_mem[%d] before refusing", i)
		}
	}
}

// noRootModel counts to five and halts without fetching a word.
const noRootModel = `
RESOURCE {
  PROGRAM_COUNTER int pc;
  REGISTER int acc;
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] prog_mem[0x10];
}

OPERATION reset {
  BEHAVIOR { pc = 0; halt = 0; }
}

OPERATION main {
  BEHAVIOR { acc = acc + 1; if (acc == 5) { halt = 1; } }
}
`

// loadPair compiles src for the model (builtin name, or inline LISA when
// lisaSrc is non-empty) into a gosim Program plus the pieces the tests
// wire against.
func loadPair(t testing.TB, name, lisaSrc, progSrc string) (*core.Machine, *asm.Program, *Program) {
	t.Helper()
	return loadEdited(t, name, lisaSrc, progSrc, nil)
}

// loadEdited is loadPair with the assembled program passed through edit,
// when non-nil, before it compiles: the way to build an image the
// assembler refuses. An empty progSrc is an empty image, which a model
// without instructions, and so without an assembler, can run.
func loadEdited(t testing.TB, name, lisaSrc, progSrc string, edit func(*asm.Program)) (*core.Machine, *asm.Program, *Program) {
	t.Helper()
	var mc *core.Machine
	var err error
	if lisaSrc != "" {
		mc, err = core.LoadMachine(name, lisaSrc)
	} else {
		mc, err = core.LoadBuiltin(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	prog := &asm.Program{}
	if progSrc != "" {
		a, err := mc.NewAssembler()
		if err != nil {
			t.Fatal(err)
		}
		if prog, err = a.Assemble(progSrc); err != nil {
			t.Fatal(err)
		}
	}
	if edit != nil {
		edit(prog)
	}
	p, err := Compile(mc, prog)
	if err != nil {
		t.Fatalf("gosim.Compile: %v", err)
	}
	return mc, prog, p
}

// refSim builds the interpretive reference simulator with the program
// loaded — the engine every gosim backend is measured against.
func refSim(t *testing.T, mc *core.Machine, prog *asm.Program) *sim.Simulator {
	t.Helper()
	s, err := mc.NewSimulator(sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mc.ProgramMemory()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertState compares a gosim state snapshot against the interpretive
// simulator's, slot by slot, failing on the first differing resource.
func assertState(t *testing.T, p *Program, sc []uint64, arr [][]uint64, ref *sim.Simulator, cycle uint64) {
	t.Helper()
	for i, r := range p.scalars {
		if r == nil {
			continue
		}
		if got, want := sc[i], ref.S.Scalars[i].Uint(); got != want {
			t.Fatalf("cycle %d: scalar %s: generated %#x, interpretive %#x", cycle, r.Name, got, want)
		}
	}
	for i, r := range p.arrays {
		if r == nil {
			continue
		}
		for j := range arr[i] {
			if got, want := arr[i][j], ref.S.Arrays[i][j].Uint(); got != want {
				t.Fatalf("cycle %d: %s[%d]: generated %#x, interpretive %#x", cycle, r.Name, j, got, want)
			}
		}
	}
}

// lockstepIR steps the IR machine and the interpretive simulator together
// and demands byte-identical architectural state after every control step.
func lockstepIR(t *testing.T, name, lisaSrc, progSrc string) {
	t.Helper()
	mc, prog, p := loadPair(t, name, lisaSrc, progSrc)
	ref := refSim(t, mc, prog)
	var refPrints, irPrints []string
	ref.OnPrint = func(s string) { refPrints = append(refPrints, s) }
	m := p.NewMachine()
	m.OnPrint = func(s string) { irPrints = append(irPrints, s) }
	for step := 0; step < 10_000; step++ {
		if m.Halted() != ref.Halted() {
			t.Fatalf("cycle %d: halted: generated %v, interpretive %v", m.Cycles(), m.Halted(), ref.Halted())
		}
		if m.Halted() {
			break
		}
		if err := ref.RunStep(); err != nil {
			t.Fatalf("interpretive step: %v", err)
		}
		m.Step()
		if err := m.Err(); err != nil {
			t.Fatalf("generated step: %v", err)
		}
		assertState(t, p, m.Scalars(), m.Arrays(), ref, m.Cycles())
	}
	if !m.Halted() {
		t.Fatal("program did not halt")
	}
	if strings.Join(refPrints, "\n") != strings.Join(irPrints, "\n") {
		t.Fatalf("print divergence:\ninterpretive: %q\ngenerated:    %q", refPrints, irPrints)
	}
}

func TestIRLockstepSimple16Loop(t *testing.T) { lockstepIR(t, "simple16", "", progLoop) }
func TestIRLockstepSimple16Ops(t *testing.T)  { lockstepIR(t, "simple16", "", progOps) }
func TestIRLockstepOpsModel(t *testing.T)     { lockstepIR(t, "opstest", opsModel, opsProg) }
func TestIRLockstepSchedule(t *testing.T)     { lockstepIR(t, "schedtest", schedModel, schedProg) }

// TestCompileUnsupportedModels pins the supported-class boundary, which
// is per (model, program): the multi-pipeline c62x refuses structurally
// before looking at any program; simd16 refuses only when the program
// actually reaches its loop-bodied vector instructions.
func TestCompileUnsupportedModels(t *testing.T) {
	mc, err := core.LoadBuiltin("c62x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compile(mc, &asm.Program{Words: []uint64{0}, Width: 32}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("c62x: error %v does not wrap ErrUnsupported", err)
	}

	mc, err = core.LoadBuiltin("simd16")
	if err != nil {
		t.Fatal(err)
	}
	a, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble("LDI R1, 100\nNOP\nVADD V2, V0, V1\nHALT\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compile(mc, prog); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("simd16 vector program: error %v does not wrap ErrUnsupported", err)
	}
}

// snap is one per-cycle state snapshot collected through OnCycleState.
type snap struct {
	n   uint64
	sc  []uint64
	arr [][]uint64
}

func collector(dst *[]snap) func(uint64, []uint64, [][]uint64) {
	return func(n uint64, sc []uint64, arr [][]uint64) {
		cp := snap{n: n, sc: append([]uint64(nil), sc...)}
		for _, a := range arr {
			cp.arr = append(cp.arr, append([]uint64(nil), a...))
		}
		*dst = append(*dst, cp)
	}
}

func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
}

// logged makes o record the run's prints and steps, in the order the
// run reports them, into events, and its per-cycle states into snaps.
func logged(o Options, snaps *[]snap, events *[]string) Options {
	collect := collector(snaps)
	o.OnPrint = func(s string) { *events = append(*events, "print "+strconv.Quote(s)) }
	o.OnCycleState = func(n uint64, sc []uint64, arr [][]uint64) {
		collect(n, sc, arr)
		*events = append(*events, fmt.Sprint("step ", n))
	}
	return o
}

// TestNativeMatchesIR builds the real runner and demands that the native
// subprocess reports the identical per-cycle state stream, prints, and
// final result as the in-process IR interpreter, and reports each print
// byte for byte within the step that made it. Each case also runs
// untraced on both backends, which takes the runner's step loop through
// one call to each of its exits: halt, the step limit and a run error.
func TestNativeMatchesIR(t *testing.T) {
	needGo(t)
	type nativeCase struct {
		name, lisa, prog string
		label            string // the subtest's name, if not name
		edit             func(*asm.Program)
		max              uint64
		wantErr          string
	}
	cases := []nativeCase{
		{name: "simple16", prog: progOps},
		{name: "opstest", lisa: opsModel, prog: opsProg},
		{name: "opstest-bytes", lisa: strings.Replace(opsModel, `"state"`, "\"caf\xe9\"", 1), prog: opsProg},
		// A 64-bit signed right shift of a negative value fills with ones.
		{name: "opstest-long-shift", lisa: strings.Replace(opsModel, "    wide = p;\n", "    p = p - 1000000;\n    wide = p >> 30;\n", 1), prog: opsProg},
		// A reset behavior's print reaches no one: it runs before the run.
		{name: "opstest-reset-print", lisa: strings.Replace(opsModel, "pc = 0; halt = 0;", `pc = 0; halt = 0; print("boot");`, 1), prog: opsProg},
		{name: "schedtest", lisa: schedModel, prog: schedProg},
	}
	for _, dc := range dispatchCases {
		cases = append(cases, nativeCase{dc.model, dc.lisa, dc.prog, dc.label, dc.edit, dc.max, dc.wantErr})
	}
	cache := NewCache(t.TempDir())
	defer cache.Close()
	for _, tc := range cases {
		t.Run(cmp.Or(tc.label, tc.name), func(t *testing.T) {
			_, _, p := loadEdited(t, tc.name, tc.lisa, tc.prog, tc.edit)
			max := cmp.Or(tc.max, 10_000)
			var irSnaps, natSnaps []snap
			var irEvents, natEvents []string
			ir, irErr := NewEngine(p, nil, logged(Options{Backend: ForceIR}, &irSnaps, &irEvents)).Run(max)
			nat, natErr := NewEngine(p, cache, logged(Options{Backend: ForceNative}, &natSnaps, &natEvents)).Run(max)
			// The host names the runner as the source of a simulation error.
			if a, b := fmt.Sprint(irErr), strings.TrimPrefix(fmt.Sprint(natErr), "gosim: runner: "); a != b {
				t.Fatalf("error divergence:\nIR:     %s\nnative: %s", a, b)
			}
			if tc.wantErr == "" && irErr != nil {
				t.Fatalf("run: %v", irErr)
			}
			if tc.wantErr != "" && (irErr == nil || !strings.Contains(irErr.Error(), tc.wantErr)) {
				t.Fatalf("run error %v, want one containing %q", irErr, tc.wantErr)
			}
			if !nat.Native {
				t.Fatal("native run did not report Native")
			}
			if ir.Steps != nat.Steps || ir.Halted != nat.Halted {
				t.Fatalf("result divergence: IR (%d, %v), native (%d, %v)", ir.Steps, ir.Halted, nat.Steps, nat.Halted)
			}
			if strings.Join(ir.Prints, "\n") != strings.Join(nat.Prints, "\n") {
				t.Fatalf("print divergence:\nIR:     %q\nnative: %q", ir.Prints, nat.Prints)
			}
			if len(irSnaps) != len(natSnaps) {
				t.Fatalf("trace length: IR %d cycles, native %d", len(irSnaps), len(natSnaps))
			}
			for i := range irSnaps {
				if fmt.Sprint(irSnaps[i]) != fmt.Sprint(natSnaps[i]) {
					t.Fatalf("state divergence at trace entry %d:\nIR:     %+v\nnative: %+v", i, irSnaps[i], natSnaps[i])
				}
			}
			if fmt.Sprint(ir.Scalars) != fmt.Sprint(nat.Scalars) || fmt.Sprint(ir.Arrays) != fmt.Sprint(nat.Arrays) {
				t.Fatal("final state divergence between IR and native runs")
			}
			if a, b := strings.Join(irEvents, "\n"), strings.Join(natEvents, "\n"); a != b {
				t.Fatalf("event order divergence:\nIR:\n%s\nnative:\n%s", a, b)
			}
			ir, irErr = NewEngine(p, nil, Options{Backend: ForceIR}).Run(max)
			nat, natErr = NewEngine(p, cache, Options{Backend: ForceNative}).Run(max)
			sameRun(t, "untraced", ir, nat, irErr, natErr)
		})
	}
}

// TestRunnerMasksOnce checks that an emitted runner masks a stored value
// only where it can exceed its target's width: no line ends in a mask of
// an expression that is already masked.
func TestRunnerMasksOnce(t *testing.T) {
	doubled := regexp.MustCompile(`&\s*0x[0-9a-f]+\)\s*&\s*0x[0-9a-f]+(, true)?$`)
	for _, tc := range []struct{ name, lisa, prog string }{
		{"simple16", "", progOps},
		{"opstest", opsModel, opsProg},
		{"schedtest", schedModel, schedProg},
	} {
		_, _, p := loadPair(t, tc.name, tc.lisa, tc.prog)
		src, err := p.EmitSource()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if doubled.MatchString(line) {
				t.Errorf("%s runner line %d masks twice: %s", tc.name, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestLockstepNativeVsInterpretive is the ISSUE's acceptance check run
// through the cosim machinery: the built runner's per-cycle state stream
// drives a cosim.Lockstep against a live interpretive reference, and the
// two must agree at every retired control step.
func TestLockstepNativeVsInterpretive(t *testing.T) {
	needGo(t)
	cache := NewCache(t.TempDir())
	defer cache.Close()
	type lockCase struct {
		label, model, lisa, prog string
		edit                     func(*asm.Program)
		max                      uint64
	}
	cases := []lockCase{
		{"simple16-loop", "simple16", "", progLoop, nil, 0},
		{"simple16-ops", "simple16", "", progOps, nil, 0},
		{"opstest", "opstest", opsModel, opsProg, nil, 0},
		{"schedtest", "schedtest", schedModel, schedProg, nil, 0},
	}
	for _, dc := range dispatchCases {
		if dc.lockstep {
			cases = append(cases, lockCase{dc.label, dc.model, dc.lisa, dc.prog, dc.edit, dc.max})
		}
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			mc, prog, p := loadEdited(t, tc.model, tc.lisa, tc.prog, tc.edit)
			max := cmp.Or(tc.max, 10_000)
			ref := refSim(t, mc, prog)
			var cur snap
			ls := cosim.NewLockstepState(func() *model.State {
				return p.StateFrom(cur.sc, cur.arr)
			}, ref)
			res, err := NewEngine(p, cache, Options{
				Backend: ForceNative,
				OnCycleState: func(n uint64, sc []uint64, arr [][]uint64) {
					cur = snap{n: n, sc: sc, arr: arr}
					ls.Tick(n)
				},
			}).Run(max)
			if err != nil {
				t.Fatal(err)
			}
			if ls.Diverged {
				t.Fatalf("lockstep divergence at cycle %d: %s", ls.Cycle, ls.Detail)
			}
			// A case with a step limit of its own runs to it.
			if res.Halted != ref.Halted() || res.Halted != (tc.max == 0) {
				t.Fatalf("halt disagreement: native %v, interpretive %v", res.Halted, ref.Halted())
			}
		})
	}
}

// TestCacheBuildsOnce pins the content-addressed contract: one build per
// model per cache directory, ever.
func TestCacheBuildsOnce(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progLoop)
	dir := t.TempDir()
	c := NewCache(dir)
	defer c.Close()
	eng := NewEngine(p, c, Options{Backend: ForceNative})
	r1, err := eng.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("builds after first run: %d, want 1", got)
	}
	r2, err := eng.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("builds after second run: %d, want 1", got)
	}
	// A fresh Cache over the same directory models a new process: the
	// on-disk binary must satisfy it without any build.
	c2 := NewCache(dir)
	defer c2.Close()
	r3, err := NewEngine(p, c2, Options{Backend: ForceNative}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || c2.Builds() != 0 {
		t.Fatalf("fresh cache over warm dir: hit=%v builds=%d, want hit and 0 builds", r3.CacheHit, c2.Builds())
	}
	if r1.Steps != r2.Steps || r2.Steps != r3.Steps {
		t.Fatalf("cached runs disagree on steps: %d %d %d", r1.Steps, r2.Steps, r3.Steps)
	}
}

// TestAutoFallsBackWithoutToolchain hides the Go toolchain and expects an
// Auto engine to degrade to the IR interpreter, recording why.
func TestAutoFallsBackWithoutToolchain(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", progOps)
	t.Setenv("PATH", t.TempDir())
	res, err := NewEngine(p, NewCache(t.TempDir()), Options{}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Native {
		t.Fatal("run claims native without a toolchain")
	}
	if !strings.Contains(res.Fallback, "go toolchain") {
		t.Fatalf("fallback reason %q does not name the toolchain", res.Fallback)
	}
	if !res.Halted {
		t.Fatal("IR fallback did not finish the program")
	}
}

// TestAutoShortProgramUsesIR: programs below the build threshold are not
// worth a `go build`; Auto must run them in-process.
func TestAutoShortProgramUsesIR(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", "HALT\nNOP\nNOP\n")
	res, err := NewEngine(p, NewCache(t.TempDir()), Options{}).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Native {
		t.Fatal("short program ran natively")
	}
	if !strings.Contains(res.Fallback, "threshold") {
		t.Fatalf("fallback reason %q does not mention the build threshold", res.Fallback)
	}
	if !res.Halted {
		t.Fatal("short program did not halt")
	}
}

// TestIRDispatchUnknownWord steers the machine into a data word that no
// coding matches and expects the defined dispatch error, not silence.
func TestIRDispatchUnknownWord(t *testing.T) {
	// Opcode 0b100001 is unassigned in simple16.
	_, _, p := loadPair(t, "simple16", "", "NOP\n.word 0x84000000\nNOP\nNOP\nNOP\n")
	m := p.NewMachine()
	_, err := m.Run(100)
	if err == nil {
		t.Fatal("run over an undecodable word succeeded")
	}
	if !strings.Contains(err.Error(), "0x84000000") && !strings.Contains(err.Error(), "does not decode") && !strings.Contains(err.Error(), "unknown word") {
		t.Fatalf("unexpected dispatch error: %v", err)
	}
}
