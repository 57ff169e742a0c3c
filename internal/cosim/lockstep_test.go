package cosim

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

const lockstepProg = `
start:  LDI B1, 1
        LDI A1, 8
loop:   SUB A1, A1, B1
        BNZ A1, loop
        NOP
        NOP
        HALT
`

// lockstepPair builds a compiled CPU and an interpretive reference from
// the same simple16 program.
func lockstepPair(t *testing.T) (cpu, ref *sim.Simulator) {
	t.Helper()
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	cpu, _, err = m.AssembleAndLoad(lockstepProg, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err = m.AssembleAndLoad(lockstepProg, sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	return cpu, ref
}

// TestLockstepAgreement runs compiled vs interpretive to completion and
// expects no divergence: the two scheduling modes are architecturally
// identical.
func TestLockstepAgreement(t *testing.T) {
	cpu, ref := lockstepPair(t)
	k := New(cpu)
	ls := NewLockstep(cpu, ref)
	k.Attach(ls)
	if _, err := k.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !cpu.Halted() {
		t.Fatal("program did not halt")
	}
	if ls.Diverged {
		t.Fatalf("spurious divergence at cycle %d: %s", ls.Cycle, ls.Detail)
	}
	if !ref.Halted() {
		t.Error("reference did not track the CPU to the halt")
	}
}

// TestLockstepDetectsDivergence corrupts the reference state mid-run and
// expects the checker to latch the mismatch, note it in the flight ring
// and dump the ring.
func TestLockstepDetectsDivergence(t *testing.T) {
	cpu, ref := lockstepPair(t)
	flight := trace.NewFlight(32)
	cpu.SetObserver(flight)

	k := New(cpu)
	ls := NewLockstep(cpu, ref)
	ls.Flight = flight
	var dump strings.Builder
	ls.Out = &dump
	var cbCycle uint64
	calls := 0
	ls.OnDivergence = func(cycle uint64, detail string) { cbCycle, calls = cycle, calls+1 }
	k.Attach(ls)

	// A few clean cycles, then poke a register only in the reference.
	for i := 0; i < 4; i++ {
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if ls.Diverged {
		t.Fatalf("diverged before corruption: %s", ls.Detail)
	}
	if err := ref.SetScalar("accu", 0xdead); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(10_000); err != nil {
		t.Fatal(err)
	}

	if !ls.Diverged {
		t.Fatal("corrupted reference not detected")
	}
	if !strings.Contains(ls.Detail, "accu") {
		t.Errorf("detail %q does not name the diverging resource", ls.Detail)
	}
	if calls != 1 || cbCycle != ls.Cycle {
		t.Errorf("OnDivergence calls=%d cycle=%d, want 1 call at cycle %d", calls, cbCycle, ls.Cycle)
	}
	out := dump.String()
	if !strings.Contains(out, "cosim divergence at cycle") || !strings.Contains(out, "flight recorder") {
		t.Errorf("divergence dump missing header or ring:\n%s", out)
	}
	if !strings.Contains(out, "DIVERGE") {
		t.Errorf("flight ring dump has no DIVERGE event:\n%s", out)
	}
}

// TestLockstepStructuredLog wires a slog logger into the checker and
// expects the divergence as one structured record (cycle + detail attrs)
// while the free-text one-liner is suppressed on Out; the ring dump still
// lands there.
func TestLockstepStructuredLog(t *testing.T) {
	cpu, ref := lockstepPair(t)
	flight := trace.NewFlight(32)
	cpu.SetObserver(flight)

	k := New(cpu)
	ls := NewLockstep(cpu, ref)
	ls.Flight = flight
	var logBuf, dump strings.Builder
	ls.Log = slog.New(slog.NewJSONHandler(&logBuf, nil))
	ls.Out = &dump
	k.Attach(ls)

	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetScalar("accu", 0xdead); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !ls.Diverged {
		t.Fatal("corrupted reference not detected")
	}

	var rec struct {
		Level  string `json:"level"`
		Msg    string `json:"msg"`
		Cycle  uint64 `json:"cycle"`
		Detail string `json:"detail"`
	}
	if err := json.Unmarshal([]byte(logBuf.String()), &rec); err != nil {
		t.Fatalf("log output is not one JSON record: %v:\n%s", err, logBuf.String())
	}
	if rec.Level != "ERROR" || rec.Msg != "cosim divergence" || rec.Cycle != ls.Cycle || !strings.Contains(rec.Detail, "accu") {
		t.Errorf("structured record = %+v, want ERROR cosim divergence at cycle %d", rec, ls.Cycle)
	}
	out := dump.String()
	if strings.Contains(out, "cosim divergence at cycle") {
		t.Errorf("free-text one-liner still emitted alongside the structured log:\n%s", out)
	}
	if !strings.Contains(out, "flight recorder") {
		t.Errorf("ring dump missing from Out:\n%s", out)
	}
}

// TestLockstepDivergenceWindow attaches recorders to both simulators and
// expects the divergence report to include the last pre-divergence cycles
// from each recording, plus a divergence note inside the recordings
// themselves.
func TestLockstepDivergenceWindow(t *testing.T) {
	cpu, ref := lockstepPair(t)
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	var cpuBuf, refBuf bytes.Buffer
	cpuRec := replay.NewRecorder(cpu, m.Source, &cpuBuf, replay.Options{Every: 16})
	refRec := replay.NewRecorder(ref, m.Source, &refBuf, replay.Options{Every: 16})
	cpu.SetObserver(cpuRec)
	ref.SetObserver(refRec)

	k := New(cpu)
	ls := NewLockstep(cpu, ref)
	ls.CPURec, ls.RefRec, ls.WindowCycles = cpuRec, refRec, 4
	var dump strings.Builder
	ls.Out = &dump
	k.Attach(ls)

	for i := 0; i < 6; i++ {
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.SetScalar("accu", 0xdead); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !ls.Diverged {
		t.Fatal("corrupted reference not detected")
	}

	out := dump.String()
	for _, want := range []string{"cpu recording, cycles", "ref recording, cycles", "exec"} {
		if !strings.Contains(out, want) {
			t.Errorf("divergence report missing %q:\n%s", want, out)
		}
	}

	// Both recordings carry the divergence note for post-mortem replay.
	for name, rec := range map[string]*replay.Recorder{"cpu": cpuRec, "ref": refRec} {
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, buf := range map[string]*bytes.Buffer{"cpu": &cpuBuf, "ref": &refBuf} {
		recd, err := replay.Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("%s recording does not parse: %v", name, err)
		}
		evs := recd.EventsInRange(0, recd.FinalStep+1)
		found := false
		for _, e := range evs {
			if e.Event.Kind == trace.KindDiverge && strings.Contains(e.Note, "cosim divergence") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s recording has no divergence note", name)
		}
	}
}
