package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The simulator exits through cli.Fail/cli.Usage, so the tests re-exec
// the test binary as the tool: with LISA_SIM_TOOL=1 in the environment,
// TestMain runs main() on the real command line instead of the test
// suite.
func TestMain(m *testing.M) {
	if os.Getenv("LISA_SIM_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTool re-execs this binary as lisa-sim with the given arguments.
func runTool(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LISA_SIM_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running tool: %v", err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestRegsDumpsBankedMemory dumps simd16's banked vector register file
// (8 banks of 4 lanes) after a program that broadcasts 3 into V0, loads
// it back into V1 and V2 and adds them into V3: every bank is read
// through its own bank, one "vreg[b][i] = v" line per element.
func TestRegsDumpsBankedMemory(t *testing.T) {
	out, stderr, code := runTool(t, "-model", "simd16", "-mode", "prebound", "-regs", "vreg",
		"../../internal/replay/testdata/simd16vec.s")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "vreg[") {
			got = append(got, line)
		}
	}
	if len(got) != 32 {
		t.Fatalf("%d vreg element lines, want 32:\n%s", len(got), out)
	}
	for b := 0; b < 8; b++ {
		want := 0
		switch {
		case b < 3:
			want = 3
		case b == 3:
			want = 6
		}
		for i := 0; i < 4; i++ {
			if line, exp := got[4*b+i], fmt.Sprintf("vreg[%d][%d] = %d", b, i, want); line != exp {
				t.Errorf("line %d = %q, want %q", 4*b+i, line, exp)
			}
		}
	}
}

// TestModeAcceptsSummaryNames runs a program under the mode name that
// summaries, stream records and ledger engine keys carry.
func TestModeAcceptsSummaryNames(t *testing.T) {
	out, stderr, code := runTool(t, "-mode", "compiled+prebound", "../../examples/fir/prog/fir.s")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "(compiled+prebound mode), halted=true") {
		t.Errorf("run summary missing the mode:\n%s", out)
	}
}
