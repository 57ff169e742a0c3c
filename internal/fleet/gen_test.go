package fleet

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/sim"
)

// genProgram mints a distinct simple16 program per seed — distinct in its
// assembled words, not just its text, so that every seed is a new program
// for the model's one runner.
func genProgram(seed int) string {
	return fmt.Sprintf("LDI A1, %d\nLDI A2, 2\nADD A3, A1, A2\nNOP\nHALT\n", seed+1)
}

// TestFleetGeneratedBuildsOncePerProgram runs a generated-mode batch of
// many jobs over few distinct programs across a worker pool and asserts
// the cache built the model's one runner exactly once, whatever the
// number of programs — the counter is the proof, and the -race runs in CI
// make the once-per-key discipline a data-race check too.
func TestFleetGeneratedBuildsOncePerProgram(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	mc, _ := loadFIR(t)
	const distinct = 3
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("job%d", i), Source: genProgram(i % distinct)})
	}
	sum, err := Run(mc, sim.Generated, jobs, Options{Workers: 8, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if sum.RunnerBuilds != 1 {
		t.Errorf("RunnerBuilds = %d, want exactly 1 (one per model)", sum.RunnerBuilds)
	}
	if sum.GenNative != len(jobs) || sum.GenFallback != 0 {
		t.Errorf("GenNative = %d, GenFallback = %d, want %d native and 0 fallbacks",
			sum.GenNative, sum.GenFallback, len(jobs))
	}
	for _, r := range sum.Results {
		if !r.Halted || r.Err != "" {
			t.Errorf("job %s: halted=%v err=%q", r.Name, r.Halted, r.Err)
		}
		if !r.GenNative {
			t.Errorf("job %s ran on the IR fallback: %s", r.Name, r.GenFallback)
		}
	}
}

// TestFleetGeneratedFallbackWithoutToolchain empties PATH so `go` cannot
// be found: every generated-mode job must complete on the in-process IR
// interpreter (correct results, a recorded fallback reason) with zero
// runner builds — the generated tier degrades, it never fails the batch.
func TestFleetGeneratedFallbackWithoutToolchain(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	mc, _ := loadFIR(t)
	jobs := []Job{
		{Name: "a", Source: genProgram(0)},
		{Name: "b", Source: genProgram(1)},
	}
	sum, err := Run(mc, sim.Generated, jobs, Options{Workers: 2, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if sum.RunnerBuilds != 0 {
		t.Errorf("RunnerBuilds = %d, want 0 without a toolchain", sum.RunnerBuilds)
	}
	if sum.GenNative != 0 || sum.GenFallback != len(jobs) {
		t.Errorf("GenNative = %d, GenFallback = %d, want 0 native and %d fallbacks",
			sum.GenNative, sum.GenFallback, len(jobs))
	}
	for _, r := range sum.Results {
		if !r.Halted || r.Err != "" {
			t.Errorf("job %s: halted=%v err=%q", r.Name, r.Halted, r.Err)
		}
		if r.GenFallback == "" {
			t.Errorf("job %s: no fallback reason recorded", r.Name)
		}
	}
}

// TestFleetGeneratedMatchesClassic cross-checks the generated tier inside
// the fleet against the same batch on the classic prebound engine: same
// step counts per job, job for job.
func TestFleetGeneratedMatchesClassic(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "fir", Source: src},
		{Name: "p0", Source: genProgram(0)},
	}
	gen, err := Run(mc, sim.Generated, jobs, Options{Workers: 2, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Run(mc, sim.CompiledPrebound, jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Failed != 0 || classic.Failed != 0 {
		t.Fatalf("failed jobs: gen %+v classic %+v", gen.Results, classic.Results)
	}
	for i := range jobs {
		g, c := gen.Results[i], classic.Results[i]
		if g.Steps != c.Steps || g.Halted != c.Halted {
			t.Errorf("job %s: generated %d steps halted=%v, classic %d steps halted=%v",
				g.Name, g.Steps, g.Halted, c.Steps, c.Halted)
		}
	}
}

// TestFleetGeneratedWarmBatchBuildsNothing runs two batches of distinct
// programs over one cache directory: the first builds the model's runner
// once, the second finds it and builds nothing. No runner process may
// outlive either batch.
func TestFleetGeneratedWarmBatchBuildsNothing(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	if _, err := os.Stat("/proc/self/exe"); err != nil {
		t.Skip("no /proc to list runner processes")
	}
	mc, _ := loadFIR(t)
	dir := t.TempDir()
	for batch, wantBuilds := range []uint64{1, 0} {
		var jobs []Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, Job{Name: fmt.Sprintf("job%d", i), Source: genProgram(10*batch + i)})
		}
		sum, err := Run(mc, sim.Generated, jobs, Options{Workers: 3, GenCache: dir})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 || sum.GenNative != len(jobs) {
			t.Fatalf("batch %d: failed %d, native %d of %d: %+v", batch, sum.Failed, sum.GenNative, len(jobs), sum.Results)
		}
		if sum.RunnerBuilds != wantBuilds {
			t.Errorf("batch %d: RunnerBuilds = %d, want %d", batch, sum.RunnerBuilds, wantBuilds)
		}
		if live := runnersUnder(t, dir); len(live) > 0 {
			t.Errorf("batch %d: runner processes outlive fleet.Run: %v", batch, live)
		}
	}
}

// runnersUnder lists the live processes whose executable lies under dir.
func runnersUnder(t *testing.T, dir string) []string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for _, e := range ents {
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.HasPrefix(exe, dir+string(filepath.Separator)) {
			live = append(live, e.Name()+": "+exe)
		}
	}
	return live
}
