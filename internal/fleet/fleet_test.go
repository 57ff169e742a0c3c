package fleet

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/sim"
)

const firPath = "../../examples/fir/prog/fir.s"

func loadFIR(t testing.TB) (*core.Machine, string) {
	t.Helper()
	mc, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(firPath)
	if err != nil {
		t.Fatal(err)
	}
	return mc, string(src)
}

func firJobs(src string, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Source: src}
	}
	return jobs
}

// TestFleetMatchesSingleRun checks that a job run through the fleet (shared
// artifact) is cycle-for-cycle identical to the same program on a
// standalone simulator, in every mode.
func TestFleetMatchesSingleRun(t *testing.T) {
	mc, src := loadFIR(t)
	for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
		t.Run(mode.String(), func(t *testing.T) {
			ref, _, err := mc.AssembleAndLoad(src, mode)
			if err != nil {
				t.Fatal(err)
			}
			refSteps, err := ref.Run(1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Halted() {
				t.Fatal("reference run did not halt")
			}

			sum, err := Run(mc, mode, firJobs(src, 4), Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Failed != 0 {
				t.Fatalf("failed jobs: %+v", sum.Results)
			}
			for i, r := range sum.Results {
				if !r.Halted || r.Steps != refSteps {
					t.Errorf("job %d: steps=%d halted=%v, want %d halted", i, r.Steps, r.Halted, refSteps)
				}
			}
		})
	}
}

// TestFleetZeroRecompilation is the acceptance check for artifact sharing:
// with every instruction word pre-warmed, prebound jobs perform zero run-time
// decodes and zero run-time closure compilations — all that work is counted
// once, on the artifact.
func TestFleetZeroRecompilation(t *testing.T) {
	mc, src := loadFIR(t)
	sum, err := Run(mc, sim.CompiledPrebound, firJobs(src, 8), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if sum.PrewarmDecodes == 0 || sum.ArtifactCompiles == 0 || sum.CachedWords == 0 {
		t.Fatalf("artifact built nothing: %+v", sum)
	}
	if sum.JobDecodes != 0 {
		t.Errorf("jobs performed %d run-time decodes, want 0", sum.JobDecodes)
	}
	if sum.JobCompiles != 0 {
		t.Errorf("jobs compiled %d closures at run time, want 0", sum.JobCompiles)
	}
	for i, r := range sum.Results {
		if r.Profile.Decodes != 0 || r.Profile.Compiles != 0 {
			t.Errorf("job %d: decodes=%d compiles=%d, want 0/0", i, r.Profile.Decodes, r.Profile.Compiles)
		}
	}
}

// TestFleetDeterministicOrdering gives every job a distinct step cap and
// checks results come back in input order regardless of worker scheduling.
func TestFleetDeterministicOrdering(t *testing.T) {
	mc, src := loadFIR(t)
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: string(rune('a' + i)), Source: src, MaxSteps: uint64(i + 1)}
	}
	sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sum.Results {
		if r.Name != jobs[i].Name {
			t.Errorf("result %d named %q, want %q", i, r.Name, jobs[i].Name)
		}
		if r.Steps != uint64(i+1) || r.Halted {
			t.Errorf("result %d: steps=%d halted=%v, want %d running", i, r.Steps, r.Halted, i+1)
		}
	}
}

// TestFleetJobErrorIsolation checks that a job that fails to assemble is
// reported in its own slot without disturbing the rest of the batch.
func TestFleetJobErrorIsolation(t *testing.T) {
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "good-1", Source: src},
		{Name: "bad", Source: "THIS IS NOT ASSEMBLY\n"},
		{Name: "empty"},
		{Name: "good-2", Source: src},
	}
	sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 2 {
		t.Fatalf("Failed = %d, want 2: %+v", sum.Failed, sum.Results)
	}
	if sum.Results[1].Err == "" || sum.Results[2].Err == "" {
		t.Errorf("bad jobs carry no error: %+v", sum.Results)
	}
	for _, i := range []int{0, 3} {
		if r := sum.Results[i]; r.Err != "" || !r.Halted {
			t.Errorf("good job %d disturbed: %+v", i, r)
		}
	}
}

// TestFleetHugeSpaceIsJobError checks that a program padding far past the
// program memory fails its own job with a line-numbered error instead of
// exhausting the process's memory; POST /batch manifests reach Run too.
func TestFleetHugeSpaceIsJobError(t *testing.T) {
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "huge", Source: "NOP\n.space 0x7fffffffff\n"},
		{Name: "fir", Source: src},
	}
	sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || !strings.Contains(sum.Results[0].Err, "line 2") {
		t.Fatalf("Failed = %d, huge job error %q; want 1 failure with a line 2 error", sum.Failed, sum.Results[0].Err)
	}
	if r := sum.Results[1]; r.Err != "" || !r.Halted {
		t.Errorf("FIR job disturbed: %+v", r)
	}
}

// stall16 is a minimal pipelined machine with an interlock: LD raises
// mem_wait and the guarded stalls are data-hazard penalty cycles, which is
// what the Analyze option must surface per job and in aggregate. (simple16
// won't do — its delay slots are architecturally exposed, so it never
// stalls.)
const stall16 = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int R[8];
  REGISTER bit halt;
  REGISTER int mem_wait;
  PROGRAM_MEMORY bit[16] pmem[64];
  DATA_MEMORY int dmem[64];
  PIPELINE pipe = { FE; EX; WB };
}

OPERATION main {
  ACTIVATION {
    if (!halt && mem_wait == 0) { fetch },
    if (mem_wait > 0) { pipe.EX.stall(), pipe.FE.stall(), tick },
    pipe.shift()
  }
}

OPERATION tick { BEHAVIOR { mem_wait = mem_wait - 1; } }

OPERATION fetch IN pipe.FE {
  BEHAVIOR {
    ir = pmem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE { GROUP Insn = { nop; ld; halt_op }; }
  CODING { ir == Insn }
  ACTIVATION { Insn }
}

OPERATION nop {
  CODING { 0b0000 0bx[12] }
  SYNTAX { "NOP" }
}

OPERATION ld IN pipe.EX {
  DECLARE { LABEL rd, addr; }
  CODING { 0b0010 rd:0bx[3] addr:0bx[9] }
  SYNTAX { "LD" rd:#u "," addr:#u }
  BEHAVIOR { R[rd] = dmem[addr]; mem_wait = 2; }
}

OPERATION halt_op IN pipe.EX {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

const stallProg = "LD 1, 3\nNOP\nNOP\nLD 2, 4\nNOP\nNOP\nHALT\n"

// TestFleetAnalyze checks per-cause penalty aggregation across jobs.
func TestFleetAnalyze(t *testing.T) {
	mc, err := core.LoadMachine("stall16", stall16)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Name: "a", Source: stallProg}, {Name: "b", Source: stallProg}}
	sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 2, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if len(sum.Penalty) == 0 {
		t.Fatal("no aggregated penalties; each LD inserts two interlock stalls")
	}
	for _, cause := range sum.SortedPenaltyCauses() {
		var per uint64
		for _, r := range sum.Results {
			per += r.Penalty[cause]
		}
		if per != sum.Penalty[cause] {
			t.Errorf("cause %s: summary says %d, results sum to %d", cause, sum.Penalty[cause], per)
		}
	}
}

func TestFleetNoJobs(t *testing.T) {
	mc, _ := loadFIR(t)
	if _, err := Run(mc, sim.Compiled, nil, Options{}); err == nil {
		t.Fatal("want error for empty batch")
	}
}

func TestLoadManifestDir(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"b.s", "a.s", "ignore.txt"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("; "+f+"\nHALT\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Jobs) != 2 || man.Jobs[0].Name != "a" || man.Jobs[1].Name != "b" {
		t.Fatalf("jobs = %+v, want a then b", man.Jobs)
	}
	if man.Jobs[0].Source != "; a.s\nHALT\n" {
		t.Errorf("source not read: %q", man.Jobs[0].Source)
	}
}

func TestLoadManifestJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "prog.s"), []byte("HALT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `{
		"mode": "prebound",
		"workers": 3,
		"max": 500,
		"jobs": [
			{"name": "inline", "source": "NOP\nHALT\n"},
			{"program": "prog.s"}
		]
	}`
	path := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Mode != "prebound" || man.Workers != 3 || man.Max != 500 {
		t.Errorf("defaults not parsed: %+v", man)
	}
	if len(man.Jobs) != 2 {
		t.Fatalf("jobs = %+v", man.Jobs)
	}
	if man.Jobs[0].Source != "NOP\nHALT\n" {
		t.Errorf("inline source clobbered: %q", man.Jobs[0].Source)
	}
	if man.Jobs[1].Source != "HALT\n" || man.Jobs[1].Name != "prog" {
		t.Errorf("program not resolved: %+v", man.Jobs[1])
	}
}

func TestLoadManifestMissingProgram(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(path, []byte(`{"jobs":[{"name":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("want error for job with neither source nor program")
	}
}

func TestServiceRejectsProgramPaths(t *testing.T) {
	mc, src := loadFIR(t)
	sv := &Service{Machine: mc, Mode: sim.Compiled}
	if _, err := sv.Run(&Manifest{Jobs: []Job{{Program: "/etc/passwd"}}}, nil, nil); err == nil {
		t.Fatal("service must reject program file paths")
	}
	if _, err := sv.Run(&Manifest{Model: "other", Jobs: []Job{{Source: src}}}, nil, nil); err == nil {
		t.Fatal("service must reject foreign models")
	}
	sum, err := sv.Run(&Manifest{Mode: "prebound", Max: 10, Jobs: []Job{{Source: src}}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "compiled+prebound" || sum.Results[0].Steps != 10 {
		t.Errorf("manifest overrides ignored: %+v", sum)
	}
}

// TestFleetScalingSpeedup asserts parallel speedup when the host actually
// has the cores for it (CI runners do; single-core containers skip). The
// 1.5x bar at 4+ workers is deliberately conservative — the benchmark
// BenchmarkFleetScaling is the precise measurement.
func TestFleetScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("GOMAXPROCS=%d, need >=4 for a meaningful speedup test", procs)
	}
	mc, src := loadFIR(t)
	jobs := firJobs(src, 32)

	serial, err := Run(mc, sim.CompiledPrebound, jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(mc, sim.CompiledPrebound, jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Failed+par.Failed != 0 {
		t.Fatal("jobs failed")
	}
	speedup := float64(serial.Elapsed) / float64(par.Elapsed)
	t.Logf("serial %v, 4 workers %v: %.2fx", serial.Elapsed, par.Elapsed, speedup)
	if speedup < 1.5 {
		t.Errorf("speedup %.2fx at 4 workers, want >= 1.5x", speedup)
	}
}
