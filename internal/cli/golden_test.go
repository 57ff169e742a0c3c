package cli

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/analyze"
	"golisa/internal/cover"
	"golisa/internal/profile"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// TestObserverOutputsGolden pins the bytes of every observer exporter to
// files under testdata/golden: the hazard report (lisa-report -json), the
// coverage report (lisa-cov -json), the metrics snapshot (lisa-sim
// -metrics, as text and as JSON), the flight-recorder dump, the folded
// stacks (-folded), the Chrome trace (-trace) and the recording
// (-record). The runs make the library calls the tools make: lisa-sim
// attaches its sinks after program load, lisa-cov attaches its collector
// before reset.
//
// The programs cover all four hazard causes and their gating resources
// (hazard16), banked memory writes (simd16vec) and a c62x loop with
// memory stalls and a taken branch. compiled, the tools' default mode,
// interprets behavior and so also emits OnBehavior; prebound does not.
//
// Packet ids come from a process-wide sequence, so each case runs in a
// fresh copy of this test binary (goldenEnv names the case and the
// directory it writes to), where the sequence starts at zero as it does
// in a tool's process. A missing golden file is written and the test
// fails, so deleting a golden and re-running the test regenerates it.
func TestObserverOutputsGolden(t *testing.T) {
	progs := observerProgs
	outputs := []string{"report.json", "cov.json", "metrics.txt", "metrics.json",
		"flight.txt", "folded.txt", "trace.json", "run.lrec"}
	if env := os.Getenv(goldenEnv); env != "" {
		f := strings.Fields(env)
		for _, p := range progs {
			if p.name == f[0] {
				writeObserverOutputs(t, p.model, p.path, f[1], f[2])
			}
		}
		os.Exit(0)
	}
	for _, p := range progs {
		for _, mode := range []string{"compiled", "prebound"} {
			t.Run(p.name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				cmd := exec.Command(os.Args[0], "-test.run=^TestObserverOutputsGolden$")
				cmd.Env = append(os.Environ(), goldenEnv+"="+p.name+" "+mode+" "+dir)
				if out, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				for _, name := range outputs {
					got, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, filepath.Join("testdata", "golden", p.name+"-"+mode+"."+name), got)
				}
			})
		}
	}
}

// observerProgs are the programs whose observer outputs are pinned.
var observerProgs = []struct{ name, model, path string }{
	{"hazard16", "../models/testdata/hazard16.lisa", "../models/testdata/hazard16.s"},
	{"simd16vec", "simd16", "../replay/testdata/simd16vec.s"},
	{"c62xloop", "c62x", "testdata/golden/c62xloop.s"},
}

const goldenEnv = "GOLISA_CLI_TEST_GOLDEN"

// writeObserverOutputs runs the program at path in the named mode, as
// lisa-sim and lisa-cov do, and writes every output into dir.
func writeObserverOutputs(t *testing.T, model, path, modeName, dir string) {
	mode, err := ParseMode(modeName)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := observedRun(t, model, string(src), filepath.Base(path), mode)
	out["cov.json"] = coverageRun(t, model, string(src), mode)
	for name, b := range out {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// observedRun runs src as lisa-sim does with -metrics, -trace, -folded,
// -record and -analyze-json set and the default -flight ring, and returns
// each sink's output by golden suffix.
func observedRun(t *testing.T, model, src, source string, mode sim.Mode) map[string][]byte {
	t.Helper()
	mc := LoadModel(model)
	s, prog, err := mc.AssembleAndLoad(src, mode)
	if err != nil {
		t.Fatal(err)
	}
	s.OnPrint = func(string) {}
	dis, err := mc.NewDisassembler()
	if err != nil {
		t.Fatal(err)
	}
	chrome := trace.NewChromeTracer()
	metrics := trace.NewMetrics()
	flight := trace.NewFlight(256)
	prof := profile.New(profile.Options{Source: source, Model: mc.Model.Name, Origin: prog.Origin, Words: prog.Words, Dis: dis})
	var lrec bytes.Buffer
	rec := replay.NewRecorder(s, mc.Source, &lrec, replay.Options{Every: 1024})
	an := analyze.New()
	s.SetObserver(trace.Fanout(chrome, metrics, flight, prof, rec, an))
	if _, err := s.Run(1_000_000); err != nil || !s.Halted() {
		t.Fatalf("run: halted %v, err %v", s.Halted(), err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{"run.lrec": lrec.Bytes()}
	for name, emit := range map[string]func(io.Writer) error{
		"report.json":  an.Report().WriteJSON,
		"metrics.txt":  metrics.WriteText,
		"metrics.json": metrics.WriteJSON,
		"flight.txt":   flight.Dump,
		"folded.txt":   prof.WriteFolded,
		"trace.json":   chrome.WriteJSON,
	} {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// coverageRun runs src as lisa-cov does and returns its JSON report.
func coverageRun(t *testing.T, model, src string, mode sim.Mode) []byte {
	t.Helper()
	mc := LoadModel(model)
	as, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := as.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mc.ProgramMemory()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(mc.Model, mode)
	cm := cover.NewMap(mc.Model)
	col := cover.NewCollector(cm)
	s.OnDecoded = col.MarkDecoded
	s.SetObserver(col)
	s.OnPrint = func(string) {}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	rep, err := cm.Resolve(col.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing; wrote it", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden (%d bytes, want %d)", path, len(got), len(want))
	}
}
