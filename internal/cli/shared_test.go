package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"golisa/internal/analyze"
	"golisa/internal/cover"
	"golisa/internal/profile"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// counting is one of each counting sink over one program image.
type counting struct {
	an   *analyze.Analyzer
	col  *cover.Collector
	met  *trace.Metrics
	prof *profile.Profiler
}

// exports returns every export of the named sink.
func (c *counting) exports(name string) map[string]func(io.Writer) error {
	switch name {
	case "analyzer":
		rep := c.an.Report()
		return map[string]func(io.Writer) error{"report.json": rep.WriteJSON, "report.txt": rep.WriteText}
	case "collector":
		rep, err := c.col.Map().Resolve(c.col.Snapshot())
		if err != nil {
			panic(err)
		}
		return map[string]func(io.Writer) error{"cov.json": rep.WriteJSON, "cov.txt": rep.WriteText}
	case "metrics":
		return map[string]func(io.Writer) error{"metrics.txt": c.met.WriteText, "metrics.json": c.met.WriteJSON}
	default:
		return map[string]func(io.Writer) error{
			"profile.txt": c.prof.WriteText, "folded.txt": c.prof.WriteFolded, "profile.pb.gz": c.prof.WritePprof}
	}
}

var sinkNames = []string{"analyzer", "collector", "metrics", "profiler"}

// countedRun runs src with the named sinks attached through one Fanout
// after program load, as lisa-sim attaches them, and returns each one's
// exports by sink and file name.
func countedRun(t *testing.T, model, src, source string, mode sim.Mode, names ...string) map[string][]byte {
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
	c := &counting{
		an:   analyze.New(),
		col:  cover.NewCollector(cover.NewMap(mc.Model)),
		met:  trace.NewMetrics(),
		prof: profile.New(profile.Options{Source: source, Model: mc.Model.Name, Origin: prog.Origin, Words: prog.Words, Dis: dis}),
	}
	sinks := map[string]trace.Observer{"analyzer": c.an, "collector": c.col, "metrics": c.met, "profiler": c.prof}
	var obs []trace.Observer
	for _, name := range names {
		obs = append(obs, sinks[name])
		if name == "collector" {
			s.OnDecoded = c.col.MarkDecoded
		}
	}
	s.SetObserver(trace.Fanout(obs...))
	if _, err := s.Run(1_000_000); err != nil || !s.Halted() {
		t.Fatalf("run: halted %v, err %v", s.Halted(), err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		for file, emit := range c.exports(name) {
			var buf bytes.Buffer
			if err := emit(&buf); err != nil {
				t.Fatalf("%s %s: %v", name, file, err)
			}
			out[name+"/"+file] = buf.Bytes()
		}
	}
	return out
}

// TestSharedCountsChangeNoOutput runs the programs of
// TestObserverOutputsGolden with each counting sink attached alone, then
// with all four through one Fanout, where they read one Counters: every
// export is byte-identical either way.
func TestSharedCountsChangeNoOutput(t *testing.T) {
	for _, p := range observerProgs {
		src, err := os.ReadFile(p.path)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []sim.Mode{sim.Compiled, sim.CompiledPrebound} {
			t.Run(fmt.Sprintf("%s/%s", p.name, mode), func(t *testing.T) {
				alone := map[string][]byte{}
				for _, name := range sinkNames {
					for file, b := range countedRun(t, p.model, string(src), p.path, mode, name) {
						alone[file] = b
					}
				}
				shared := countedRun(t, p.model, string(src), p.path, mode, sinkNames...)
				if len(shared) != len(alone) {
					t.Fatalf("%d exports shared, %d alone", len(shared), len(alone))
				}
				for file, b := range shared {
					if !bytes.Equal(b, alone[file]) {
						t.Errorf("%s differs when the sinks share one Counters", file)
					}
				}
			})
		}
	}
}

// TestFanoutSharesOneObserver: the set the observed benchmark attaches
// fans out to one observer, so each event costs one call however many
// sinks read it.
func TestFanoutSharesOneObserver(t *testing.T) {
	mc := LoadModel("simple16")
	an, col, met := analyze.New(), cover.NewCollector(cover.NewMap(mc.Model)), trace.NewMetrics()
	o := trace.Fanout(an, col, met)
	if _, multi := o.(trace.Multi); multi || o == nil {
		t.Fatalf("Fanout(analyzer, collector, metrics) = %T, want one observer", o)
	}
	if col.Counters != an.Counters || met.Counters != an.Counters {
		t.Error("the sinks of one fan-out read different Counters")
	}
}
