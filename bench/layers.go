package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"golisa/internal/cli"
	"golisa/internal/gosim"
	"golisa/internal/otrace"
	"golisa/internal/sim"
)

// tracedRun measures the per-layer metrics. It runs the named workload
// for two fifths of d, every job twice, untraced and then traced (the
// jobs_per_s difference on identical jobs is the tracing overhead), then a
// traced fifth of every other workload, so that every layer metric is
// measured on the workload that exercises that layer whichever workload
// was named. The observed workload adds one pass over its pool per
// observer configuration, and the generated workload the engine ladder.
func tracedRun(w *workload, cfg *config, d time.Duration, spansPath string) (*result, []string, error) {
	tr := &tracer{tr: otrace.New("bench")}
	slice := d / 5
	order := []*workload{w}
	for _, x := range workloads {
		if x != w {
			order = append(order, x)
		}
	}
	total := &tally{}
	begin := time.Now()
	var untraced, traced *tally
	for _, x := range order {
		xs := tr.start(nil, "workload."+x.name)
		pool := x.pool()
		ss := tr.start(xs, "setup")
		r, err := x.setup(cfg, pool, tr, ss)
		ss.end()
		if err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", x.name, err)
		}
		js := tr.start(xs, "jobs")
		if x == w {
			untraced, traced = &tally{}, &tally{}
			seq := newSequence(pool, cfg.seed)
			for start := time.Now(); time.Since(start) < 2*slice || !seq.roundDone(); {
				i := seq.next()
				untraced.run(r, pool, i, nil, 0, nil, nil)
				traced.run(r, pool, i, nil, 0, tr, js)
			}
			total.add(untraced)
			total.add(traced)
		} else {
			t, err := loop(r, pool, newSequence(pool, cfg.seed), slice, nil, tr, js, nil)
			if err != nil {
				return nil, nil, err
			}
			total.add(t)
		}
		js.end()
		switch r := r.(type) {
		case *simRunner:
			if r.covMaps != nil {
				vs := tr.start(xs, "variants")
				err = r.observerVariants(tr, vs)
				vs.end()
			}
		case *genRunner:
			ls := tr.start(xs, "ladder")
			err = r.ladder(tr, ls)
			ls.end()
		}
		r.close()
		xs.end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", x.name, err)
		}
	}
	tr.tr.Root().End()
	total.elapsed = time.Since(begin)
	doc := tr.tr.Export()
	if err := writeSpans(spansPath, doc); err != nil {
		return nil, nil, err
	}

	ix := indexSpans(doc)
	res := total.result()
	lines := total.summary("all (traced run of "+w.name+")", cfg.seed)
	lines = append(lines, fmt.Sprintf("spans: %d written to %s", len(doc.Spans), spansPath))
	lines = append(lines, "self time by span (host ms, count):")
	lines = append(lines, ix.selfTable()...)
	vals := layerValues(ix, w.name, untraced.jobsPerS(), traced.jobsPerS())
	lines = append(lines, "per-layer metrics:")
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		lines = append(lines, fmt.Sprintf("%-34s %14.4f %s", m.name, vals[m.name], m.unit))
	}
	return res, lines, nil
}

// layerMetrics names the per-layer metrics in print order, with units.
var layerMetrics = []struct{ name, unit string }{
	{"parser.parse_ms", "ms"},
	{"sema.build_ms", "ms"},
	{"asm.gen_ms", "ms"},
	{"asm.assemble_us_per_word", "us"},
	{"asm.disassemble_us_per_word", "us"},
	{"docgen.generate_ms", "ms"},
	{"sim.artifact_ms", "ms"},
	{"sim.new_us", "us"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.ns_per_cycle.simple16", "ns"},
	{"sim.ns_per_cycle.simd16", "ns"},
	{"sim.ns_per_cycle.c62x", "ns"},
	{"sim.allocs_per_cycle", "allocs"},
	{"sim.bytes_per_cycle", "B"},
	{"sim.decode_hit_ratio", "ratio"},
	{"sim.simulated_cycles", "cycles"},
	{"observe.ns_per_cycle", "ns"},
	{"observe.overhead_ns_per_cycle", "ns"},
	{"observe.allocs_per_cycle", "allocs"},
	{"analyze.overhead_pct", "%"},
	{"cover.overhead_pct", "%"},
	{"metrics.overhead_pct", "%"},
	{"analyze.report_ms", "ms"},
	{"cover.snapshot_ms", "ms"},
	{"gosim.compile_ms", "ms"},
	{"gosim.emit_ms", "ms"},
	{"gosim.source_kb", "KiB"},
	{"gosim.build_s", "s"},
	{"gosim.runner_lookup_us", "us"},
	{"gosim.exec_overhead_ms", "ms"},
	{"gosim.loop_ns_per_cycle", "ns"},
	{"gosim.native_ratio", "ratio"},
	{"gosim.fallback_frac", "fraction"},
	{"engine.interpretive.ns_per_cycle", "ns"},
	{"engine.compiled.ns_per_cycle", "ns"},
	{"engine.prebound.ns_per_cycle", "ns"},
	{"engine.ir.ns_per_cycle", "ns"},
	{"engine.native.ns_per_cycle", "ns"},
	{"bench.verify_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// layerValues derives the per-layer metrics from the span index. Each is
// taken from the workload whose jobs exercise that layer; bench.verify_us
// and bench.trace_overhead_pct belong to the named workload w.
func layerValues(ix spanIndex, w string, untracedJPS, tracedJPS float64) map[string]float64 {
	kj := func(name string) *spanStats { return ix.get("kernels", "jobs", name) }
	rj := func(name string) *spanStats { return ix.get("retarget", "jobs", name) }
	oj := func(name string) *spanStats { return ix.get("observed", "jobs", name) }
	ov := func(v string) float64 { return ix.get("observed", "variants", "observe."+v).perCycle("dur_ns") }
	gj := func(name string) *spanStats { return ix.get("generated", "jobs", name) }
	gs := func(name string) *spanStats { return ix.get("generated", "setup", name) }
	lad := func(engine string) *spanStats { return ix.get("generated", "ladder", "engine."+engine) }
	run := gj("gosim.run")
	detached := ov("detached")
	pct := func(v float64) float64 { return 100 * (v/detached - 1) }
	return map[string]float64{
		"parser.parse_ms":                  rj("parser.parse").medianMs(),
		"sema.build_ms":                    rj("sema.build").medianMs(),
		"asm.gen_ms":                       rj("asm.gen").medianMs(),
		"asm.assemble_us_per_word":         rj("asm.assemble").perAttr("dur_ns", "words") / 1e3,
		"asm.disassemble_us_per_word":      rj("asm.disassemble").perAttr("dur_ns", "words") / 1e3,
		"docgen.generate_ms":               rj("docgen.generate").medianMs(),
		"sim.artifact_ms":                  rj("sim.artifact").medianMs(),
		"sim.new_us":                       kj("sim.new").medianMs() * 1e3,
		"sim.ns_per_cycle":                 kj("sim.run").perCycle("dur_ns"),
		"sim.ns_per_cycle.simple16":        kj("sim.run@simple16").perCycle("dur_ns"),
		"sim.ns_per_cycle.simd16":          kj("sim.run@simd16").perCycle("dur_ns"),
		"sim.ns_per_cycle.c62x":            kj("sim.run@c62x").perCycle("dur_ns"),
		"sim.allocs_per_cycle":             kj("sim.run").perCycle("mallocs"),
		"sim.bytes_per_cycle":              kj("sim.run").perCycle("alloc_bytes"),
		"sim.decode_hit_ratio":             kj("sim.run").perAttr("decode_hits", "decodes"),
		"sim.simulated_cycles":             ix.get("observed", "variants", "observe.detached").attrs["cycles"],
		"observe.ns_per_cycle":             oj("sim.run").perCycle("dur_ns"),
		"observe.overhead_ns_per_cycle":    ov("all") - detached,
		"observe.allocs_per_cycle":         oj("sim.run").perCycle("mallocs"),
		"analyze.overhead_pct":             pct(ov("analyze")),
		"cover.overhead_pct":               pct(ov("cover")),
		"metrics.overhead_pct":             pct(ov("metrics")),
		"analyze.report_ms":                oj("analyze.report").medianMs(),
		"cover.snapshot_ms":                oj("cover.snapshot").medianMs(),
		"gosim.compile_ms":                 gj("gosim.compile@simple16").medianMs(),
		"gosim.emit_ms":                    gs("gosim.emit").medianMs(),
		"gosim.source_kb":                  gs("gosim.emit").mean("bytes") / 1024,
		"gosim.build_s":                    gs("gosim.build").medianMs() / 1e3,
		"gosim.runner_lookup_us":           gj("gosim.runner").medianMs() * 1e3,
		"gosim.exec_overhead_ms":           (run.attrs["wall_ns"] - run.attrs["run_ns"]) / float64(max(run.n, 1)) / 1e6,
		"gosim.loop_ns_per_cycle":          run.perCycle("run_ns"),
		"gosim.native_ratio":               run.mean("native"),
		"gosim.fallback_frac":              gj("job").mean("fallback"),
		"engine.interpretive.ns_per_cycle": lad("interpretive").perCycle("dur_ns"),
		"engine.compiled.ns_per_cycle":     lad("compiled").perCycle("dur_ns"),
		"engine.prebound.ns_per_cycle":     lad("prebound").perCycle("dur_ns"),
		"engine.ir.ns_per_cycle":           lad("ir").perCycle("run_ns"),
		"engine.native.ns_per_cycle":       lad("native").perCycle("run_ns"),
		"bench.verify_us":                  ix.get(w, "jobs", "bench.verify").medianMs() * 1e3,
		"bench.trace_overhead_pct":         100 * (untracedJPS - tracedJPS) / untracedJPS,
	}
}

// spanStats aggregates the spans of one name within one workload phase.
type spanStats struct {
	n     int
	durs  []float64          // host ns per span
	attrs map[string]float64 // numeric attributes summed; "dur_ns" and "self_ns" too
}

func (s *spanStats) medianMs() float64 { return median(s.durs) / 1e6 }

func (s *spanStats) perAttr(num, den string) float64 {
	if s.attrs[den] == 0 {
		return 0
	}
	return s.attrs[num] / s.attrs[den]
}

func (s *spanStats) perCycle(num string) float64 { return s.perAttr(num, "cycles") }

func (s *spanStats) mean(attr string) float64 {
	if s.n == 0 {
		return 0
	}
	return s.attrs[attr] / float64(s.n)
}

// spanIndex keys spanStats by "workload/phase/name", and additionally by
// "workload/phase/name@model" for spans carrying a model attribute. The
// phase is the nearest enclosing setup, jobs, variants or ladder span.
type spanIndex struct {
	stats map[string]*spanStats
	self  map[string]*spanStats // by span name alone: self time
}

func (ix spanIndex) get(workload, phase, name string) *spanStats {
	if s := ix.stats[workload+"/"+phase+"/"+name]; s != nil {
		return s
	}
	return &spanStats{attrs: map[string]float64{}}
}

func indexSpans(d *otrace.Doc) spanIndex {
	byID := map[string]*otrace.SpanJSON{}
	childUs := map[string]float64{}
	for i := range d.Spans {
		sp := &d.Spans[i]
		byID[sp.SpanID] = sp
		if sp.Parent != "" {
			childUs[sp.Parent] += sp.DurUs
		}
	}
	ix := spanIndex{stats: map[string]*spanStats{}, self: map[string]*spanStats{}}
	add := func(m map[string]*spanStats, key string, durNs, selfNs float64, attrs map[string]any) {
		s := m[key]
		if s == nil {
			s = &spanStats{attrs: map[string]float64{}}
			m[key] = s
		}
		s.n++
		s.durs = append(s.durs, durNs)
		s.attrs["dur_ns"] += durNs
		s.attrs["self_ns"] += selfNs
		for k, v := range attrs {
			switch v := v.(type) {
			case int:
				s.attrs[k] += float64(v)
			case int64:
				s.attrs[k] += float64(v)
			case uint64:
				s.attrs[k] += float64(v)
			case bool:
				if v {
					s.attrs[k]++
				}
			}
		}
	}
	for i := range d.Spans {
		sp := &d.Spans[i]
		durNs, selfNs := sp.DurUs*1e3, (sp.DurUs-childUs[sp.SpanID])*1e3
		add(ix.self, sp.Name, durNs, selfNs, nil)
		var workload, phase string
		for p := byID[sp.Parent]; p != nil; p = byID[p.Parent] {
			switch {
			case strings.HasPrefix(p.Name, "workload."):
				workload = strings.TrimPrefix(p.Name, "workload.")
			case phase == "" && (p.Name == "setup" || p.Name == "jobs" || p.Name == "variants" || p.Name == "ladder"):
				phase = p.Name
			}
		}
		if workload == "" || phase == "" {
			continue
		}
		key := workload + "/" + phase + "/" + sp.Name
		add(ix.stats, key, durNs, selfNs, sp.Attrs)
		if model, ok := sp.Attrs["model"].(string); ok {
			add(ix.stats, key+"@"+model, durNs, selfNs, sp.Attrs)
		}
	}
	return ix
}

// selfTable lists every span name's total self time, largest first.
func (ix spanIndex) selfTable() []string {
	names := make([]string, 0, len(ix.self))
	for n := range ix.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ix.self[names[i]].attrs["self_ns"] > ix.self[names[j]].attrs["self_ns"] })
	var lines []string
	for _, n := range names {
		s := ix.self[n]
		lines = append(lines, fmt.Sprintf("  %-28s %12.3f ms %8d", n, s.attrs["self_ns"]/1e6, s.n))
	}
	return lines
}

// ladderMin is the least host time each (engine, model) pair of the
// ladder runs for.
const ladderMin = 150 * time.Millisecond

// ladder times one medium program per model on every engine (the E3
// table): the interpretive, compiled and prebound sim modes on all three
// models, and gosim's IR interpreter and native runner on simple16, the
// only model gosim compiles. Every run is checked against the golden
// reference.
func (r *genRunner) ladder(tr *tracer, parent *span) error {
	// This set-up's stamped sources come last, so the simple16 program's
	// native runner is already built.
	srcs := map[string]string{}
	for _, en := range kernelsPool() {
		srcs[en.Name] = en.Source
	}
	for k, en := range r.pool {
		srcs[en.Name] = r.srcs[k]
	}
	for _, name := range []string{"simple16/dot-n128-u16-r16", "simd16/vdot-n64-r8", "c62x/dot-parallel-n32-r4"} {
		model, _, _ := strings.Cut(name, "/")
		tc, err := loadTools(model, nil, nil)
		if err != nil {
			return err
		}
		prog, err := tc.asm.Assemble(srcs[name])
		if err != nil {
			return err
		}
		g := r.cfg.golden[name]
		for _, engine := range []string{"interpretive", "compiled", "prebound"} {
			mode, err := cli.ParseMode(engine)
			if err != nil {
				return err
			}
			tc.art = sim.NewArtifact(tc.mc.Model, mode)
			if err := tc.art.Prewarm(prog.Words); err != nil {
				return err
			}
			for start := time.Now(); time.Since(start) < ladderMin; {
				s := sim.NewFromArtifact(tc.art)
				if err := s.Reset(); err != nil {
					return err
				}
				if err := s.LoadProgram(tc.pm, prog.Origin, prog.Words); err != nil {
					return err
				}
				n, err := runSim(s, "engine."+engine, r.cfg.maxSteps, tr, parent)
				if err == nil {
					err = g.check(n, s.Halted(), simStateHash(s))
				}
				if err != nil {
					return fmt.Errorf("%s on %s: %w", name, engine, err)
				}
			}
		}
		if model != "simple16" {
			continue
		}
		p, err := gosim.Compile(tc.mc, prog)
		if err != nil {
			return err
		}
		for _, e := range []struct {
			name  string
			cache *gosim.Cache
			b     gosim.Backend
		}{{"ir", nil, gosim.ForceIR}, {"native", r.cache, gosim.ForceNative}} {
			for start := time.Now(); time.Since(start) < ladderMin; {
				sp := tr.start(parent, "engine."+e.name)
				res, err := gosim.NewEngine(p, e.cache, gosim.Options{Backend: e.b}).Run(r.cfg.maxSteps)
				sp.end()
				if err == nil {
					sp.attr("model", model)
					sp.attr("cycles", res.Steps)
					sp.attr("run_ns", res.RunNs)
					err = verifySlots(p, g, res)
				}
				if err != nil {
					return fmt.Errorf("%s on %s: %w", name, e.name, err)
				}
			}
		}
	}
	return nil
}

// writeSpans writes the span document, creating its directory.
func writeSpans(path string, doc *otrace.Doc) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := doc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
