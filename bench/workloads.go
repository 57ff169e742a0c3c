package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"golisa/internal/analyze"
	"golisa/internal/asm"
	"golisa/internal/cli"
	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/docgen"
	"golisa/internal/gosim"
	"golisa/internal/models"
	"golisa/internal/parser"
	"golisa/internal/sema"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// maxSteps is the default step cap: a job that has not halted by then
// fails. The longest pool program takes about 1.3M cycles.
const maxSteps = 4_000_000

// config is one benchmark run's parameters.
type config struct {
	seed     uint64
	maxSteps uint64
	golden   map[string]golden
}

// runner executes the jobs of one set-up workload.
type runner interface {
	// job runs pool entry i from source text to a verified result and
	// returns the simulated cycles.
	job(i int, tr *tracer, parent *span) (uint64, error)
	close()
}

// workload is one traffic mix: a pool, a set-up and the number of set-ups
// per run (setup_s is their median). On a shared host, stretches of about
// a second run 1.5x slower, so the set-ups of one run span at least 2 s.
type workload struct {
	name   string
	pool   func() []entry
	setups int
	setup  func(cfg *config, pool []entry, tr *tracer, parent *span) (runner, error)
}

var workloads = []*workload{
	{"kernels", kernelsPool, 40, func(cfg *config, pool []entry, tr *tracer, parent *span) (runner, error) {
		return newSimRunner(cfg, pool, false, tr, parent)
	}},
	{"observed", kernelsPool, 40, func(cfg *config, pool []entry, tr *tracer, parent *span) (runner, error) {
		return newSimRunner(cfg, pool, true, tr, parent)
	}},
	{"generated", generatedPool, 3, newGenRunner},
	{"retarget", retargetPool, 250, newRetargetRunner},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have kernels, observed, generated, retarget)", name)
}

// toolchain is one model with its generated assembler and, once
// prebind has run, its shared simulator artifact.
type toolchain struct {
	mc  *core.Machine
	asm *asm.Assembler
	pm  string
	art *sim.Artifact
}

func loadTools(model string, tr *tracer, parent *span) (*toolchain, error) {
	sp := tr.start(parent, "core.load")
	mc, err := core.LoadBuiltin(model)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start(parent, "asm.gen")
	a, err := mc.NewAssembler()
	sp.end()
	if err != nil {
		return nil, err
	}
	pm, err := mc.ProgramMemory()
	if err != nil {
		return nil, err
	}
	return &toolchain{mc: mc, asm: a, pm: pm}, nil
}

func (tc *toolchain) assemble(src string, tr *tracer, parent *span) (*asm.Program, error) {
	sp := tr.start(parent, "asm.assemble")
	prog, err := tc.asm.Assemble(src)
	if err == nil {
		sp.attr("words", len(prog.Words))
	}
	sp.end()
	return prog, err
}

// prebind builds the model's shared artifact, pre-warmed with every word
// of the given programs.
func (tc *toolchain) prebind(mode sim.Mode, srcs []string, tr *tracer, parent *span) error {
	var words []uint64
	for _, src := range srcs {
		prog, err := tc.assemble(src, tr, parent)
		if err != nil {
			return err
		}
		words = append(words, prog.Words...)
	}
	sp := tr.start(parent, "sim.artifact")
	tc.art = sim.NewArtifact(tc.mc.Model, mode)
	err := tc.art.Prewarm(words)
	sp.end()
	return err
}

// observers is the set lisa-report, lisa-cov and the lisa-perf counter
// pass attach: the hazard analyzer, the coverage collector and the
// per-stage metrics, fanned out through trace.Multi.
type observers struct {
	an  *analyze.Analyzer
	col *cover.Collector
	met *trace.Metrics
}

func (o *observers) attach(s *sim.Simulator) {
	var list []trace.Observer
	if o.an != nil {
		list = append(list, o.an)
	}
	if o.col != nil {
		s.OnDecoded = o.col.MarkDecoded
		list = append(list, o.col)
	}
	if o.met != nil {
		list = append(list, o.met)
	}
	s.SetObserver(trace.Fanout(list...))
}

// simJob runs an assembled program on a fresh simulator from the
// artifact, with obs attached when non-nil, and checks it against g.
func simJob(tc *toolchain, prog *asm.Program, g golden, cap uint64, obs *observers, tr *tracer, parent *span) (uint64, error) {
	sp := tr.start(parent, "sim.new")
	s := sim.NewFromArtifact(tc.art)
	err := s.Reset()
	if err == nil {
		err = s.LoadProgram(tc.pm, prog.Origin, prog.Words)
	}
	sp.end()
	if err != nil {
		return 0, err
	}
	if obs != nil {
		obs.attach(s)
	}
	n, err := runSim(s, "sim.run", cap, tr, parent)
	if err != nil {
		return n, err
	}
	if obs != nil {
		sp = tr.start(parent, "analyze.report")
		rep := obs.an.Report()
		sp.end()
		sp = tr.start(parent, "cover.snapshot")
		obs.col.Snapshot()
		sp.end()
		if rep.Steps != n || obs.met.Steps != n {
			return n, fmt.Errorf("observers saw %d (analyzer) and %d (metrics) steps of %d", rep.Steps, obs.met.Steps, n)
		}
	}
	sp = tr.start(parent, "bench.verify")
	err = g.check(n, s.Halted(), simStateHash(s))
	sp.end()
	return n, err
}

// runSim runs s to halt or the cap inside a span carrying the counts the
// per-layer metrics need.
func runSim(s *sim.Simulator, name string, cap uint64, tr *tracer, parent *span) (uint64, error) {
	sp := tr.start(parent, name)
	n, err := s.Run(cap)
	sp.end()
	if sp != nil {
		p := s.Profile()
		sp.attr("model", s.M.Name)
		sp.attr("cycles", n)
		sp.attr("decodes", p.Decodes+p.DecodeHits)
		sp.attr("decode_hits", p.DecodeHits)
	}
	return n, err
}

// --- kernels and observed -------------------------------------------------------

// simRunner runs the kernels pool in process on one sim engine, with the
// observer set attached in the observed workload.
type simRunner struct {
	cfg     *config
	pool    []entry
	tools   map[string]*toolchain
	covMaps map[string]*cover.Map // observed only
}

func newSimRunner(cfg *config, pool []entry, observed bool, tr *tracer, parent *span) (runner, error) {
	// Resolved as lisa-sim resolves -mode, so its vocabulary is the contract.
	mode, err := cli.ParseMode("prebound")
	if err != nil {
		return nil, err
	}
	r := &simRunner{cfg: cfg, pool: pool, tools: map[string]*toolchain{}}
	if observed {
		r.covMaps = map[string]*cover.Map{}
	}
	srcs := map[string][]string{}
	var order []string
	for _, en := range pool {
		if _, ok := srcs[en.Model]; !ok {
			order = append(order, en.Model)
		}
		srcs[en.Model] = append(srcs[en.Model], en.Source)
	}
	for _, model := range order {
		tc, err := loadTools(model, tr, parent)
		if err != nil {
			return nil, err
		}
		if err := tc.prebind(mode, srcs[model], tr, parent); err != nil {
			return nil, err
		}
		r.tools[model] = tc
		if observed {
			sp := tr.start(parent, "cover.map")
			r.covMaps[model] = cover.NewMap(tc.mc.Model)
			sp.end()
		}
	}
	return r, nil
}

func (r *simRunner) job(i int, tr *tracer, parent *span) (uint64, error) {
	en := r.pool[i]
	tc := r.tools[en.Model]
	prog, err := tc.assemble(en.Source, tr, parent)
	if err != nil {
		return 0, err
	}
	var obs *observers
	if r.covMaps != nil {
		obs = &observers{an: analyze.New(), col: cover.NewCollector(r.covMaps[en.Model]), met: trace.NewMetrics()}
	}
	return simJob(tc, prog, r.cfg.golden[en.Name], r.cfg.maxSteps, obs, tr, parent)
}

func (r *simRunner) close() {}

// observerVariants times every pool program once per observer
// configuration: none, each observer alone, and all three. The spans
// (observe.<variant>) give the per-observer overheads on the same jobs.
func (r *simRunner) observerVariants(tr *tracer, parent *span) error {
	variants := []struct {
		name string
		obs  func(cm *cover.Map) *observers
	}{
		{"detached", func(*cover.Map) *observers { return nil }},
		{"analyze", func(*cover.Map) *observers { return &observers{an: analyze.New()} }},
		{"cover", func(cm *cover.Map) *observers { return &observers{col: cover.NewCollector(cm)} }},
		{"metrics", func(*cover.Map) *observers { return &observers{met: trace.NewMetrics()} }},
		{"all", func(cm *cover.Map) *observers {
			return &observers{an: analyze.New(), col: cover.NewCollector(cm), met: trace.NewMetrics()}
		}},
	}
	for _, en := range r.pool {
		tc := r.tools[en.Model]
		prog, err := tc.asm.Assemble(en.Source)
		if err != nil {
			return err
		}
		for _, v := range variants {
			s := sim.NewFromArtifact(tc.art)
			if err := s.Reset(); err != nil {
				return err
			}
			if err := s.LoadProgram(tc.pm, prog.Origin, prog.Words); err != nil {
				return err
			}
			if obs := v.obs(r.covMaps[en.Model]); obs != nil {
				obs.attach(s)
			}
			if _, err := runSim(s, "observe."+v.name, r.cfg.maxSteps, tr, parent); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- generated --------------------------------------------------------------------

// genRunner is the warm -mode generated path: every simple16 program has
// a prebuilt native runner; c62x programs fail gosim.Compile with
// ErrUnsupported and fall back to the prebound engine, as lisa-sim does.
type genRunner struct {
	cfg   *config
	pool  []entry
	srcs  []string // pool sources, simple16 ones stamped with the run's nonce
	tools map[string]*toolchain
	cache *gosim.Cache
	dir   string
}

func newGenRunner(cfg *config, pool []entry, tr *tracer, parent *span) (runner, error) {
	dir, err := os.MkdirTemp("", "golisa-bench-gosim-")
	if err != nil {
		return nil, err
	}
	r := &genRunner{cfg: cfg, pool: pool, tools: map[string]*toolchain{}, cache: gosim.NewCache(dir), dir: dir}
	if err := r.build(tr, parent); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *genRunner) build(tr *tracer, parent *span) error {
	// A fresh nonce data word after the padding that follows HALT makes
	// every run's runner sources new, so go build cannot reuse compile
	// output from an earlier run and setup_s does not shrink after the
	// first. Opcode 011111 does not decode on simple16, and the word is
	// never fetched.
	stamp := fmt.Sprintf("\t.word %#x\n", 0x7C000000|rand.Uint64N(1<<26))
	var fallback []string
	for _, en := range r.pool {
		tc, ok := r.tools[en.Model]
		if !ok {
			var err error
			if tc, err = loadTools(en.Model, tr, parent); err != nil {
				return err
			}
			r.tools[en.Model] = tc
		}
		src := en.Source
		if en.Model != "simple16" {
			r.srcs = append(r.srcs, src)
			fallback = append(fallback, src)
			continue
		}
		src += stamp
		r.srcs = append(r.srcs, src)
		prog, err := tc.assemble(src, tr, parent)
		if err != nil {
			return err
		}
		sp := tr.start(parent, "gosim.compile")
		p, err := gosim.Compile(tc.mc, prog)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", en.Name, err)
		}
		sp = tr.start(parent, "gosim.emit")
		code, err := p.EmitSource()
		sp.attr("bytes", len(code))
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.start(parent, "gosim.build")
		_, _, err = r.cache.Runner(p)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", en.Name, err)
		}
	}
	if tc := r.tools["c62x"]; tc != nil {
		return tc.prebind(sim.CompiledPrebound, fallback, tr, parent)
	}
	return nil
}

func (r *genRunner) job(i int, tr *tracer, parent *span) (uint64, error) {
	en := r.pool[i]
	tc := r.tools[en.Model]
	prog, err := tc.assemble(r.srcs[i], tr, parent)
	if err != nil {
		return 0, err
	}
	g := r.cfg.golden[en.Name]
	sp := tr.start(parent, "gosim.compile")
	sp.attr("model", en.Model)
	p, err := gosim.Compile(tc.mc, prog)
	sp.end()
	if errors.Is(err, gosim.ErrUnsupported) {
		parent.attr("fallback", true)
		return simJob(tc, prog, g, r.cfg.maxSteps, nil, tr, parent)
	}
	if err != nil {
		return 0, err
	}
	sp = tr.start(parent, "gosim.runner")
	_, hit, err := r.cache.Runner(p)
	sp.end()
	if err != nil {
		return 0, err
	}
	if !hit {
		return 0, fmt.Errorf("runner for %s was not prebuilt", en.Name)
	}
	sp = tr.start(parent, "gosim.run")
	t0 := time.Now()
	res, err := gosim.NewEngine(p, r.cache, gosim.Options{}).Run(r.cfg.maxSteps)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp.attr("cycles", res.Steps)
	sp.attr("native", res.Native)
	sp.attr("run_ns", res.RunNs)
	sp.attr("wall_ns", wall.Nanoseconds())
	sp = tr.start(parent, "bench.verify")
	err = verifySlots(p, g, res)
	sp.end()
	return res.Steps, err
}

func verifySlots(p *gosim.Program, g golden, res *gosim.Result) error {
	h, err := slotStateHash(p.Model, res.Scalars, res.Arrays)
	if err != nil {
		return err
	}
	return g.check(res.Steps, res.Halted, h)
}

func (r *genRunner) close() { os.RemoveAll(r.dir) }

// --- retarget ---------------------------------------------------------------------

// retargetRunner is the architect's edit loop: every job regenerates a
// model's whole toolchain from LISA source and smoke-runs it. Set-up
// builds each model once with the stock toolchain to get the reference
// words the regenerated assembler must reproduce.
type retargetRunner struct {
	cfg  *config
	pool []entry
	ref  [][]uint64
}

func newRetargetRunner(cfg *config, pool []entry, tr *tracer, parent *span) (runner, error) {
	r := &retargetRunner{cfg: cfg, pool: pool}
	for _, en := range pool {
		tc, err := loadTools(en.Model, tr, parent)
		if err != nil {
			return nil, err
		}
		prog, err := tc.assemble(en.Source, tr, parent)
		if err != nil {
			return nil, err
		}
		r.ref = append(r.ref, prog.Words)
	}
	return r, nil
}

func (r *retargetRunner) job(i int, tr *tracer, parent *span) (uint64, error) {
	en := r.pool[i]
	src := models.All[en.Model]
	sp := tr.start(parent, "parser.parse")
	d, perrs := parser.Parse(src, en.Model+".lisa")
	sp.end()
	if len(perrs) > 0 {
		return 0, perrs[0]
	}
	sp = tr.start(parent, "sema.build")
	m, serrs := sema.Build(en.Model, d)
	sp.end()
	if len(serrs) > 0 {
		return 0, serrs[0]
	}
	m.SourceLines = sema.CountSourceLines(src)
	sp = tr.start(parent, "asm.gen")
	a, err := asm.NewAssembler(m)
	var dis *asm.Disassembler
	if err == nil {
		dis, err = asm.NewDisassembler(m)
	}
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = tr.start(parent, "docgen.generate")
	doc := docgen.Generate(m)
	sp.end()
	if len(doc) == 0 {
		return 0, fmt.Errorf("empty documentation")
	}
	tc := &toolchain{mc: &core.Machine{Model: m, Source: src}, asm: a}
	if tc.pm, err = tc.mc.ProgramMemory(); err != nil {
		return 0, err
	}
	prog, err := tc.assemble(en.Source, tr, parent)
	if err != nil {
		return 0, err
	}
	sp = tr.start(parent, "asm.disassemble")
	sp.attr("words", len(prog.Words))
	text := make([]string, len(prog.Words))
	for k, w := range prog.Words {
		if text[k], err = dis.Disassemble(w); err != nil {
			break
		}
	}
	sp.end()
	if err != nil {
		return 0, err
	}
	if err := r.roundTrip(i, a, prog.Words, text, tr, parent); err != nil {
		return 0, err
	}
	sp = tr.start(parent, "sim.artifact")
	tc.art = sim.NewArtifact(m, sim.CompiledPrebound)
	err = tc.art.Prewarm(prog.Words)
	sp.end()
	if err != nil {
		return 0, err
	}
	return simJob(tc, prog, r.cfg.golden[en.Name], r.cfg.maxSteps, nil, tr, parent)
}

// roundTrip checks that the regenerated assembler reproduces the stock
// toolchain's words and re-assembles every disassembled line to its word.
func (r *retargetRunner) roundTrip(i int, a *asm.Assembler, words []uint64, text []string, tr *tracer, parent *span) error {
	sp := tr.start(parent, "asm.reassemble")
	defer sp.end()
	ref := r.ref[i]
	if len(words) != len(ref) {
		return fmt.Errorf("regenerated assembler emitted %d words, stock %d", len(words), len(ref))
	}
	for k, w := range words {
		if w != ref[k] {
			return fmt.Errorf("word %d: regenerated assembler %#x, stock %#x", k, w, ref[k])
		}
		back, err := a.AssembleStatement(text[k])
		if err != nil {
			return fmt.Errorf("word %d %q: %w", k, text[k], err)
		}
		if back != w {
			return fmt.Errorf("word %d %q re-assembles to %#x, not %#x", k, text[k], back, w)
		}
	}
	return nil
}

func (r *retargetRunner) close() {}
