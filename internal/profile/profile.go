// Package profile implements a target-program profiler on top of the
// trace.Observer event stream: it attributes simulated cycles — including
// stall and flush penalties — to program addresses and operations, resolves
// addresses back to assembly text through the model's coding⇄syntax rules
// (the disassembler), and exports hot-spot reports as text, folded stacks
// (flamegraph.pl-compatible) and pprof protobuf so `go tool pprof` renders
// flame graphs of the simulated DSP program.
//
// Attribution model. Every control step of the simulation is charged to
// exactly one instruction site:
//
//   - the step in which a site's instruction word is decoded/dispatched is
//     an issue cycle of that site (additional decodes in the same step —
//     a VLIW execute packet — share the cycle, which is exactly what
//     "parallel dispatch" means);
//   - a step in which nothing is dispatched is a penalty cycle charged to
//     the most recently dispatched site (multicycle-NOP stalls, memory
//     wait states and branch-shadow bubbles all show up here);
//   - steps before the first dispatch of the run are idle cycles (after
//     the last dispatch the drain/halt steps are penalty cycles of the
//     final instruction, typically the halt).
//
// The invariant Σ issue + Σ penalty + idle == simulated steps therefore
// holds by construction, and the pprof/folded exports preserve it: penalty
// cycles appear as a <stall> frame below their instruction, so a flame
// graph shows both where cycles are spent and why.
//
// Sites are keyed by instruction word, resolved to program addresses via
// the loaded image; a word stored at several addresses is reported as one
// merged site (all its addresses listed). Per-operation stage cycles (one
// per OnExec) come from the run's trace.Counters and — where the packet
// carrying an instruction can be linked to its dispatch — per site.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"golisa/internal/asm"
	"golisa/internal/trace"
)

// Site is one profiled instruction site: a distinct instruction word and
// the program addresses holding it.
type Site struct {
	Word  uint64   // the instruction word
	Addr  uint64   // first program address holding the word
	Addrs []uint64 // every address holding the word (len > 1 = merged site)
	Text  string   // disassembled syntax ("" until resolved)

	IssueCycles   uint64 // control steps this site dispatched in
	PenaltyCycles uint64 // non-dispatching steps charged to this site
	Dispatches    uint64 // decode events (≥ IssueCycles on VLIW packets)
	StallEvents   uint64 // stall requests raised while this site was current
	FlushEvents   uint64 // flushes raised while this site was current

	// StallCauses splits StallEvents by hazard cause; unattributed stalls
	// (trace.CauseNone) appear only in StallEvents.
	StallCauses [trace.NumCauses]uint64

	// Ops counts per-operation stage cycles, by operation id, for
	// executions whose pipeline packet was linked back to this site's
	// dispatch; nil until one is.
	Ops []uint64
}

// Cycles returns the site's total step-cycle attribution.
func (s *Site) Cycles() uint64 { return s.IssueCycles + s.PenaltyCycles }

// Label renders the site's address, syntax and merge count for reports.
func (s *Site) Label() string {
	text := s.Text
	if text == "" {
		text = fmt.Sprintf(".word %#x", s.Word)
	}
	if len(s.Addrs) > 1 {
		return fmt.Sprintf("%04x: %s (×%d sites)", s.Addr, text, len(s.Addrs))
	}
	return fmt.Sprintf("%04x: %s", s.Addr, text)
}

// OpStat aggregates per-operation execution cycles (one stage cycle per
// execution) over the whole run.
type OpStat struct {
	Name   string
	Cycles uint64
}

// Options configures a Profiler.
type Options struct {
	// Source names the profiled program in reports (e.g. "fir.s").
	Source string
	// Model names the machine model in reports.
	Model string
	// Origin and Words describe the loaded program image; they resolve
	// instruction words back to program addresses.
	Origin uint64
	Words  []uint64
	// Dis, when non-nil, resolves sites to assembly text.
	Dis *asm.Disassembler
}

// Profiler builds a cycle-attribution profile of the simulated target
// program. Its steps, idle cycles and per-operation cycles are read from
// a trace.Counters; the profiler itself observes only its word-keyed site
// table and the packet-to-site link, which OnAttach empties. It is a
// trace.Sink: trace.Fanout (and so sim.Simulator.SetObserver) attaches
// its Counters beside it.
type Profiler struct {
	trace.Nop

	opts  Options
	c     *trace.Counters
	addrs map[uint64][]uint64 // word -> program addresses

	sites      map[uint64]*Site // keyed by instruction word
	packetSite map[uint64]*Site // live pipeline packet -> dispatching site
	ops        int              // operations in the attached topology

	last      *Site // most recently dispatched site
	decoded   bool  // a dispatch happened this step
	awaitLink *Site // dispatch waiting for its carrying packet id
}

// New creates a profiler for one program image.
func New(opts Options) *Profiler {
	p := &Profiler{
		opts:       opts,
		c:          trace.NewCounters(),
		addrs:      make(map[uint64][]uint64, len(opts.Words)),
		sites:      map[uint64]*Site{},
		packetSite: map[uint64]*Site{},
	}
	for i, w := range opts.Words {
		p.addrs[w] = append(p.addrs[w], opts.Origin+uint64(i))
	}
	return p
}

// Counts implements trace.Sink.
func (p *Profiler) Counts() *trace.Counters { return p.c }

// Share implements trace.Sink: the site table still needs the events.
func (p *Profiler) Share(c *trace.Counters) trace.Observer {
	p.c = c
	return p
}

// Steps returns the number of profiled control steps.
func (p *Profiler) Steps() uint64 { return p.c.Steps }

// IdleCycles returns the steps charged to no site (a dispatch-free prefix
// of the run).
func (p *Profiler) IdleCycles() uint64 { return p.c.Idle }

// TotalCycles returns the sum of all attributed cycles; it always equals
// Steps().
func (p *Profiler) TotalCycles() uint64 {
	total := p.c.Idle
	for _, s := range p.sites {
		total += s.Cycles()
	}
	return total
}

func (p *Profiler) site(word uint64) *Site {
	s := p.sites[word]
	if s == nil {
		s = &Site{Word: word}
		if addrs := p.addrs[word]; len(addrs) > 0 {
			s.Addr, s.Addrs = addrs[0], addrs
		} else {
			s.Addrs = []uint64{0}
		}
		p.sites[word] = s
	}
	return s
}

// OnAttach implements trace.Observer: the site table starts afresh.
func (p *Profiler) OnAttach(t *trace.Topology) {
	clear(p.sites)
	clear(p.packetSite)
	p.ops = len(t.Ops)
	p.last, p.decoded, p.awaitLink = nil, false, nil
}

// OnStepBegin implements trace.Observer.
func (p *Profiler) OnStepBegin(step uint64) {
	p.decoded = false
	p.awaitLink = nil
}

// OnStepEnd implements trace.Observer. Steps without a dispatch are
// penalty cycles of the last dispatched site.
func (p *Profiler) OnStepEnd(uint64) {
	if !p.decoded && p.last != nil {
		p.last.PenaltyCycles++
	}
}

// OnDecode implements trace.Observer: every decode of a coding root is one
// dispatch of the word's site.
func (p *Profiler) OnDecode(root int, word uint64, hit bool) {
	s := p.site(word)
	s.Dispatches++
	if !p.decoded {
		p.decoded = true
		s.IssueCycles++
	}
	p.last = s
	p.awaitLink = s
}

// OnExec implements trace.Observer. The execution directly following a
// decode is the coding root's own, carrying the pipeline packet the
// dispatched instruction rides; later executions on a linked packet are
// charged to the dispatching site.
func (p *Profiler) OnExec(op, pipe, stage int, packet uint64) {
	if p.awaitLink != nil {
		if packet != 0 {
			p.packetSite[packet] = p.awaitLink
		}
		p.awaitLink = nil
		return // the root's own execution is bookkeeping, not program work
	}
	if op < 0 || op >= p.ops || packet == 0 {
		return
	}
	if s := p.packetSite[packet]; s != nil {
		if s.Ops == nil {
			s.Ops = make([]uint64, p.ops)
		}
		s.Ops[op]++
	}
}

// OnStall implements trace.Observer: stall requests raised while a site is
// current are counted against it, split by hazard cause so reports can say
// which hazard class an instruction pays for (the stall's penalty cycles
// surface as PenaltyCycles on the following dispatch-free steps).
func (p *Profiler) OnStall(info trace.StallInfo) {
	if p.last == nil {
		return
	}
	p.last.StallEvents++
	if info.Cause < trace.NumCauses {
		p.last.StallCauses[info.Cause]++
	}
}

// OnFlush implements trace.Observer.
func (p *Profiler) OnFlush(trace.StallInfo) {
	if p.last != nil {
		p.last.FlushEvents++
	}
}

// OnRetire implements trace.Observer: a retired packet's site link is
// dropped, bounding the link table by the pipeline depth.
func (p *Profiler) OnRetire(pipe, stage int, packet uint64, entries int) {
	delete(p.packetSite, packet)
}

// resolve fills in disassembled syntax for every site.
func (p *Profiler) resolve() {
	if p.opts.Dis == nil {
		return
	}
	for _, s := range p.sites {
		if s.Text != "" {
			continue
		}
		if text, err := p.opts.Dis.Disassemble(s.Word); err == nil {
			s.Text = text
		}
	}
}

// Sites returns all profiled sites sorted by total cycles, descending
// (ties broken by address), with syntax resolved.
func (p *Profiler) Sites() []*Site {
	p.resolve()
	sites := make([]*Site, 0, len(p.sites))
	for _, s := range p.sites {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Cycles() != sites[j].Cycles() {
			return sites[i].Cycles() > sites[j].Cycles()
		}
		return sites[i].Addr < sites[j].Addr
	})
	return sites
}

// OpStats returns per-operation cycle totals sorted by cycles, descending:
// every execution but a decoded coding root's own.
func (p *Profiler) OpStats() []*OpStat {
	var ops []*OpStat
	for id, o := range p.c.Ops {
		if n := o.Execs - o.RootExecs; n > 0 {
			ops = append(ops, &OpStat{Name: p.c.Topo.Op(id), Cycles: n})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Cycles != ops[j].Cycles {
			return ops[i].Cycles > ops[j].Cycles
		}
		return ops[i].Name < ops[j].Name
	})
	return ops
}

// WriteText emits the hot-spot report: per-site cycle attribution with
// cumulative percentages, followed by the per-operation breakdown.
func (p *Profiler) WriteText(w io.Writer) error { return p.writeReport(w, 0) }

// WriteTop emits the same report limited to the n hottest sites.
func (p *Profiler) WriteTop(w io.Writer, n int) error { return p.writeReport(w, n) }

func (p *Profiler) writeReport(w io.Writer, limit int) error {
	ew := &errWriter{w: w}
	sites := p.Sites()
	if limit > 0 && limit < len(sites) {
		sites = sites[:limit]
	}
	fmt.Fprintf(ew, "# golisa profile: %s on %s, %d control steps\n",
		nonEmpty(p.opts.Source, "<program>"), nonEmpty(p.opts.Model, "<model>"), p.c.Steps)
	fmt.Fprintf(ew, "# step-cycle attribution (issue + penalty == steps)\n")
	fmt.Fprintf(ew, "%8s %6s %6s %8s %8s %7s %6s %6s  %s\n",
		"CYCLES", "%", "CUM%", "ISSUE", "PENALTY", "DISP", "STALL", "FLUSH", "SITE")
	var cum uint64
	total := p.c.Steps
	if total == 0 {
		total = 1
	}
	for _, s := range sites {
		cum += s.Cycles()
		fmt.Fprintf(ew, "%8d %5.1f%% %5.1f%% %8d %8d %7d %6d %6d  %s%s\n",
			s.Cycles(),
			100*float64(s.Cycles())/float64(total),
			100*float64(cum)/float64(total),
			s.IssueCycles, s.PenaltyCycles, s.Dispatches,
			s.StallEvents, s.FlushEvents, s.Label(), causeSuffix(s))
	}
	if idle := p.c.Idle; idle > 0 {
		fmt.Fprintf(ew, "%8d %5.1f%%                                            <idle>\n",
			idle, 100*float64(idle)/float64(total))
	}
	ops := p.OpStats()
	if len(ops) > 0 {
		fmt.Fprintf(ew, "\n# operation stage cycles (one per execution; pipeline-parallel)\n")
		for _, o := range ops {
			fmt.Fprintf(ew, "%8d  %s\n", o.Cycles, o.Name)
		}
	}
	return ew.err
}

// WriteFolded emits folded stacks in the flamegraph.pl input format: one
// `frame;frame;... count` line per stack. Penalty cycles nest as a
// <stall> frame under their instruction, so the flame graph shows both
// where cycles go and why. Totals sum to Steps().
func (p *Profiler) WriteFolded(w io.Writer) error {
	ew := &errWriter{w: w}
	root := nonEmpty(p.opts.Source, "program")
	for _, s := range p.Sites() {
		label := foldedFrame(s.Label())
		if s.IssueCycles > 0 {
			fmt.Fprintf(ew, "%s;%s %d\n", root, label, s.IssueCycles)
		}
		if s.PenaltyCycles > 0 {
			fmt.Fprintf(ew, "%s;%s;<stall> %d\n", root, label, s.PenaltyCycles)
		}
	}
	if p.c.Idle > 0 {
		fmt.Fprintf(ew, "%s;<idle> %d\n", root, p.c.Idle)
	}
	return ew.err
}

// causeSuffix renders a site's stall-cause split, e.g. " [data:12 control:3]".
func causeSuffix(s *Site) string {
	var parts []string
	for _, c := range trace.Causes {
		if n := s.StallCauses[c]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", c, n))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	sort.Strings(parts)
	return " [" + strings.Join(parts, " ") + "]"
}

// foldedFrame strips the two characters folded stacks give structural
// meaning (';' separates frames, ' ' separates the count).
func foldedFrame(s string) string {
	s = strings.ReplaceAll(s, ";", ",")
	return strings.ReplaceAll(s, " ", "_")
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}
