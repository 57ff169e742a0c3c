package gosim

import (
	_ "embed"
	"fmt"
	"go/format"
	"strconv"
	"strings"

	"golisa/internal/model"
	"golisa/internal/perf"
)

// kernelSrc is kernel.go, which every runner carries from its import
// declaration on.
//
//go:embed kernel.go
var kernelSrc string

// EmitSource returns the model's runner: a self-contained single-file Go
// main package that serves any program of the model. Architectural state
// becomes package-level variables (s_<name> scalars, m_<name> memories),
// which step(n) copies into locals while it runs, and each control step
// runs main's items and then, for every pipeline stage, a switch on the
// leaf of the word in the stage that runs that leaf's work there over its
// LABEL fields, all over the model-independent kernel (kernel.go).
// The runner reads each run's program image and decode table from stdin,
// resets all of its state, decodes every image address once, self-times
// its step loop, and replies over the runner protocol (proto.go).
//
// The source depends on the model alone: it is emitted once per model
// and shared by every Program of it.
func (p *Program) EmitSource() ([]byte, error) {
	src, _, err := p.source()
	return src, err
}

// source emits the runner once and names it: the key is the hash of
// everything above the final runnerKey line, which the runner reports in
// its handshake.
func (p *modelIR) source() ([]byte, string, error) {
	p.srcOnce.Do(func() {
		g := &gen{p: p}
		g.tested = g.testedStages()
		g.file()
		body, err := format.Source([]byte(g.b.String()))
		if err != nil {
			p.srcErr = fmt.Errorf("gosim: emitted source does not format (emitter bug): %w", err)
			return
		}
		p.key = perf.HashString(string(body))
		p.src = fmt.Appendf(body, "\n// runnerKey names this runner: the hash of the source above.\nconst runnerKey = %q\n", p.key)
	})
	return p.src, p.key, p.srcErr
}

type gen struct {
	p *modelIR
	b strings.Builder
	// local is set while step() is emitted: state names resolve to the
	// locals it runs on.
	local  bool
	tested uint64 // the stages whose switch tests a word's bit (testedStages)
}

func (g *gen) pf(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// raw writes a literal block (no format expansion).
func (g *gen) raw(s string) {
	g.b.WriteString(s)
	g.b.WriteByte('\n')
}

// staged returns the leaves that have work in stage s.
func (g *gen) staged(s int) []*leaf {
	var out []*leaf
	for _, l := range g.p.leaves {
		if l.err == nil && len(l.work[s]) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// testedStages returns, as bits, the stages whose switch the step loop
// enters only for a word with work there: where at most half of the
// leaves have work, as in simple16's WB, which only LD uses. Where most
// have work, as in its EX, the test costs more than the switch it skips.
func (g *gen) testedStages() (bits uint64) {
	handled := 0
	for _, l := range g.p.leaves {
		if l.err == nil {
			handled++
		}
	}
	for s := range min(g.p.depth, 64) {
		if n := len(g.staged(s)); n > 0 && 2*n <= handled {
			bits |= 1 << s
		}
	}
	return bits
}

// sv names scalar r's variable of a kind: "s" its value, and "pv" and
// "ps" a latch's pending value and flag. The dispatch register holds a
// program address instead of its value, in a_<name> and pa_<name>. In
// step() sv names the local copy.
func (g *gen) sv(kind string, r *model.Resource) string {
	if r == g.p.rootRes {
		switch kind {
		case "s":
			kind = "a"
		case "pv":
			kind = "pa"
		}
	}
	if g.local {
		return "l" + kind + "_" + r.Name
	}
	return kind + "_" + r.Name
}

// read emits a read of scalar r. The dispatch register always holds
// program memory's element at its address (checkDispatchSafety), fitted
// to its width.
func (g *gen) read(r *model.Resource) string {
	if r == g.p.rootRes {
		pm := g.p.progMem
		return fit(fmt.Sprintf("rd_%s(%s)", pm.Name, g.sv("s", r)), pm.Width, r.Width)
	}
	return g.sv("s", r)
}

// stateVars names the state step() runs on, as g.local resolves it:
// every scalar, the latches' pending writes, the stage slots and the
// cycle count.
func (g *gen) stateVars() (vs []string) {
	for _, r := range g.p.scalars {
		if r != nil {
			vs = append(vs, g.sv("s", r))
		}
	}
	for _, r := range g.p.latches {
		vs = append(vs, g.sv("pv", r), g.sv("ps", r))
	}
	slot, cycle := "pipe[%d]", "cycle"
	if g.local {
		slot, cycle = "p%d", "cyc"
	}
	for s := range g.p.depth {
		vs = append(vs, fmt.Sprintf(slot, s))
	}
	return append(vs, cycle)
}

// traced reports whether the protocol reports a memory's state: every
// memory but program memory, which no behavior writes.
func (g *gen) traced(r *model.Resource) bool { return r != nil && r != g.p.progMem }

func (g *gen) file() {
	p := g.p
	g.pf("// Code generated by golisa's gosim compiler. DO NOT EDIT.")
	g.pf("//")
	g.pf("// runner for model hash %s: %d coding leaves, pipeline depth %d", p.hash, len(p.leaves), p.depth)
	g.pf("//")
	cmd := []string{"go"}
	for _, a := range buildArgs {
		if strings.Contains(a, " ") {
			a = strconv.Quote(a)
		}
		cmd = append(cmd, a)
	}
	g.pf("// built by: %s -o runner .", strings.Join(cmd, " "))
	g.pf("//")
	g.pf("// leaves (id: instruction, LABEL fields):")
	for _, l := range p.leaves {
		switch {
		case l.err != nil:
			g.pf("//   %d: unsupported: %v", l.id, l.err)
		default:
			g.pf("//   %d: %s, %d fields", l.id, l.name, l.nField)
		}
	}
	g.pf("package main")
	g.pf("")
	// The glue's imports, then the kernel's: Go refuses a package imported
	// twice, so the two sets must stay apart. The runner links no fmt: the
	// kernel renders its texts.
	g.raw(`import (
	"bufio"
	"os"
	"time"
)
`)
	g.raw(kernelSrc[strings.Index(kernelSrc, "\nimport")+1:])
	g.pf("const (")
	g.pf("\tmodelHash = %q", p.hash)
	g.pf("\tnField    = %d", p.nField)
	g.pf("\tdepth     = %d", p.depth)
	g.pf("\tprogBase  = %#x // program memory's first address", p.progMem.Base)
	g.pf("\tprogSize  = %d // and its words", p.progMem.Size)
	g.pf(")")
	g.state()
	g.memHelpers()
	g.stateDump()
	g.resetFn()
	g.handledFn()
	g.dispatchFn()
	g.stepFn()
	g.mainFn()
}

// state emits the flattened architectural state, the decoded program and
// the pipeline's stages.
func (g *gen) state() {
	p := g.p
	g.pf("")
	g.pf("// architectural state, slot-flattened")
	g.pf("var (")
	for _, r := range p.scalars {
		switch {
		case r == p.rootRes:
			g.pf("\ta_%s uint64 // %s is %s[a_%s], in %d bits", r.Name, r.Name, p.progMem.Name, r.Name, r.Width)
		case r != nil:
			g.pf("\ts_%s uint64 // %d bits", r.Name, r.Width)
		}
	}
	for _, r := range p.arrays {
		if r != nil {
			g.pf("\tm_%s [%d]uint64 // %d bits each", r.Name, r.Total(), r.Width)
		}
		if g.traced(r) {
			g.pf("\tsh_%s [%d]uint64 // m_%s as the trace last reported it", r.Name, r.Total(), r.Name)
		}
	}
	for _, r := range p.latches {
		g.pf("\t%s uint64", g.sv("pv", r))
		g.pf("\tps_%s bool", r.Name)
	}
	if p.nLoc > 0 {
		g.pf("\tloc [%d]uint64", p.nLoc)
	}
	g.pf(")")
	g.pf("")
	g.raw(`// dw is one decoded program word: its leaf and LABEL fields, or the
// error dispatching it raises.
type dw struct {
	f    [nField]uint64
	leaf int
	err  string
	st   uint64 // bit s: the leaf has work in stage s, where tested
}`)
	if g.tested != 0 {
		bits := make([]string, len(p.leaves))
		for i, l := range p.leaves {
			var m uint64
			for s := range p.depth {
				if g.tested&(1<<s) != 0 && len(l.work[s]) > 0 {
					m |= 1 << s
				}
			}
			bits[i] = fmt.Sprintf("%#x", m)
		}
		g.pf("\n// stageWork holds each leaf's bits of dw.st.")
		g.pf("var stageWork = [%d]uint64{%s}", len(bits), strings.Join(bits, ", "))
	}
	g.raw(`
var (
	pipe   [depth]*dw // by stage: the word whose work there runs this cycle
	cycle  uint64
	runErr string
	words  []dw  // the program's decoded words
	tab    table // their dispatch keys
	out    *bufio.Writer
	line   []byte
)`)
	if p.root != nil {
		g.raw(`
// The image's addresses, decoded once: at[a-org] is the word a fetch
// from address a dispatches, nil where dispatch() must decide.
var (
	org uint64
	at  []*dw
)`)
	}
	g.raw(`
func fail(msg string) {
	if runErr == "" {
		runErr = atCycle(cycle, msg)
	}
}

// emitP writes a print() line as it retires.
func emitP(s string) {
	line = append(appendStr(append(line[:0], 'p'), s), '\n')
	out.Write(line)
}`)
}

// memHelpers emits the per-memory bounds-checked accessors (out-of-range
// reads yield 0, writes drop, like model.State).
func (g *gen) memHelpers() {
	for _, r := range g.p.arrays {
		if r == nil {
			continue
		}
		g.pf("")
		g.pf("func rd_%s(a uint64) uint64 {", r.Name)
		if r.Base != 0 {
			g.pf("\ta -= %#x", r.Base)
		}
		g.pf("\tif a < %d {", r.Size)
		g.pf("\t\treturn m_%s[a]", r.Name)
		g.pf("\t}")
		g.pf("\treturn 0")
		g.pf("}")
		g.pf("")
		g.pf("func wr_%s(a, v uint64) {", r.Name)
		if r.Base != 0 {
			g.pf("\ta -= %#x", r.Base)
		}
		g.pf("\tif a < %d {", r.Size)
		g.pf("\t\tm_%s[a] = v & %#x", r.Name, mask(r.Width))
		g.pf("\t}")
		g.pf("}")
	}
}

// stateDump emits the slot-indexed state the protocol reports: every
// scalar, and per memory either its nonzero elements (the result) or
// the elements that changed since the last trace line, as (index,
// value) pairs. Program memory is the host's own image and is never
// reported. The trace compares against a shadow copy, so the memory
// writes on the step loop's path stay as small as an untraced run needs.
func (g *gen) stateDump() {
	p := g.p
	g.pf("")
	g.pf("func scalars() []uint64 {")
	parts := make([]string, len(p.scalars))
	for i, r := range p.scalars {
		if r == nil {
			parts[i] = "0"
		} else {
			parts[i] = g.read(r)
		}
	}
	g.pf("\treturn []uint64{%s}", strings.Join(parts, ", "))
	g.pf("}")
	dump := make([]string, len(p.arrays))
	delta := make([]string, len(p.arrays))
	for i, r := range p.arrays {
		dump[i], delta[i] = "nil", "nil"
		if g.traced(r) {
			dump[i] = "nonzero(m_" + r.Name + "[:])"
			delta[i] = "changed(m_" + r.Name + "[:], sh_" + r.Name + "[:])"
		}
	}
	g.pf("")
	g.pf("func memDump() [][]uint64 {")
	g.pf("\treturn [][]uint64{%s}", strings.Join(dump, ", "))
	g.pf("}")
	g.pf("")
	g.pf("func memDelta() [][]uint64 {")
	g.pf("\treturn [][]uint64{%s}", strings.Join(delta, ", "))
	g.pf("}")
}

// commit emits the latch commit at the given indentation: every pending
// write takes effect.
func (g *gen) commit(depth int) {
	ind := strings.Repeat("\t", depth)
	for _, r := range g.p.latches {
		g.pf("%sif %s {", ind, g.sv("ps", r))
		g.pf("%s\t%s = %s", ind, g.sv("s", r), g.sv("pv", r))
		g.pf("%s\t%s = false", ind, g.sv("ps", r))
		g.pf("%s}", ind)
	}
}

// resetFn emits the per-run reset: every variable back to zero, then
// the model's reset behavior (latch writes take effect immediately).
func (g *gen) resetFn() {
	p := g.p
	g.pf("")
	g.pf("func resetSim() {")
	for _, r := range p.scalars {
		if r != nil && r != p.rootRes {
			g.pf("\ts_%s = 0", r.Name)
		}
	}
	for _, r := range p.arrays {
		if r != nil {
			g.pf("\tclear(m_%s[:])", r.Name)
		}
		if g.traced(r) {
			g.pf("\tclear(sh_%s[:])", r.Name)
		}
	}
	for _, r := range p.latches {
		g.pf("\tps_%s = false", r.Name)
	}
	g.pf("\tpipe = [depth]*dw{}")
	g.pf("\tcycle, runErr = 0, \"\"")
	g.stmts(p.resetB, 1)
	g.commit(1)
	g.pf("}")
}

// handledFn emits handled, which is false for the leaves the IR cannot
// compile: no request names them.
func (g *gen) handledFn() {
	var unhandled []string
	for _, l := range g.p.leaves {
		if l.err != nil {
			unhandled = append(unhandled, strconv.Itoa(l.id))
		}
	}
	g.pf("")
	g.pf("// handled reports whether the runner has the leaf's handlers.")
	g.pf("func handled(leaf uint64) bool {")
	if len(unhandled) > 0 {
		g.pf("\tswitch leaf {")
		g.pf("\tcase %s:", strings.Join(unhandled, ", "))
		g.pf("\t\treturn false")
		g.pf("\t}")
	}
	g.pf("\treturn leaf < %d", len(g.p.leaves))
	g.pf("}")
}

// dispatchFn emits the decode-table lookup of a dispatch key, which
// returns the word that enters stage 0, or nil when the dispatch fails:
// the path of a dispatch that the image's index does not answer.
func (g *gen) dispatchFn() {
	if g.p.root == nil {
		return
	}
	g.raw(`
func dispatch(k uint64) *dw {
	if i := tab.get(k); i < 0 {
		fail(unknownWord(k))
	} else if d := &words[i]; d.err != "" {
		fail(d.err)
	} else {
		return d
	}
	return nil
}`)
}

// stepFn emits the step loop, step(n): up to n control steps, each the
// main behavior, main's activation items (every condition first, then the
// items that hold), the work of the word in each stage (stage-ascending,
// stage 0 being the word the items dispatched), the latch commit, and the
// pipeline shift. A stage's work is a switch on the leaf of the word in
// it, each case that leaf's work there, entered only when the word's
// stage bit says it has work there (tested). The loop stops early at halt
// or a run error; an untraced run is one call.
//
// The loop runs on locals: every scalar, the dispatch address, the
// latches' pending writes, the stage slots (p0, p1, ...) and the cycle
// count (cyc) are copied in when step starts and written back after the
// loop, whether it ends at halt, at the step limit or on a run error.
// The one call that reads them, fail() through dispatch(), reads the
// cycle count, which is written back before it.
func (g *gen) stepFn() {
	p := g.p
	pkg := g.stateVars()
	g.local = true
	loc := g.stateVars()
	slots := loc[len(loc)-1-p.depth : len(loc)-1]
	g.pf("")
	g.pf("func step(n uint64) (steps uint64) {")
	g.pf("\t%s := %s", strings.Join(loc, ", "), strings.Join(pkg, ", "))
	g.pf("\tfor ; %s; steps++ {", g.running("n"))
	g.stmts(p.mainB, 2)
	for i, it := range p.items {
		if it.cond != nil {
			g.pf("\t\tc%d := (%s) != 0", i, g.expr(it.cond))
		}
	}
	for i, it := range p.items {
		if it.cond != nil {
			g.pf("\t\tif c%d { // main -> %s", i, it.opName)
			g.stmts(it.body, 3)
			g.pf("\t\t}")
		} else {
			g.pf("\t\t// main -> %s", it.opName)
			g.stmts(it.body, 2)
		}
	}
	for s := range p.depth {
		staged := g.staged(s)
		if len(staged) == 0 {
			continue
		}
		test := ""
		if bit := g.tested & (1 << s); bit != 0 {
			test = fmt.Sprintf(" && d.st&%#x != 0", bit)
		}
		g.pf("\t\tif d := p%d; d != nil%s { // dispatched %d cycles ago", s, test, s)
		g.pf("\t\t\tswitch d.leaf {")
		for _, l := range staged {
			g.pf("\t\t\tcase %d: // %s", l.id, l.name)
			g.stmts(l.work[s], 4)
		}
		g.pf("\t\t\t}")
		g.pf("\t\t}")
	}
	g.commit(2)
	g.pf("\t\t%s = %s", strings.Join(slots, ", "), strings.Join(append([]string{"nil"}, slots[:len(slots)-1]...), ", "))
	g.pf("\t\tcyc++")
	g.raw(`		if runErr != "" {
			break
		}
	}`)
	g.pf("\t%s = %s", strings.Join(pkg, ", "), strings.Join(loc, ", "))
	g.pf("\treturn")
	g.pf("}")
	g.local = false
}

// running is the condition under which the run goes on for at most
// limit steps.
func (g *gen) running(limit string) string {
	if h := g.p.halt; h != nil {
		return fmt.Sprintf("steps < %s && %s == 0", limit, g.read(h))
	}
	return "steps < " + limit
}

// mainFn emits the protocol loop (proto.go): the handshake, then one run
// per request line — load, self-timed step loop, reply — until stdin
// closes.
func (g *gen) mainFn() {
	p := g.p
	g.pf("")
	g.raw(`// load resets the machine and installs a request's program: the image
// in program memory and the decode table of its distinct words. A request
// that is malformed, whose image runs past program memory, or that names a
// leaf without a handler, is refused.
func load(l string) (request, bool) {
	q, ok := readRequest(l, nField, progBase, progSize)
	if !ok {
		return q, false
	}
	resetSim()
	for i, w := range q.image {`)
	g.pf("\t\twr_%s(q.origin+uint64(i), w)", p.progMem.Name)
	g.raw(`	}
	words, tab = make([]dw, len(q.errs)), q.tab
	for i := range words {
		d := &words[i]
		d.err = q.errs[i]
		if d.err == "" {
			if !handled(q.leaves[i]) {
				return q, false
			}
			d.leaf = int(q.leaves[i])
			copy(d.f[:], q.fields[i*nField:])`)
	if g.tested != 0 {
		g.raw("\t\t\td.st = stageWork[d.leaf]")
	}
	g.raw(`		}
	}`)
	if r := p.rootRes; r != nil {
		// Program memory holds the image from here on: no behavior writes
		// it (checkDispatchSafety).
		g.pf(`	clear(at) // the last request's words go unreferenced
	org, at = q.origin, at[:0]
	for i := range q.image {
		var d *dw
		if j := tab.get(rd_%s(org+uint64(i)) & %#x); j >= 0 && words[j].err == "" {
			d = &words[j]
		}
		at = append(at, d)
	}
	// The register as reset: org-1 lies outside the image, where program
	// memory reads 0, the register's value after reset, and the first
	// dispatch from it reads the table.
	a_%s = org - 1`, p.progMem.Name, mask(p.dispW), r.Name)
	}
	g.pf(`	return q, true
}

func run(q request) {
	var steps uint64
	start := time.Now()
	if q.trace != 0 {
		for %s {
			step(1)
			line = append(appendState(appendNum(append(line[:0], 'c'), cycle), scalars(), memDelta()), '\n')
			out.Write(line)
			if runErr != "" {
				break
			}
			steps++
		}
	} else {
		steps = step(q.max)
	}`, g.running("q.max"))
	g.raw(`	wall := uint64(time.Since(start).Nanoseconds())
	line = appendState(appendNum(appendNum(append(line[:0], 'r'), steps), wall), scalars(), memDump())
	line = append(appendStr(line, runErr), '\n')
	out.Write(line)
}

func main() {
	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	out = bufio.NewWriterSize(os.Stdout, 1<<16)
	out.Write(append(appendStr(appendStr([]byte{'h'}, modelHash), runnerKey), '\n'))
	out.Flush()
	for {
		l, err := in.ReadString('\n')
		if err != nil {
			return // stdin closed: the host is done with this runner
		}
		q, ok := load(l)
		if !ok {
			os.Exit(2) // a malformed request: no reply, so the host drops this runner
		}
		run(q)
		out.Flush()
	}
}`)
}

// ---- statement emission --------------------------------------------------

func (g *gen) stmts(list []*stmt, depth int) {
	ind := strings.Repeat("\t", depth)
	for _, s := range list {
		switch s.kind {
		case sAssign:
			g.pf("%s%s", ind, g.assign(s.lhs, s.rhs))
		case sIf:
			g.pf("%sif (%s) != 0 {", ind, g.expr(s.cond))
			g.stmts(s.then, depth+1)
			if len(s.els) > 0 {
				g.pf("%s} else {", ind)
				g.stmts(s.els, depth+1)
			}
			g.pf("%s}", ind)
		case sPrint:
			g.pf("%semitP(%s)", ind, g.printArg(s.parts))
		case sDispatch:
			pm, a := g.p.progMem, g.sv("s", g.p.rootRes)
			g.pf("%sif i := %s - org; i < uint64(len(at)) && at[i] != nil {", ind, a)
			g.pf("%s\tp0 = at[i]", ind)
			g.pf("%s} else {", ind)
			g.pf("%s\tcycle = cyc", ind)
			g.pf("%s\tp0 = dispatch(%s)", ind, fit(fmt.Sprintf("rd_%s(%s)", pm.Name, a), pm.Width, g.p.dispW))
			g.pf("%s}", ind)
		}
	}
}

func (g *gen) printArg(parts []printPart) string {
	if len(parts) == 0 {
		return `""`
	}
	segs := make([]string, len(parts))
	for i, pp := range parts {
		if pp.isStr {
			segs[i] = strconv.Quote(pp.str)
		} else if pp.signed {
			segs[i] = fmt.Sprintf("fmtS(%s, %d)", g.expr(pp.x), pp.x.w)
		} else {
			segs[i] = fmt.Sprintf("fmtU(%s)", g.expr(pp.x))
		}
	}
	return strings.Join(segs, ` + " " + `)
}

func (g *gen) assign(lhs *lval, rhs *expr) string {
	rs := g.expr(rhs)
	switch lhs.kind {
	case lLocal:
		lw := lhs.local.w
		if lhs.local.signed && lhs.rhsW < lw {
			return fmt.Sprintf("loc[%d] = %s", lhs.local.idx, fit(fmt.Sprintf("sx(%s, %d)", rs, lhs.rhsW), 64, lw))
		}
		return fmt.Sprintf("loc[%d] = %s", lhs.local.idx, fit(rs, rhs.w, lw))
	case lScalar:
		r := lhs.res
		if r == g.p.rootRes {
			// The value is a program-memory element (checkDispatchSafety):
			// the register keeps only its address.
			return g.store(r, g.expr(rhs.idx))
		}
		return g.store(r, fit(rs, rhs.w, r.Width))
	case lSlice:
		r := lhs.res
		mm := mask(lhs.hi-lhs.lo+1) << uint(lhs.lo)
		merged := fmt.Sprintf("(%s &^ %#x) | (((%s) << %d) & %#x)", g.sv("s", r), mm, rs, lhs.lo, mm)
		return g.store(r, fit(merged, lhs.hi+1, r.Width))
	case lElem:
		if inRange(lhs.res, lhs.idx) {
			return fmt.Sprintf("m_%s[%s&%#x] = %s", lhs.res.Name, g.expr(lhs.idx), mask(lhs.idx.w), fit(rs, rhs.w, lhs.res.Width))
		}
		return fmt.Sprintf("wr_%s(%s, %s)", lhs.res.Name, g.expr(lhs.idx), rs)
	}
	panic("gosim: unknown lvalue kind")
}

// store emits a write of v to scalar r, pending until the commit if r
// is a latch.
func (g *gen) store(r *model.Resource, v string) string {
	if r.Latch {
		return fmt.Sprintf("%s, %s = %s, true", g.sv("pv", r), g.sv("ps", r), v)
	}
	return fmt.Sprintf("%s = %s", g.sv("s", r), v)
}

// fit emits s, a payload of width from, for a store of width to. The IR
// keeps every payload within its static width, so only a wider payload
// needs the mask, and a mask to 64 bits would be all ones.
func fit(s string, from, to int) string {
	if from <= to || to >= 64 {
		return s
	}
	return fmt.Sprintf("(%s) & %#x", s, mask(to))
}

// inRange reports whether every value of idx's static width addresses an
// element of r, as a register index field does its register file. The
// access then needs no bounds check: the mask lets the Go compiler see
// it, and changes no value, since the IR keeps every payload within its
// width.
func inRange(r *model.Resource, idx *expr) bool {
	return r.Base == 0 && idx.w < 64 && uint64(1)<<uint(idx.w) <= r.Size
}

// ---- expression emission -------------------------------------------------

// widen emits the arithmetic-widening conversion to the common width
// (sign-extension for narrower signed operands, identity otherwise).
func (g *gen) widen(c *expr, s string, to int) string {
	switch {
	case !c.signed || c.w >= to:
		return s
	case to >= 64:
		return fmt.Sprintf("sx(%s, %d)", s, c.w)
	}
	return fmt.Sprintf("(sx(%s, %d) & %#x)", s, c.w, mask(to))
}

// cmpInt emits the operand as the int64 the signed compare sees: signed
// operands sign-extend from their own width, unsigned ones from the
// common width.
func (g *gen) cmpInt(c *expr, s string, w int) string {
	if c.signed {
		return fmt.Sprintf("int64(sx(%s, %d))", s, c.w)
	}
	return fmt.Sprintf("int64(sx(%s, %d))", s, w)
}

func (g *gen) expr(e *expr) string {
	switch e.kind {
	case eConst:
		return fmt.Sprintf("%#x", e.k)
	case eLocal:
		return fmt.Sprintf("loc[%d]", e.local.idx)
	case eField:
		return fmt.Sprintf("d.f[%d]", e.n)
	case eScalar:
		return g.read(e.res)
	case eElem:
		if inRange(e.res, e.idx) {
			return fmt.Sprintf("m_%s[%s&%#x]", e.res.Name, g.expr(e.idx), mask(e.idx.w))
		}
		return fmt.Sprintf("rd_%s(%s)", e.res.Name, g.expr(e.idx))
	case eSlice:
		return fmt.Sprintf("((%s >> %d) & %#x)", g.expr(e.a), e.n, mask(e.w))
	case eUn:
		a := g.expr(e.a)
		switch e.op {
		case "-":
			return fmt.Sprintf("((-(%s)) & %#x)", a, mask(e.w))
		case "!":
			return fmt.Sprintf("b2i((%s) == 0)", a)
		case "~":
			return fmt.Sprintf("((^(%s)) & %#x)", a, mask(e.w))
		}
	case eBin:
		return g.bin(e)
	case eCond:
		return fmt.Sprintf("tern((%s) != 0, %s, %s)", g.expr(e.a), g.expr(e.b), g.expr(e.c))
	case eAbs:
		return fmt.Sprintf("absv(%s, %d)", g.expr(e.a), e.a.w)
	case eMinMax:
		if e.a.signed {
			return fmt.Sprintf("s%s(%s, %s, %d)", e.op, g.expr(e.a), g.expr(e.b), e.a.w)
		}
		return fmt.Sprintf("%s(%s, %s)", e.op, g.expr(e.a), g.expr(e.b))
	case eSat:
		return fmt.Sprintf("ssat(%s, %d, %d)", g.expr(e.a), e.a.w, e.n)
	case eSext:
		return fmt.Sprintf("sx(%s, %d)", g.expr(e.a), e.n)
	case eZext:
		return fmt.Sprintf("((%s) & %#x)", g.expr(e.a), mask(e.n))
	case eAddSat:
		return fmt.Sprintf("sadds(%s, %d, %s, %d, %v)", g.expr(e.a), e.a.w, g.expr(e.b), e.b.w, e.op == "-")
	}
	panic("gosim: unknown expression kind")
}

func (g *gen) bin(e *expr) string {
	l, r := e.a, e.b
	w := l.w
	if r.w > w {
		w = r.w
	}
	ls, rs := g.expr(l), g.expr(r)
	signed := l.signed || r.signed
	switch e.op {
	case "+", "-", "*":
		if w >= 64 {
			return fmt.Sprintf("(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
		}
		return fmt.Sprintf("((%s %s %s) & %#x)", g.widen(l, ls, w), e.op, g.widen(r, rs, w), mask(w))
	case "&", "|", "^":
		return fmt.Sprintf("(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
	case "==", "!=":
		return fmt.Sprintf("b2i(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
	case "/":
		if signed {
			return fmt.Sprintf("sdiv(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
		}
		return fmt.Sprintf("udiv(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
	case "%":
		if signed {
			return fmt.Sprintf("smod(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
		}
		return fmt.Sprintf("umod(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
	case "<", "<=", ">", ">=":
		if signed {
			return fmt.Sprintf("b2i(%s %s %s)", g.cmpInt(l, ls, w), e.op, g.cmpInt(r, rs, w))
		}
		// Unsigned compares are payload compares at the operands' own
		// widths (no widening).
		return fmt.Sprintf("b2i((%s) %s (%s))", ls, e.op, rs)
	case "<<":
		return fmt.Sprintf("shl(%s, %s, %d)", ls, rs, l.w)
	case ">>":
		if l.signed {
			return fmt.Sprintf("shrs(%s, %s, %d)", ls, rs, l.w)
		}
		return fmt.Sprintf("shru(%s, %s, %d)", ls, rs, l.w)
	case "&&":
		return fmt.Sprintf("b2i((%s) != 0 && (%s) != 0)", ls, rs)
	case "||":
		return fmt.Sprintf("b2i((%s) != 0 || (%s) != 0)", ls, rs)
	}
	panic("gosim: unknown binary operator " + e.op)
}
