package gosim

import (
	"bytes"
	"debug/buildinfo"
	"debug/elf"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"golisa/internal/core"
)

// opsProgB differs from opsProg in length and in what it prints.
const opsProgB = `
        IMM 7
        PRT
        CMP
        MEM 3
        PRT
        ARITH
        PRT
        HALT
`

// opsProgBad ends in a dispatch error: opcode 1001 does not decode.
const opsProgBad = `
        IMM 5
        PRT
        .word 0x9000
        HALT
`

// compileOn compiles one more program on an already loaded machine, so
// that all of a test's programs share the model's one runner.
func compileOn(t *testing.T, mc *core.Machine, src string) *Program {
	t.Helper()
	a, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(mc, prog)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// procsOf returns the cache's idle and live processes for p's runner.
func procsOf(t *testing.T, c *Cache, p *Program) (idle []*proc, live int) {
	t.Helper()
	_, key, err := p.source()
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil, 0
	}
	return append([]*proc(nil), e.idle...), len(e.live)
}

// sameRun demands that a native run equal a fresh IR run of the same
// program: steps, halt, prints, error and final state.
func sameRun(t *testing.T, label string, ir, nat *Result, irErr, natErr error) {
	t.Helper()
	if (irErr == nil) != (natErr == nil) || (irErr != nil && !strings.HasSuffix(natErr.Error(), irErr.Error())) {
		t.Fatalf("%s: error divergence: IR %v, native %v", label, irErr, natErr)
	}
	if !nat.Native {
		t.Fatalf("%s: run did not report Native", label)
	}
	if ir.Steps != nat.Steps || ir.Halted != nat.Halted {
		t.Fatalf("%s: IR (%d, %v), native (%d, %v)", label, ir.Steps, ir.Halted, nat.Steps, nat.Halted)
	}
	if fmt.Sprint(ir.Prints) != fmt.Sprint(nat.Prints) {
		t.Fatalf("%s: prints: IR %q, native %q", label, ir.Prints, nat.Prints)
	}
	if fmt.Sprint(ir.Scalars) != fmt.Sprint(nat.Scalars) || fmt.Sprint(ir.Arrays) != fmt.Sprint(nat.Arrays) {
		t.Fatalf("%s: final state divergence", label)
	}
}

// TestWarmRunnerServesManyPrograms runs programs of different lengths,
// prints and outcomes — including a dispatch error and a traced run — on
// one runner process, which must reset completely between them.
func TestWarmRunnerServesManyPrograms(t *testing.T) {
	needGo(t)
	mc, err := core.LoadMachine("opstest", opsModel)
	if err != nil {
		t.Fatal(err)
	}
	a := compileOn(t, mc, opsProg)
	b := compileOn(t, mc, opsProgB)
	bad := compileOn(t, mc, opsProgBad)
	c := NewCache(t.TempDir())
	defer c.Close()
	var first *proc
	for i, p := range []*Program{a, b, bad, a, a} {
		traced := i == 4
		var irSnaps, natSnaps []snap
		irOpt := Options{Backend: ForceIR}
		natOpt := Options{Backend: ForceNative}
		if traced {
			irOpt.OnCycleState = collector(&irSnaps)
			natOpt.OnCycleState = collector(&natSnaps)
		}
		ir, irErr := NewEngine(p, nil, irOpt).Run(10_000)
		nat, natErr := NewEngine(p, c, natOpt).Run(10_000)
		label := fmt.Sprintf("run %d", i)
		if nat == nil {
			t.Fatalf("%s: %v", label, natErr)
		}
		sameRun(t, label, ir, nat, irErr, natErr)
		if fmt.Sprint(irSnaps) != fmt.Sprint(natSnaps) {
			t.Fatalf("%s: per-cycle states diverge", label)
		}
		idle, live := procsOf(t, c, p)
		if len(idle) != 1 || live != 1 {
			t.Fatalf("%s: %d idle of %d live runner processes, want one warm process", label, len(idle), live)
		}
		if first == nil {
			first = idle[0]
		} else if idle[0] != first {
			t.Fatalf("%s: served by a new process", label)
		}
	}
	if c.Builds() != 1 {
		t.Fatalf("builds = %d, want 1 for three programs of one model", c.Builds())
	}
}

// TestKilledRunnerIsReplaced kills a warm runner mid-run: that run
// fails, the process is discarded, and the next run succeeds on a fresh
// process.
func TestKilledRunnerIsReplaced(t *testing.T) {
	needGo(t)
	mc, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	spin := compileOn(t, mc, "loop:   B loop\n        NOP\n        NOP\n        NOP\n")
	done := compileOn(t, mc, progLoop)
	c := NewCache(t.TempDir())
	defer c.Close()
	if _, err := NewEngine(done, c, Options{Backend: ForceNative}).Run(10_000); err != nil {
		t.Fatal(err)
	}
	idle, _ := procsOf(t, c, done)
	if len(idle) != 1 {
		t.Fatalf("%d idle processes after one run, want 1", len(idle))
	}
	victim := idle[0]
	errc := make(chan error, 1)
	go func() {
		_, err := NewEngine(spin, c, Options{Backend: ForceNative}).Run(1 << 62)
		errc <- err
	}()
	// The spinning run has begun once it checks the warm process out.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if idle, _ := procsOf(t, c, spin); len(idle) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the spinning run never took the warm process")
		}
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil {
		t.Fatal("run on a killed runner succeeded")
	}
	res, err := NewEngine(done, c, Options{Backend: ForceNative}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Native || !res.Halted {
		t.Fatalf("run after the kill: native=%v halted=%v", res.Native, res.Halted)
	}
	idle, live := procsOf(t, c, done)
	if len(idle) != 1 || live != 1 || idle[0] == victim {
		t.Fatalf("after the kill: %d idle of %d live processes, want one fresh process", len(idle), live)
	}
}

// TestRunnerRefusesImagePastMemory sends a runner a request whose image
// ends one word past program memory. The runner exits 2 without a reply,
// as it does for any malformed request, before it writes a word: it does
// not drop the words past the end and run over zeros.
func TestRunnerRefusesImagePastMemory(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progLoop)
	line := pastMemory(p)
	if _, ok := readRequest(string(line), p.nField, p.progMem.Base, p.progMem.Size+1); !ok {
		t.Fatal("the request does not read with one more word of program memory either")
	}
	path, _, err := NewCache(t.TempDir()).Runner(p)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(path)
	cmd.Stdin = bytes.NewReader(line)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("runner ended with %v, want exit status 2", err)
	}
	if !bytes.HasPrefix(out, []byte("h ")) || bytes.Count(out, []byte("\n")) != 1 {
		t.Fatalf("runner wrote %q, want its handshake alone", out)
	}
}

// TestRunnerBuiltLean builds a runner inside a git repository and reads
// it back: its build info records -ldflags "-s -w" and no VCS stamp, the
// binary holds no DWARF and no symbol table, and its source imports no
// fmt.
func TestRunnerBuiltLean(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progLoop)
	src, err := p.EmitSource()
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if imp.Path.Value == `"fmt"` {
			t.Error("the runner's source imports fmt")
		}
	}
	dir := t.TempDir()
	// Inside a repository, a build without -buildvcs=false stamps its
	// state, or fails while the repository has no commit.
	if git, err := exec.LookPath("git"); err == nil {
		if out, err := exec.Command(git, "init", "-q", dir).CombinedOutput(); err != nil {
			t.Fatalf("git init: %v\n%s", err, out)
		}
	}
	path, _, err := NewCache(dir).Runner(p)
	if err != nil {
		t.Fatal(err)
	}
	info, err := buildinfo.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ldflags := false
	for _, s := range info.Settings {
		switch {
		case s.Key == "-ldflags":
			ldflags = s.Value == "-s -w"
		case strings.HasPrefix(s.Key, "vcs"):
			t.Errorf("the runner is stamped %s=%s", s.Key, s.Value)
		}
	}
	if !ldflags {
		t.Errorf("the runner's build settings %v lack -ldflags=\"-s -w\"", info.Settings)
	}
	if runtime.GOOS != "linux" {
		return
	}
	bin, err := elf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	for _, name := range []string{".debug_info", ".symtab"} {
		if bin.Section(name) != nil {
			t.Errorf("the runner has a %s section", name)
		}
	}
}

// TestCacheCloseStopsRunners checks that Close stops every warm process
// and that runs after it fall back to the IR interpreter.
func TestCacheCloseStopsRunners(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progLoop)
	c := NewCache(t.TempDir())
	if _, err := NewEngine(p, c, Options{}).Run(10_000); err != nil {
		t.Fatal(err)
	}
	idle, _ := procsOf(t, c, p)
	if len(idle) != 1 {
		t.Fatalf("%d idle processes after one run, want 1", len(idle))
	}
	c.Close()
	if _, live := procsOf(t, c, p); live != 0 {
		t.Fatalf("%d runner processes live after Close", live)
	}
	if idle[0].cmd.ProcessState == nil {
		t.Fatal("Close returned before the runner exited")
	}
	res, err := NewEngine(p, c, Options{}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Native || res.Fallback == "" {
		t.Fatalf("run on a closed cache: native=%v fallback=%q", res.Native, res.Fallback)
	}
}

// plant replaces a runner binary with a script that prints header, reads
// one request line and prints reply.
func plant(t *testing.T, path, header string, reply ...string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("#!/bin/sh\n")
	fmt.Fprintf(&b, "printf '%%s\\n' '%s'\n", header)
	b.WriteString("read -r req\n")
	for _, ln := range reply {
		fmt.Fprintf(&b, "printf '%%s\\n' '%s'\n", ln)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRunnerIsRebuilt plants a runner that answers as another one
// under the cache key: the engine must drop it, rebuild once, and run
// natively, and a later Cache must find the rebuilt runner.
func TestStaleRunnerIsRebuilt(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progOps)
	dir := t.TempDir()
	path, _, err := NewCache(dir).Runner(p)
	if err != nil {
		t.Fatal(err)
	}
	plant(t, path, `h "0" "0"`)
	want, err := NewEngine(p, nil, Options{Backend: ForceIR}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantBuilds := range []uint64{1, 0} {
		c := NewCache(dir)
		res, err := NewEngine(p, c, Options{}).Run(10_000)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Native {
			t.Fatalf("run %d fell back to the IR: %s", i, res.Fallback)
		}
		if c.Builds() != wantBuilds {
			t.Fatalf("run %d: builds = %d, want %d", i, c.Builds(), wantBuilds)
		}
		sameRun(t, fmt.Sprintf("run %d", i), want, res, nil, nil)
	}
}

// craftedReplies returns runner replies for p's model that a correct
// header may be followed by but the host must reject, by name. Each
// breaks the state layout.
func craftedReplies(p *Program) map[string][]string {
	sc := make([]uint64, len(p.scalars))
	mem := func(slot int, pairs ...uint64) [][]uint64 {
		lists := make([][]uint64, len(p.arrays))
		if slot >= 0 {
			lists[slot] = pairs
		}
		return lists
	}
	data, prog := -1, -1
	for i, r := range p.arrays {
		switch {
		case r == nil:
		case r == p.progMem:
			prog = i
		case data < 0 || r.Total() > p.arrays[data].Total():
			data = i
		}
	}
	r := func(sc []uint64, mem [][]uint64) string {
		return string(appendStr(appendState([]byte("r 7 0"), sc, mem), ""))
	}
	c := func(n uint64, sc []uint64, mem [][]uint64) string {
		return string(appendState(appendNum([]byte("c"), n), sc, mem))
	}
	wide := append([]uint64{1<<64 - 1}, sc[1:]...)
	return map[string][]string{
		"scalar count":   {r([]uint64{1}, [][]uint64{{5}})},
		"memory count":   {r(sc, [][]uint64{nil})},
		"element index":  {r(sc, mem(data, p.arrays[data].Total(), 1))},
		"element width":  {r(sc, mem(data, 0, 1<<32))},
		"unpaired":       {r(sc, mem(data, 3))},
		"program memory": {r(sc, mem(prog, 0, 1))},
		"scalar width":   {r(wide, mem(-1))},
		"trace layout":   {c(1, []uint64{1}, nil), r(sc, mem(-1))},
		"trace gap":      {c(2, sc, mem(-1)), r(sc, mem(-1))},
		"unknown line":   {"x", r(sc, mem(-1))},
		"no result":      {`p "hello"`},
	}
}

// TestCraftedRunnerOutputRejected plants runners that shake hands
// correctly and then reply with state that does not fit the model: every
// run must fail instead of returning zero-filled state.
func TestCraftedRunnerOutputRejected(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progOps)
	dir := t.TempDir()
	path, _, err := NewCache(dir).Runner(p)
	if err != nil {
		t.Fatal(err)
	}
	header := string(appendStr(appendStr([]byte("h"), p.hash), filepath.Base(filepath.Dir(path))))
	for name, reply := range craftedReplies(p) {
		plant(t, path, header, reply...)
		c := NewCache(dir)
		res, err := NewEngine(p, c, Options{
			Backend:      ForceNative,
			OnCycleState: func(uint64, []uint64, [][]uint64) {},
		}).Run(10_000)
		c.Close()
		if err == nil {
			t.Errorf("%s: runner reply %q accepted as %+v", name, reply, res)
		}
	}
}

// checkLayout fails unless sc and arr have exactly p's state layout.
func checkLayout(t *testing.T, p *Program, sc []uint64, arr [][]uint64) {
	t.Helper()
	if len(sc) != len(p.scalars) || len(arr) != len(p.arrays) {
		t.Fatalf("state has %d scalars and %d memories, model %d and %d", len(sc), len(arr), len(p.scalars), len(p.arrays))
	}
	for i, r := range p.scalars {
		if r != nil && sc[i]&^mask(r.Width) != 0 {
			t.Fatalf("scalar %s = %#x is wider than %d bits", r.Name, sc[i], r.Width)
		}
	}
	for i, r := range p.arrays {
		if r != nil && uint64(len(arr[i])) != r.Total() {
			t.Fatalf("memory %s has %d elements, want %d", r.Name, len(arr[i]), r.Total())
		}
	}
}

// TestReplyReader reads the captured output of the stock simple16 runner
// (testdata/runner_output.txt: the handshake and one traced run of
// progLoop) and demands the IR's steps, per-cycle states and final state;
// every crafted reply after a good handshake must be an error.
func TestReplyReader(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", progLoop)
	data, err := os.ReadFile("testdata/runner_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var irSnaps, natSnaps []snap
	ir, err := NewEngine(p, nil, Options{Backend: ForceIR, OnCycleState: collector(&irSnaps)}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	rr := p.newReplyReader(bytes.NewReader(data))
	if _, err := rr.handshake(); err != nil {
		t.Fatal(err)
	}
	nat, err := rr.reply(p, nil, collector(&natSnaps))
	if err != nil {
		t.Fatal(err)
	}
	nat.Native = true
	sameRun(t, "captured", ir, nat, nil, nil)
	if fmt.Sprint(irSnaps) != fmt.Sprint(natSnaps) {
		t.Fatal("captured per-cycle states diverge from the IR's")
	}
	header := `h "m" "k"`
	for name, reply := range craftedReplies(p) {
		stream := header + "\n" + strings.Join(reply, "\n") + "\n"
		rr := p.newReplyReader(strings.NewReader(stream))
		if _, err := rr.handshake(); err != nil {
			t.Fatal(err)
		}
		if res, err := rr.reply(p, nil, func(uint64, []uint64, [][]uint64) {}); err == nil {
			t.Errorf("%s: reply accepted as %+v", name, res)
		}
	}
	long := header + "\n" + `p "` + strings.Repeat("x", p.lineCap()) + `"` + "\n"
	rr = p.newReplyReader(strings.NewReader(long))
	if _, err := rr.handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.reply(p, nil, nil); err == nil {
		t.Error("a line past the cap was read")
	}
}

// FuzzRunnerOutput feeds arbitrary bytes to the host's reader of runner
// output, an untrusted boundary: it must return an error or state that
// fits the model's layout — never panic or hang. Lines are capped at
// lineCap, so one line's decode allocates a bounded amount beyond the
// model's state.
func FuzzRunnerOutput(f *testing.F) {
	_, _, p := loadPair(f, "simple16", "", progLoop)
	data, err := os.ReadFile("testdata/runner_output.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	header := `h "m" "k"`
	for _, reply := range craftedReplies(p) {
		f.Add([]byte(header + "\n" + strings.Join(reply, "\n") + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := p.newReplyReader(bytes.NewReader(data))
		if _, err := rr.handshake(); err != nil {
			return
		}
		res, err := rr.reply(p, nil, func(_ uint64, sc []uint64, arr [][]uint64) { checkLayout(t, p, sc, arr) })
		if res != nil {
			checkLayout(t, p, res.Scalars, res.Arrays)
		} else if err == nil {
			t.Fatal("neither a result nor an error")
		}
	})
}
