package gosim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache is the runner store and its process pool. Runner binaries are
// keyed by the hash of the emitted runner source, which depends on the
// model alone: every program of a model shares one runner, a fleet
// sharing one Cache builds it exactly once no matter how many workers
// race on it, and a binary left by an earlier process is reused without
// invoking `go build` at all.
//
// Runner processes stay alive between runs. Engine.Run checks one out of
// its key's idle pool, or starts one, and returns it after a clean run,
// so the pool holds at most one idle process per concurrent caller.
// Close stops them; a process whose host exits sees its stdin close and
// exits too.
//
// Layout: <Dir>/<key>/{main.go, go.mod, runner}.
type Cache struct {
	// Dir is the cache root.
	Dir string

	goPath string // the go command, looked up once; "" when PATH has none

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool
	procs   sync.WaitGroup // one per live runner process
	builds  atomic.Uint64
}

// entry is one runner key: its binary and its processes.
type entry struct {
	key string

	build   sync.Mutex // held while the binary is found or built
	path    string     // the binary; "" before the first use and after invalidate
	err     error      // sticky build failure
	rebuilt bool       // the binary was dropped once: the next failure is final

	idle []*proc        // guarded by Cache.mu
	live map[*proc]bool // guarded by Cache.mu
}

// proc is one runner process.
type proc struct {
	e    *entry
	path string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *replyReader
	stop sync.Once
}

var errClosed = errors.New("gosim: runner cache closed")

// noToolchain is the reason a Cache without a go command gives.
const noToolchain = "go toolchain not found in PATH"

// buildArgs is the runner's `go build` command line, less its output. -s
// -w leave out the symbol table and DWARF, which nothing reads: a panic
// still names its function, file and line. -buildvcs=false keeps the
// revision of a repository around the cache directory out of a binary
// that depends on the model alone, and skips the git commands that read
// it. Neither changes how a package compiles, so the standard library
// stays cached. The emitted source names the command (gen.file), so the
// runner key, its hash, covers it.
var buildArgs = []string{"build", "-ldflags=-s -w", "-buildvcs=false"}

// NewCache opens (or lazily creates) a runner cache rooted at dir. An
// empty dir selects the user cache directory (falling back to the system
// temp directory). It looks up the go command on PATH now, once for the
// Cache's life.
func NewCache(dir string) *Cache {
	if dir == "" {
		if base, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(base, "golisa", "gosim")
		} else {
			dir = filepath.Join(os.TempDir(), "golisa-gosim")
		}
	}
	goPath, _ := exec.LookPath("go")
	return &Cache{Dir: dir, goPath: goPath, entries: map[string]*entry{}}
}

// Builds reports how many `go build` invocations this Cache has run —
// the fleet's zero-recompilation assertions count on it.
func (c *Cache) Builds() uint64 { return c.builds.Load() }

// Runner returns the path to the runner binary for p's model, building
// it if neither this Cache nor an earlier process has. cacheHit reports
// that `go build` was not invoked by this call.
func (c *Cache) Runner(p *Program) (path string, cacheHit bool, err error) {
	src, key, err := p.source()
	if err != nil {
		return "", false, err
	}
	return c.binary(c.entry(key), src)
}

// Close stops every runner process the Cache started, idle or busy, and
// waits for them to exit. Later runs find no native runner: Auto engines
// fall back to the IR interpreter.
func (c *Cache) Close() {
	c.mu.Lock()
	c.closed = true
	var all []*proc
	for _, e := range c.entries {
		for pr := range e.live {
			all = append(all, pr)
		}
		e.idle = nil
	}
	c.mu.Unlock()
	for _, pr := range all {
		c.stop(pr)
	}
	c.procs.Wait()
}

func (c *Cache) entry(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = &entry{key: key, live: map[*proc]bool{}}
		c.entries[key] = e
	}
	return e
}

// binary returns e's runner binary, building it on first use.
func (c *Cache) binary(e *entry, src []byte) (string, bool, error) {
	e.build.Lock()
	defer e.build.Unlock()
	if e.path != "" || e.err != nil {
		return e.path, e.err == nil, e.err
	}
	var hit bool
	e.path, hit, e.err = c.build(e.key, src)
	return e.path, hit, e.err
}

// invalidate drops a runner binary that failed its handshake or a run, so
// the next use rebuilds it — once per Cache. It reports whether the
// caller may retry: false when the binary was already rebuilt once.
func (c *Cache) invalidate(e *entry, path string) bool {
	e.build.Lock()
	defer e.build.Unlock()
	if e.path != path {
		return true // another caller dropped it already
	}
	if e.rebuilt {
		return false
	}
	os.Remove(path)
	e.path, e.rebuilt = "", true
	return true
}

// build materializes the runner for key, reusing an on-disk binary from a
// previous process when present (the handshake proves it is the right
// one).
func (c *Cache) build(key string, src []byte) (string, bool, error) {
	dir := filepath.Join(c.Dir, key)
	bin := filepath.Join(dir, "runner")
	if fi, err := os.Stat(bin); err == nil && !fi.IsDir() {
		return bin, true, nil
	}
	if c.goPath == "" {
		return "", false, errors.New("gosim: " + noToolchain)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", false, fmt.Errorf("gosim: create cache dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		return "", false, fmt.Errorf("gosim: write runner source: %w", err)
	}
	gomod := "module lisarunner\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return "", false, fmt.Errorf("gosim: write runner go.mod: %w", err)
	}
	// Unique temp name + rename keeps concurrent processes from clobbering
	// each other's half-written binaries.
	tmp := fmt.Sprintf("%s.tmp.%d", bin, os.Getpid())
	cmd := exec.Command(c.goPath, append(buildArgs, "-o", tmp, ".")...)
	cmd.Dir = dir
	// Insulate the build from the invoking environment's module knobs.
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GO111MODULE=on")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.Remove(tmp)
		return "", false, fmt.Errorf("gosim: go build runner: %w\n%s", err, out)
	}
	if err := os.Rename(tmp, bin); err != nil {
		os.Remove(tmp)
		return "", false, fmt.Errorf("gosim: install runner: %w", err)
	}
	c.builds.Add(1)
	return bin, false, nil
}

// acquire checks out a runner process for p: an idle one, or a new one
// on the cached (or freshly built) binary. A runner that fails its
// handshake is dropped and rebuilt, once. hit reports that no `go build`
// ran for this call.
func (c *Cache) acquire(p *Program) (*proc, bool, error) {
	src, key, err := p.source()
	if err != nil {
		return nil, false, err
	}
	e := c.entry(key)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, errClosed
	}
	if n := len(e.idle); n > 0 {
		pr := e.idle[n-1]
		e.idle = e.idle[:n-1]
		c.mu.Unlock()
		return pr, true, nil
	}
	c.mu.Unlock()
	for {
		path, hit, err := c.binary(e, src)
		if err != nil {
			return nil, false, err
		}
		pr, err := c.start(e, path, p)
		if err == nil {
			return pr, hit, nil
		}
		if errors.Is(err, errClosed) || !c.invalidate(e, path) {
			return nil, false, err
		}
	}
}

// start runs the binary and checks its handshake.
func (c *Cache) start(e *entry, path string, p *Program) (*proc, error) {
	cmd := exec.Command(path)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("gosim: runner pipe: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("gosim: runner pipe: %w", err)
	}
	// Start under the lock, so that Close sees every process.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	if err := cmd.Start(); err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("gosim: start runner: %w", err)
	}
	pr := &proc{e: e, path: path, cmd: cmd, in: in, out: p.newReplyReader(out)}
	e.live[pr] = true
	c.procs.Add(1)
	c.mu.Unlock()
	key, err := pr.out.handshake()
	if err == nil && key != e.key {
		err = fmt.Errorf("gosim: runner identity mismatch: %s answers as %q, want %q", path, key, e.key)
	}
	if err != nil {
		c.stop(pr)
		return nil, err
	}
	return pr, nil
}

// release returns a process to its idle pool after a clean run.
func (c *Cache) release(pr *proc) {
	c.mu.Lock()
	if !c.closed {
		pr.e.idle = append(pr.e.idle, pr)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.stop(pr)
}

// discard stops a process whose run broke the protocol or died, and
// drops its binary for one rebuild: a runner that exits without a result
// is as suspect as one that answers with the wrong identity.
func (c *Cache) discard(pr *proc) {
	c.stop(pr)
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if !closed {
		c.invalidate(pr.e, pr.path)
	}
}

// stop ends a process and waits for it.
func (c *Cache) stop(pr *proc) {
	pr.stop.Do(func() {
		pr.in.Close()
		pr.cmd.Process.Kill()
		pr.cmd.Wait()
		c.mu.Lock()
		delete(pr.e.live, pr)
		c.mu.Unlock()
		c.procs.Done()
	})
}

// run serves one run of p on the process.
func (pr *proc) run(p *Program, max uint64, opt Options) (*Result, error) {
	if _, err := pr.in.Write(p.request(max, opt.OnCycleState != nil)); err != nil {
		return nil, fmt.Errorf("gosim: send run request: %w", err)
	}
	return pr.out.reply(p, opt.OnPrint, opt.OnCycleState)
}
