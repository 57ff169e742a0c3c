// Package cli holds the plumbing shared by the lisa-* command-line
// tools: model loading, mode parsing, error exits, and the common flag
// groups, so a new flag (or a fix to one) lands in every tool at once.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"golisa/internal/core"
	"golisa/internal/sim"
)

// Tool is the name prefixed to error messages; it defaults to the
// invoked binary's base name.
var Tool = filepath.Base(os.Args[0])

// Fail prints err prefixed with the tool name and exits 1 (no-op on nil).
func Fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", Tool, err)
		os.Exit(1)
	}
}

// Usage prints a usage line and exits 2.
func Usage(line string) {
	fmt.Fprintf(os.Stderr, "usage: %s %s\n", Tool, line)
	os.Exit(2)
}

// FailUsage prints err prefixed with the tool name and exits 2: the
// usage-class exit for malformed flag values (unknown -mode, a
// mode-specific flag without its mode), distinct from runtime failures
// which exit 1 via Fail.
func FailUsage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", Tool, err)
	os.Exit(2)
}

// LoadModel loads a builtin model by name, or a .lisa file by path (the
// model name is the file's base name without extension). Errors exit.
func LoadModel(name string) *core.Machine {
	if m, err := core.LoadBuiltin(name); err == nil {
		return m
	}
	src, err := os.ReadFile(name)
	Fail(err)
	m, err := core.LoadMachine(strings.TrimSuffix(filepath.Base(name), ".lisa"), string(src))
	Fail(err)
	return m
}

// ParseMode maps a -mode flag value to a simulation mode (sim.ParseMode).
func ParseMode(name string) (sim.Mode, error) { return sim.ParseMode(name) }

// Common is the -model/-mode/-max flag group shared by the simulating
// tools.
type Common struct {
	Model string
	Mode  string
	Max   uint64

	// GenCache is the generated-tier runner cache directory (-gen-cache).
	// It only applies with -mode generated; Load rejects it otherwise.
	GenCache string
}

// Register defines the flags on fs (flag.CommandLine in the tools).
func (c *Common) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Model, "model", "simple16", "builtin model name or path to a .lisa file")
	fs.StringVar(&c.Mode, "mode", "compiled", "simulation mode: "+sim.ValidModes)
	fs.Uint64Var(&c.Max, "max", 1_000_000, "maximum control steps")
	fs.StringVar(&c.GenCache, "gen-cache", "", "generated mode: runner build-cache directory (default: a per-user cache dir)")
	AddVersionFlag(fs)
	RegisterLogFlags(fs)
}

// Load resolves the flag values into a machine and a mode. An unknown
// -mode or a mode-specific flag used without its mode is a usage error
// (exit 2), so scripts can tell a bad invocation from a failed run.
func (c *Common) Load() (*core.Machine, sim.Mode) {
	mode, err := ParseMode(c.Mode)
	if err != nil {
		FailUsage(err)
	}
	if c.GenCache != "" && mode != sim.Generated {
		FailUsage(fmt.Errorf("-gen-cache applies only to -mode generated, not -mode %s (valid modes: %s)", c.Mode, sim.ValidModes))
	}
	return LoadModel(c.Model), mode
}
