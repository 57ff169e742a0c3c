// Package core ties the golisa tool flow together: it turns LISA source
// text into the intermediate database and hands out the generated tools —
// assembler, disassembler and simulators — exactly the retargetable
// environment of the paper's §4.1 ("a parser reads the LISA models and
// translates them into an intermediate data base which is accessed by all
// other tools").
package core

import (
	"fmt"

	"golisa/internal/asm"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/models"
	"golisa/internal/parser"
	"golisa/internal/sema"
	"golisa/internal/sim"
)

// Machine is a loaded LISA model plus its generated-tool factories.
type Machine struct {
	Model  *model.Model
	Source string
}

// LoadMachine parses and analyzes LISA source text. The name is used for
// diagnostics and statistics. A coding tree the decoder's plans cannot
// hold fails the load, with the operation where it stops; the decoder
// built for that check is the one the model's tools share (coding.For).
func LoadMachine(name, src string) (*Machine, error) {
	d, perrs := parser.Parse(src, name+".lisa")
	if len(perrs) > 0 {
		return nil, firstOf("parse", name, perrs)
	}
	m, serrs := sema.Build(name, d)
	if len(serrs) > 0 {
		return nil, firstOf("analyze", name, serrs)
	}
	if err := coding.For(m).Check(); err != nil {
		return nil, fmt.Errorf("analyze %s: %w", name, err)
	}
	m.SourceLines = sema.CountSourceLines(src)
	return &Machine{Model: m, Source: src}, nil
}

// firstOf reports the first of a load phase's errors, and how many more
// follow when there are more.
func firstOf(phase, name string, errs []error) error {
	if len(errs) > 1 {
		return fmt.Errorf("%s %s: %w (and %d more)", phase, name, errs[0], len(errs)-1)
	}
	return fmt.Errorf("%s %s: %w", phase, name, errs[0])
}

// LoadBuiltin loads one of the embedded models ("simple16", "c62x").
func LoadBuiltin(name string) (*Machine, error) {
	src, ok := models.All[name]
	if !ok {
		return nil, fmt.Errorf("no builtin model %q (have simple16, c62x, simd16)", name)
	}
	return LoadMachine(name, src)
}

// NewAssembler generates the machine's assembler.
func (mc *Machine) NewAssembler() (*asm.Assembler, error) {
	return asm.NewAssembler(mc.Model)
}

// NewDisassembler generates the machine's disassembler.
func (mc *Machine) NewDisassembler() (*asm.Disassembler, error) {
	return asm.NewDisassembler(mc.Model)
}

// NewSimulator generates a simulator in the given mode.
func (mc *Machine) NewSimulator(mode sim.Mode) (*sim.Simulator, error) {
	s := sim.New(mc.Model, mode)
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats computes the paper-§4 model statistics.
func (mc *Machine) Stats() model.Stats {
	return mc.Model.ComputeStats()
}

// ProgramMemory returns the name of the model's program memory (the first
// PROGRAM_MEMORY resource), or an error when the model has none.
func (mc *Machine) ProgramMemory() (string, error) {
	if r := mc.Model.ProgramMemory(); r != nil {
		return r.Name, nil
	}
	return "", fmt.Errorf("model %s has no PROGRAM_MEMORY resource", mc.Model.Name)
}

// AssembleAndLoad assembles source text and loads the image into a fresh
// simulator's program memory.
func (mc *Machine) AssembleAndLoad(src string, mode sim.Mode) (*sim.Simulator, *asm.Program, error) {
	a, err := mc.NewAssembler()
	if err != nil {
		return nil, nil, err
	}
	prog, err := a.Assemble(src)
	if err != nil {
		return nil, nil, err
	}
	s, err := mc.NewSimulator(mode)
	if err != nil {
		return nil, nil, err
	}
	pm, err := mc.ProgramMemory()
	if err != nil {
		return nil, nil, err
	}
	if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
		return nil, nil, err
	}
	return s, prog, nil
}
