package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/core"
	"golisa/internal/model"
	"golisa/internal/sim"
)

// goldenJSON is the reference every job is checked against. It comes from
// the interpretive engine (go run . -regen-golden > testdata/golden.json),
// never from the engine under test. The repository has no hardware
// reference, so the models are unvalidated against a real C6201: "correct"
// means agreeing with the interpretive engine.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// golden is one pool program's reference outcome.
type golden struct {
	Cycles uint64 `json:"cycles"` // simulated control steps to halt
	Halted bool   `json:"halted"`
	State  string `json:"state"` // stateHash, as 16 hex digits
}

type goldenFile struct {
	Engine   string            `json:"engine"`
	Hash     string            `json:"hash"`
	Programs map[string]golden `json:"programs"`
}

const hashDoc = "FNV-1a over 64-bit words in four lanes (word i of a resource into lane i mod 4, lanes folded at the end): every non-alias resource except program memory, in model order"

func loadGolden() (map[string]golden, error) {
	var f goldenFile
	if err := json.Unmarshal(goldenJSON, &f); err != nil {
		return nil, fmt.Errorf("parse golden reference: %w", err)
	}
	return f.Programs, nil
}

// regenGolden runs every pool program on the interpretive engine and
// writes the reference file.
func regenGolden(w io.Writer) error {
	f := goldenFile{Engine: "interpretive", Hash: hashDoc, Programs: map[string]golden{}}
	machines := map[string]*core.Machine{}
	for _, en := range allEntries() {
		mc, ok := machines[en.Model]
		if !ok {
			var err error
			if mc, err = core.LoadBuiltin(en.Model); err != nil {
				return err
			}
			machines[en.Model] = mc
		}
		g, err := runReference(mc, en.Source, sim.Interpretive)
		if err != nil {
			return fmt.Errorf("%s: %w", en.Name, err)
		}
		if !g.Halted {
			return fmt.Errorf("%s: did not halt within %d steps", en.Name, maxSteps)
		}
		f.Programs[en.Name] = g
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// runReference assembles src and runs it to halt on a standalone
// simulator in the given mode.
func runReference(mc *core.Machine, src string, mode sim.Mode) (golden, error) {
	s, _, err := mc.AssembleAndLoad(src, mode)
	if err != nil {
		return golden{}, err
	}
	n, err := s.Run(maxSteps)
	if err != nil {
		return golden{}, err
	}
	return golden{Cycles: n, Halted: s.Halted(), State: fmt.Sprintf("%016x", simStateHash(s))}, nil
}

// check compares one run's outcome with the golden entry.
func (g golden) check(cycles uint64, halted bool, state uint64) error {
	if !halted {
		return fmt.Errorf("did not halt within the step cap (%d steps run)", cycles)
	}
	if cycles != g.Cycles {
		return fmt.Errorf("%d cycles, golden %d", cycles, g.Cycles)
	}
	if s := fmt.Sprintf("%016x", state); s != g.State {
		return fmt.Errorf("state hash %s, golden %s", s, g.State)
	}
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// stateHash is FNV-1a over 64-bit words instead of bytes, in four lanes:
// word i of each resource goes into lane i%4, so four multiplies are in
// flight at once, and sum folds the lanes together. Hashing a 16K-word
// data memory this way stays well below 1% of a job.
type stateHash [4]uint64

func newStateHash() *stateHash { return &stateHash{fnvOffset, fnvOffset, fnvOffset, fnvOffset} }

func (h *stateHash) values(vs []bitvec.Value) {
	a, b, c, d := h[0], h[1], h[2], h[3]
	i := 0
	for ; i+3 < len(vs); i += 4 {
		a = (a ^ vs[i].Uint()) * fnvPrime
		b = (b ^ vs[i+1].Uint()) * fnvPrime
		c = (c ^ vs[i+2].Uint()) * fnvPrime
		d = (d ^ vs[i+3].Uint()) * fnvPrime
	}
	h[0], h[1], h[2], h[3] = a, b, c, d
	for ; i < len(vs); i++ {
		h[i%4] = (h[i%4] ^ vs[i].Uint()) * fnvPrime
	}
}

// words is values for raw words, masked to the resource width.
func (h *stateHash) words(vs []uint64, mask uint64) {
	a, b, c, d := h[0], h[1], h[2], h[3]
	i := 0
	for ; i+3 < len(vs); i += 4 {
		a = (a ^ vs[i]&mask) * fnvPrime
		b = (b ^ vs[i+1]&mask) * fnvPrime
		c = (c ^ vs[i+2]&mask) * fnvPrime
		d = (d ^ vs[i+3]&mask) * fnvPrime
	}
	h[0], h[1], h[2], h[3] = a, b, c, d
	for ; i < len(vs); i++ {
		h[i%4] = (h[i%4] ^ vs[i]&mask) * fnvPrime
	}
}

func (h *stateHash) sum() uint64 {
	s := uint64(fnvOffset)
	for _, l := range h {
		s = (s ^ l) * fnvPrime
	}
	return s
}

// hashedResources lists the resources the state hash covers.
func hashedResources(m *model.Model) []*model.Resource {
	var rs []*model.Resource
	for _, r := range m.Resources {
		if !r.IsAlias && r.Class != ast.ClassProgramMemory {
			rs = append(rs, r)
		}
	}
	return rs
}

func simStateHash(s *sim.Simulator) uint64 {
	h := newStateHash()
	for _, r := range hashedResources(s.M) {
		if r.IsMemory() {
			h.values(s.S.Arrays[r.Slot])
		} else {
			h.values(s.S.Scalars[r.Slot : r.Slot+1])
		}
	}
	return h.sum()
}

// slotStateHash hashes slot-indexed raw state, as gosim results carry it.
func slotStateHash(m *model.Model, scalars []uint64, arrays [][]uint64) (uint64, error) {
	h := newStateHash()
	for _, r := range hashedResources(m) {
		mask := bitvec.Mask(r.Width)
		if !r.IsMemory() {
			if r.Slot >= len(scalars) {
				return 0, fmt.Errorf("result lacks scalar %s", r.Name)
			}
			h.words(scalars[r.Slot:r.Slot+1], mask)
			continue
		}
		if r.Slot >= len(arrays) || uint64(len(arrays[r.Slot])) != r.Total() {
			return 0, fmt.Errorf("result lacks memory %s", r.Name)
		}
		h.words(arrays[r.Slot], mask)
	}
	return h.sum(), nil
}
