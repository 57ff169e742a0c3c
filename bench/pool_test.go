package main

import (
	"reflect"
	"testing"

	"golisa/internal/core"
	"golisa/internal/sim"
)

func seqPrefix(pool []entry, seed uint64, n int) []int {
	q := newSequence(pool, seed)
	out := make([]int, n)
	for i := range out {
		out[i] = q.next()
	}
	return out
}

// TestSequenceDeterministic: a seed fixes the job order and the sources;
// another seed changes the order but, round by round, not the mix.
func TestSequenceDeterministic(t *testing.T) {
	for _, w := range workloads {
		pool := w.pool()
		if !reflect.DeepEqual(pool, w.pool()) {
			t.Errorf("%s: pool sources differ between two renderings", w.name)
		}
		a, b := seqPrefix(pool, 7, 200), seqPrefix(pool, 7, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different job sequences", w.name)
		}
		if reflect.DeepEqual(a, seqPrefix(pool, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same job sequence", w.name)
		}
		round := 0
		for _, en := range pool {
			round += en.Weight
		}
		count := map[int]int{}
		for _, i := range seqPrefix(pool, 8, 3*round) {
			count[i]++
		}
		for i, en := range pool {
			if count[i] != 3*en.Weight {
				t.Errorf("%s: %s ran %d times in 3 rounds, want %d", w.name, en.Name, count[i], 3*en.Weight)
			}
		}
	}
}

// poolFacts is what the generator test measures of one pool program.
type poolFacts struct {
	cycles, distinct, stalls uint64
}

func measurePool(t *testing.T) map[string]poolFacts {
	t.Helper()
	facts := map[string]poolFacts{}
	machines := map[string]*core.Machine{}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range allEntries() {
		mc := machines[en.Model]
		if mc == nil {
			if mc, err = core.LoadBuiltin(en.Model); err != nil {
				t.Fatal(err)
			}
			machines[en.Model] = mc
		}
		a, err := mc.NewAssembler()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Assemble(en.Source)
		if err != nil {
			t.Fatalf("%s does not assemble: %v", en.Name, err)
		}
		words := map[uint64]bool{}
		for _, w := range prog.Words {
			words[w] = true
		}
		f := poolFacts{cycles: g[en.Name].Cycles, distinct: uint64(len(words))}
		if en.Model == "c62x" {
			s, _, err := mc.AssembleAndLoad(en.Source, sim.CompiledPrebound)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(maxSteps); err != nil {
				t.Fatal(err)
			}
			f.stalls = s.Profile().Stalls
		}
		facts[en.Name] = f
	}
	return facts
}

func valueRange(pool []entry, facts map[string]poolFacts, get func(poolFacts) uint64) (lo, hi uint64) {
	for _, en := range pool {
		v := get(facts[en.Name])
		if lo == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	return lo, hi
}

// TestPoolVariesWhatWorkloadsClaim checks the properties the workloads are
// chosen for. c62x programs cannot flush: the model's only flush is the
// interrupt service routine, which needs an external interrupt line, and
// every pool program runs from reset plus the program alone.
func TestPoolVariesWhatWorkloadsClaim(t *testing.T) {
	facts := measurePool(t)
	cyc := func(f poolFacts) uint64 { return f.cycles }
	dist := func(f poolFacts) uint64 { return f.distinct }
	for _, pool := range [][]entry{allEntries(), generatedPool()} {
		if lo, hi := valueRange(pool, facts, cyc); hi < 100*lo {
			t.Errorf("cycles span %d..%d, want at least 100x", lo, hi)
		}
		if lo, hi := valueRange(pool, facts, dist); hi < 8*lo {
			t.Errorf("distinct words span %d..%d, want at least 8x", lo, hi)
		}
	}
	for _, en := range allEntries() {
		if en.Model == "c62x" && facts[en.Name].stalls == 0 {
			t.Errorf("%s: no stall cycles", en.Name)
		}
	}

	// Spawn, handshake and result decode cost about 2.4-3.2 ms a run and
	// the native step loop 20-28 ns a cycle, so the two are even near 120k
	// cycles. The generated pool needs programs far on either side.
	var short, long, c62x, round int
	for _, en := range generatedPool() {
		round += en.Weight
		switch c := facts[en.Name].cycles; {
		case en.Model == "c62x":
			c62x += en.Weight
		case c < 30_000:
			short++
		case c > 500_000:
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Errorf("generated pool: %d programs below 30k cycles and %d above 500k, want both", short, long)
	}
	if share := float64(c62x) / float64(round); share < 0.05 || share > 0.15 {
		t.Errorf("generated pool: c62x is %.0f%% of a round, want about 10%%", 100*share)
	}
	for _, w := range workloads {
		n := 0
		for _, en := range w.pool() {
			n += en.Weight
		}
		// With an odd number of jobs a round, the median and p90 ranks
		// fall inside one program's samples, not on the boundary between
		// two programs, where they would jump with the seed.
		if n%2 == 0 {
			t.Errorf("%s: a round has %d jobs, want an odd number", w.name, n)
		}
	}
}
