package main

import (
	"testing"

	"golisa/internal/core"
	"golisa/internal/gosim"
	"golisa/internal/sim"
)

// crossEngineMaxCycles bounds the programs the classic engines re-check
// here, keeping the test near 10 s under -race. Longer programs are loops
// of the same code; the benchmark checks them against the golden file on
// every run, on the native runner.
const crossEngineMaxCycles = 100_000

// TestGoldenMatchesInterpretive re-derives the smallest pool program of
// each model on the interpretive engine, so the golden file cannot drift
// from the reference engine, and checks pool programs against it on the
// compiled and prebound engines and, for simple16, on gosim's IR
// interpreter.
func TestGoldenMatchesInterpretive(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	machines := map[string]*core.Machine{}
	smallest := map[string]entry{}
	for _, en := range allEntries() {
		ref, ok := g[en.Name]
		if !ok {
			t.Fatalf("%s has no golden entry; regenerate testdata/golden.json", en.Name)
		}
		if s, ok := smallest[en.Model]; !ok || ref.Cycles < g[s.Name].Cycles {
			smallest[en.Model] = en
		}
		if machines[en.Model] == nil {
			if machines[en.Model], err = core.LoadBuiltin(en.Model); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(g) != len(allEntries()) {
		t.Errorf("golden file has %d entries, the pools %d", len(g), len(allEntries()))
	}
	for model, en := range smallest {
		got, err := runReference(machines[model], en.Source, sim.Interpretive)
		if err != nil {
			t.Fatal(err)
		}
		if got != g[en.Name] {
			t.Errorf("%s on the interpretive engine: %+v, golden %+v", en.Name, got, g[en.Name])
		}
	}
	for _, en := range allEntries() {
		ref := g[en.Name]
		t.Run(en.Name, func(t *testing.T) {
			t.Parallel()
			mc, err := core.LoadBuiltin(en.Model)
			if err != nil {
				t.Fatal(err)
			}
			if en.Model == "simple16" {
				_, prog, err := mc.AssembleAndLoad(en.Source, sim.CompiledPrebound)
				if err != nil {
					t.Fatal(err)
				}
				p, err := gosim.Compile(mc, prog)
				if err != nil {
					t.Fatal(err)
				}
				res, err := gosim.NewEngine(p, nil, gosim.Options{Backend: gosim.ForceIR}).Run(maxSteps)
				if err == nil {
					err = verifySlots(p, ref, res)
				}
				if err != nil {
					t.Errorf("gosim IR: %v", err)
				}
			}
			if ref.Cycles > crossEngineMaxCycles {
				return
			}
			for _, mode := range []sim.Mode{sim.Compiled, sim.CompiledPrebound} {
				got, err := runReference(mc, en.Source, mode)
				if err != nil {
					t.Fatal(err)
				}
				if got != ref {
					t.Errorf("%s engine: %+v, golden %+v", mode, got, ref)
				}
			}
		})
	}
}
