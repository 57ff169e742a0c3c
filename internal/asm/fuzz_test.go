package asm

import (
	"os"
	"testing"

	"golisa/internal/models"
)

// FuzzAssemble feeds assembly text to a stock model's assembler. Any
// text gives a program or an error: never a panic, a hang or unbounded
// allocation. The seeds are fir.s and the programs the other packages'
// tests assemble, each for every stock model.
func FuzzAssemble(f *testing.F) {
	var asms []*Assembler
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		a, err := NewAssembler(build(f, models.All[name]))
		if err != nil {
			f.Fatal(err)
		}
		asms = append(asms, a)
	}
	for _, path := range []string{
		"../../examples/fir/prog/fir.s",
		"../perf/testdata/dot64.s",
		"../perf/testdata/fir_slow.s",
		"../replay/testdata/simd16vec.s",
		"../cli/testdata/golden/c62xloop.s",
		"../models/testdata/hazard16.s",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for i := range asms {
			f.Add(uint8(i), string(src))
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, src string) {
		_, _ = asms[int(model)%len(asms)].Assemble(src)
	})
}
