package asm

import (
	"os"
	"strings"
	"testing"

	"golisa/internal/coding"
	"golisa/internal/models"
)

// fuzzPrograms are the programs the assembler fuzz targets start from:
// fir.s and the programs the other packages' tests assemble.
var fuzzPrograms = []string{
	"../../examples/fir/prog/fir.s",
	"../perf/testdata/dot64.s",
	"../perf/testdata/fir_slow.s",
	"../replay/testdata/simd16vec.s",
	"../cli/testdata/golden/c62xloop.s",
	"../models/testdata/hazard16.s",
}

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
	for _, path := range fuzzPrograms {
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

// FuzzAssembleRoundTrip disassembles a word on a stock model: when it
// disassembles, the text, as written and lower-cased, assembles to what
// coding.Encoder gives for the instruction of the word's DecodeRoot tree
// (render_test.go). The seeds are the words the stock models assemble
// fuzzPrograms to.
func FuzzAssembleRoundTrip(f *testing.F) {
	type tools struct {
		a    *Assembler
		d    *Disassembler
		tree *treeDisassembler
		enc  *coding.Encoder
	}
	var cases []tools
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		m := build(f, models.All[name])
		a, err := NewAssembler(m)
		if err != nil {
			f.Fatal(err)
		}
		d, err := NewDisassembler(m)
		if err != nil {
			f.Fatal(err)
		}
		cases = append(cases, tools{a, d, newTreeDisassembler(f, m), coding.NewEncoder(m)})
	}
	for _, path := range fuzzPrograms {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for i, c := range cases {
			if p, err := c.a.Assemble(string(src)); err == nil {
				for _, w := range p.Words {
					f.Add(uint8(i), uint32(w))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, word uint32) {
		c := cases[int(model)%len(cases)]
		text, err := c.d.Disassemble(uint64(word))
		if err != nil {
			return
		}
		in, err := c.tree.insn(uint64(word))
		if err != nil {
			t.Fatalf("%#x disassembles to %q but does not decode: %v", word, text, err)
		}
		w, err := c.enc.Encode(in)
		if err != nil {
			t.Fatalf("%#x (%s): %v", word, in, err)
		}
		want := w.Uint()
		for _, stmt := range []string{text, strings.ToLower(text)} {
			if got, err := c.a.AssembleStatement(stmt); err != nil || got != want {
				t.Fatalf("%#x disassembles to %q, which assembles to %#x, %v; want %#x", word, stmt, got, err, want)
			}
		}
	})
}
