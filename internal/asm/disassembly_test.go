package asm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// goldenModels are the models of the disassembly golden, in file order.
var goldenModels = []string{"simple16", "simd16", "c62x", "hazard16"}

// TestDisassemblyGolden disassembles every word of
// testdata/disassembly/<model>.txt on its model and compares the text, or
// the exact error, with the one the line records. The words are every
// coding leaf of the stock models and hazard16 with its fields, all at
// once, at 0, 1, their top bit alone and all ones, and then 600 seeded
// random words of the instruction width, misses included. A missing file
// is written from the disassembler under test and the test fails, so
// deleting one and re-running the test regenerates it.
func TestDisassemblyGolden(t *testing.T) {
	models := leafModels(t)
	for _, name := range goldenModels {
		m := models[name]
		d, err := NewDisassembler(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "disassembly", name+".txt")
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			var b strings.Builder
			for _, w := range disassemblyCorpus(t, m) {
				fmt.Fprintf(&b, "%#x\t%s\n", w, disassembleLine(d, w))
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s was missing; wrote it", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		misses := 0
		for i, line := range lines {
			word, want, ok := strings.Cut(line, "\t")
			if !ok {
				t.Fatalf("%s:%d: no tab in %q", path, i+1, line)
			}
			w, err := parseNum(word)
			if err != nil {
				t.Fatalf("%s:%d: %v", path, i+1, err)
			}
			if got := disassembleLine(d, w); got != want {
				t.Errorf("%s:%d: %#x gives %s, want %s", path, i+1, w, got, want)
			}
			if strings.HasPrefix(want, "error: ") {
				misses++
			}
		}
		if misses == 0 {
			t.Errorf("%s: no word misses", path)
		}
	}
}

// disassembleLine renders what d gives for one word of the golden: the
// text, or "error: " and the error text.
func disassembleLine(d *Disassembler, w uint64) string {
	text, err := d.Disassemble(w)
	if err != nil {
		return "error: " + err.Error()
	}
	return text
}

// disassemblyCorpus returns the golden's words for m, each once: its
// coding leaves at the four boundary field values, then the random words.
func disassemblyCorpus(t *testing.T, m *model.Model) []uint64 {
	var root *model.Operation
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			root = op
			break
		}
	}
	dec, enc := coding.NewDecoder(m), coding.NewEncoder(m)
	sec := coding.RootCoding(root)
	if len(sec.Elems) != 1 {
		t.Fatalf("%s: root coding has %d elements, the corpus encodes one reference", m.Name, len(sec.Elems))
	}
	ref := sec.Elems[0].(*ast.CodingRef).Name
	leaves, _, err := dec.Leaves(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	seen := map[uint64]bool{}
	add := func(w uint64) {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for leaf := 0; leaf < leaves; leaf++ {
		in, fields, err := dec.Shape(root, leaf)
		if err != nil {
			continue // a gap: no word decodes to it
		}
		for s := 0; s < 4; s++ {
			for _, f := range fields {
				v := [4]uint64{0, 1, 1 << (f.Width - 1), bitvec.Mask(f.Width)}[s]
				care, fixed := fieldBits(t, dec, f)
				f.Node.Labels[f.Label] = bitvec.New(fixed|v&^care, f.Width)
			}
			w, err := enc.Encode(in.Bindings[ref])
			if err != nil {
				t.Fatalf("%s leaf %d (%s): %v", m.Name, leaf, in, err)
			}
			add(w.Uint())
		}
	}
	rng := rand.New(rand.NewSource(27))
	for n := len(out) + 600; len(out) < n; {
		add(rng.Uint64() & bitvec.Mask(root.RootResource.Width))
	}
	return out
}
