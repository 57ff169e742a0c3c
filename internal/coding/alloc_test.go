//go:build !race

package coding_test

import (
	"os"
	"testing"

	"golisa/internal/asm"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/models"
)

// TestLeafAllocFree checks that decoding a word to its leaf allocates
// nothing: after one warm-up pass, Leaf over every word of fir.s performs
// zero heap allocations. (The race runtime allocates on its own, hence
// the build constraint.)
func TestLeafAllocFree(t *testing.T) {
	m := loadModel(t, "simple16", models.All["simple16"])
	a, err := asm.NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../examples/fir/prog/fir.s")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	root, dec := codingRoot(m), coding.NewDecoder(m)
	_, n, err := dec.Leaves(root)
	if err != nil {
		t.Fatal(err)
	}
	fields, width := make([]uint64, n), root.RootResource.Width
	allocs := testing.AllocsPerRun(10, func() {
		for _, w := range prog.Words {
			if _, err := dec.Leaf(root, bitvec.New(w, width), fields); err != nil {
				t.Fatalf("word %#x: %v", w, err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per pass over %d words, want 0", allocs, len(prog.Words))
	}
}
