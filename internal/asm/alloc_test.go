//go:build !race

package asm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAssembleStatementAllocFree checks that a statement assembles with no
// heap allocation: AssembleStatement of every upper-case statement of the
// statements golden that assembles, on every stock model, performs zero
// allocations. (The race runtime allocates on its own, hence the build
// constraint.)
func TestAssembleStatementAllocFree(t *testing.T) {
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		a, _ := stockAssembler(t, name)
		data, err := os.ReadFile(filepath.Join("testdata", "statements", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, line := range strings.Split(string(data), "\n") {
			text, want, _ := strings.Cut(line, "\t")
			if !strings.HasPrefix(want, "0x") || strings.Contains(text, definedSym) || hasLower(text) {
				continue
			}
			if n := testing.AllocsPerRun(5, func() { _, _ = a.AssembleStatement(text) }); n != 0 {
				t.Errorf("%s %q: %.1f allocations, want 0", name, text, n)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no upper-case statement assembles", name)
		}
	}
}

// TestDisassembleOneAlloc checks that a word that disassembles allocates
// only its text: Disassemble of every such word of the disassembly
// golden, on every model of the golden, performs at most one allocation.
func TestDisassembleOneAlloc(t *testing.T) {
	models := leafModels(t)
	for _, name := range goldenModels {
		d, err := NewDisassembler(models[name])
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join("testdata", "disassembly", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			word, want, _ := strings.Cut(line, "\t")
			if strings.HasPrefix(want, "error: ") {
				continue
			}
			w, err := parseNum(word)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(5, func() { _, _ = d.Disassemble(w) }); n > 1 {
				t.Errorf("%s %#x (%s): %.1f allocations, want at most 1", name, w, want, n)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no word disassembles", name)
		}
	}
}
