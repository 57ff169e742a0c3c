package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/models"
)

// TestUnknownNameFailsAtLoad: simple16 with an unknown name in sub's
// BEHAVIOR does not load, and the error points at the name, so no tool
// gets to run the operation.
func TestUnknownNameFailsAtLoad(t *testing.T) {
	src, err := os.ReadFile("../sema/testdata/broken/bogus.lisa")
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadMachine("simple16", string(src))
	if err == nil || !strings.Contains(err.Error(), "simple16.lisa:117:28: unknown identifier Bogus") {
		t.Fatalf("LoadMachine: %v", err)
	}
}

// FuzzLoadMachine feeds LISA sources to the loader and, when one loads,
// to the assembler and disassembler generators. Each must return an
// error or a result: never panic, never hang. The seeds are the stock
// models, hazard16 and sema's broken fixtures.
func FuzzLoadMachine(f *testing.F) {
	for _, src := range models.All {
		f.Add(src)
	}
	seeds, _ := filepath.Glob("../sema/testdata/broken/*.lisa")
	seeds = append(seeds, "../models/testdata/hazard16.lisa")
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		mc, err := LoadMachine("fuzz", src)
		if err != nil {
			return
		}
		_, _ = mc.NewAssembler()
		_, _ = mc.NewDisassembler()
	})
}
