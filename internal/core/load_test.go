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

// TestLoadErrorCount: a load that fails on one parse error reports that
// error alone, and one that fails on more says how many more follow.
func TestLoadErrorCount(t *testing.T) {
	for _, tc := range []struct{ fixture, more string }{
		{"memory_huge", ""},
		{"bit_width", " (and 1 more)"},
	} {
		path := "../parser/testdata/broken/" + tc.fixture
		src, err := os.ReadFile(path + ".lisa")
		if err != nil {
			t.Fatal(err)
		}
		errs, err := os.ReadFile(path + ".err")
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(string(errs), "\n")
		_, err = LoadMachine(tc.fixture, string(src))
		if msg := "parse " + tc.fixture + ": " + first + tc.more; err == nil || err.Error() != msg {
			t.Errorf("%s: %v\nwant %s", tc.fixture, err, msg)
		}
	}
}

// TestBrokenCodings loads each model in testdata/broken, one per bound of
// the decoder's plans, and wants exactly the message in its .err file:
// the operation compiling stopped at, with its source position. The
// stock models and hazard16 load.
func TestBrokenCodings(t *testing.T) {
	files, err := filepath.Glob("testdata/broken/*.lisa")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".lisa")
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(f, ".lisa") + ".err")
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadMachine(name, string(src))
		if msg := "analyze " + name + ": " + strings.TrimSpace(string(want)); err == nil || err.Error() != msg {
			t.Errorf("%s: %v\nwant %s", name, err, msg)
		}
	}
	hazard16, err := os.ReadFile("../models/testdata/hazard16.lisa")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{"hazard16": string(hazard16)}
	for name, src := range models.All {
		srcs[name] = src
	}
	for name, src := range srcs {
		if _, err := LoadMachine(name, src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzLoadMachine feeds LISA sources to the loader and, when one loads,
// to the assembler and disassembler generators. Each must return an
// error or a result: never panic, never hang. The seeds are the stock
// models, hazard16, and the parser's, sema's and this package's broken
// fixtures.
func FuzzLoadMachine(f *testing.F) {
	for _, src := range models.All {
		f.Add(src)
	}
	seeds, _ := filepath.Glob("../sema/testdata/broken/*.lisa")
	parsing, _ := filepath.Glob("../parser/testdata/broken/*.lisa")
	seeds = append(seeds, parsing...)
	seeds = append(seeds, "../models/testdata/hazard16.lisa")
	broken, _ := filepath.Glob("testdata/broken/*.lisa")
	seeds = append(seeds, broken...)
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
