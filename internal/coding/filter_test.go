package coding_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/asm"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/models"
	lisaparser "golisa/internal/parser"
	"golisa/internal/sema"
)

func loadModel(t testing.TB, name, src string) *model.Model {
	t.Helper()
	d, perrs := lisaparser.Parse(src, name+".lisa")
	for _, e := range perrs {
		t.Fatalf("parse %s: %v", name, e)
	}
	m, errs := sema.Build(name, d)
	for _, e := range errs {
		t.Fatalf("sema %s: %v", name, e)
	}
	return m
}

// codingRoot returns m's first coding root, the one the assembler and
// the disassembler derive from.
func codingRoot(m *model.Model) *model.Operation {
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			return op
		}
	}
	return nil
}

// exampleSources returns the assembly of the examples: every .s file under
// examples/, and every Go string literal in the examples' sources, whole
// and line by line (the c62x examples build their programs from
// one-statement literals).
func exampleSources(t testing.TB) []string {
	t.Helper()
	var srcs []string
	err := filepath.Walk("../../examples", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".s":
			b, err := os.ReadFile(path)
			srcs = append(srcs, string(b))
			return err
		case ".go":
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						srcs = append(srcs, s)
						srcs = append(srcs, strings.Split(s, "\n")...)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// TestDecodeMatchesTrial checks that decoding by the plans gives the
// walk's results: on every stock model and hazard16, for fixed-seed
// random words, every word the model's assembler produces for the
// examples and those words with random bits flipped, the decoder and the
// plain first-match trial (walk_test.go) give the same instance tree or
// the same error text.
func TestDecodeMatchesTrial(t *testing.T) {
	hazard16, err := os.ReadFile("../models/testdata/hazard16.lisa")
	if err != nil {
		t.Fatal(err)
	}
	hazardProg, err := os.ReadFile("../models/testdata/hazard16.s")
	if err != nil {
		t.Fatal(err)
	}
	srcs := exampleSources(t)
	sources := map[string]string{"hazard16": string(hazard16)}
	for name, src := range models.All {
		sources[name] = src
	}
	progs := func(name string) []string {
		if name == "hazard16" {
			return append([]string{string(hazardProg)}, srcs...)
		}
		return srcs
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			decodeMatchesTrial(t, name, src, progs(name))
		})
	}
}

// decodeMatchesTrial runs TestDecodeMatchesTrial on one model, with the
// words its assembler produces for progs.
func decodeMatchesTrial(t *testing.T, name, src string, progs []string) {
	m := loadModel(t, name, src)
	a, err := asm.NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	root := codingRoot(m)
	width := root.RootResource.Width
	var assembled []uint64
	for _, s := range progs {
		if p, err := a.Assemble(s); err == nil {
			assembled = append(assembled, p.Words...)
		}
	}
	if len(assembled) == 0 {
		t.Errorf("%s: no example assembles", name)
	}
	dec, trial := coding.NewDecoder(m), coding.NewTrial(m)
	rng := rand.New(rand.NewSource(14))
	words := append([]uint64(nil), assembled...)
	for _, w := range assembled {
		words = append(words, w^1<<rng.Intn(width), w^1<<rng.Intn(width)^1<<rng.Intn(width))
	}
	for i := 0; i < 100_000; i++ {
		words = append(words, rng.Uint64())
	}
	decoded := 0
	for _, w := range words {
		if sameDecode(t, name, root, dec, trial, bitvec.New(w, width)) {
			decoded++
		}
	}
	t.Logf("%s: %d words (%d from the examples), %d decode", name, len(words), len(assembled), decoded)
}

// sameDecode fails the test unless dec and the plain first-match trial
// give word the same instance tree or the same error text, and reports
// whether it decodes.
func sameDecode(t *testing.T, name string, root *model.Operation, dec *coding.Decoder, trial *coding.Trial, word bitvec.Value) bool {
	t.Helper()
	got, gotErr := dec.DecodeRoot(root, word)
	want, wantErr := trial.DecodeRoot(root, word)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s %#x: error %v, trial gives %v", name, word.Uint(), gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %#x: error %q, trial gives %q", name, word.Uint(), gotErr, wantErr)
		}
		return false
	case got.String() != want.String():
		t.Fatalf("%s %#x: %s, trial gives %s", name, word.Uint(), got, want)
	}
	return true
}

// nestedISA's st passes its fixed bits on 11 01 x1 and 11 10 x1 but fails
// in its Mode group, while ld's fixed bits already fail: the error must
// still wrap ld's, the first member's.
const nestedISA = `
RESOURCE {
  CONTROL_REGISTER bit[6] ir;
}
OPERATION decode {
  DECLARE { GROUP Insn = { ld; st }; }
  CODING { ir == Insn }
}
OPERATION ld {
  DECLARE { GROUP Mode = { direct }; }
  CODING { 0b10 Mode 0bxx }
}
OPERATION st {
  DECLARE { GROUP Mode = { direct; indirect }; }
  CODING { 0b1x Mode 0bx1 }
}
OPERATION direct { CODING { 0b00 } }
OPERATION indirect { CODING { 0b11 } }
`

func TestDecodeMatchesTrialExhaustive(t *testing.T) {
	m := loadModel(t, "nested", nestedISA)
	root := m.Ops["decode"]
	dec, trial := coding.NewDecoder(m), coding.NewTrial(m)
	for w := uint64(0); w < 1<<6; w++ {
		sameDecode(t, "nested", root, dec, trial, bitvec.New(w, 6))
	}
}
