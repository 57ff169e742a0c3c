package docgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/models"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

// TestDocsMatchGenerated pins docs/<model>.md to the generator: each file
// is exactly what lisa-doc -model <model> prints.
func TestDocsMatchGenerated(t *testing.T) {
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		mc, err := core.LoadBuiltin(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "docs", name+".md"))
		if err != nil {
			t.Fatal(err)
		}
		if Generate(mc.Model) != string(want) {
			t.Errorf("docs/%s.md differs from the generator; regenerate it with lisa-doc -model %s", name, name)
		}
	}
}

func TestGenerateSimple16Doc(t *testing.T) {
	d, perrs := parser.Parse(models.Simple16, "simple16.lisa")
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs[0])
	}
	m, errs := sema.Build("simple16", d)
	if len(errs) > 0 {
		t.Fatalf("sema: %v", errs[0])
	}
	m.SourceLines = sema.CountSourceLines(models.Simple16)
	doc := Generate(m)

	for _, want := range []string{
		"# simple16 — architecture reference",
		"## Resources",
		"| pc | PROGRAM_COUNTER |",
		"latch",
		"alias of accu[39..8]",
		"## Pipelines",
		"FE → DC → EX → WB",
		"## Instruction set",
		"### add",
		"Executes in pipeline stage `pipe.EX`",
		"Syntax: `ADD <Dest>, <Src1>, <Src2>`",
		"Semantics: `ADD dst, src1, src2`",
		"### jmp (alias)",
		"## Model statistics",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc missing %q", want)
		}
	}
}

func TestGenerateC62xDoc(t *testing.T) {
	d, perrs := parser.Parse(models.C62x, "c62x.lisa")
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs[0])
	}
	m, errs := sema.Build("c62x", d)
	if len(errs) > 0 {
		t.Fatalf("sema: %v", errs[0])
	}
	doc := Generate(m)
	for _, want := range []string{
		"PG → PS → PW → PR → DP",
		"DC → E1 → E2 → E3 → E4 → E5",
		"### ldw_d",
		"`execute_pipe.E5`",
		"### b_s",
		"`execute_pipe.DC`",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc missing %q", want)
		}
	}
}

func TestVariantGuardsRendered(t *testing.T) {
	src := `
RESOURCE { CONTROL_REGISTER bit[8] ir; REGISTER int A[4]; REGISTER int B[4]; }
OPERATION decode { DECLARE { GROUP I = { op }; } CODING { ir == I } }
OPERATION op {
  DECLARE { GROUP Side = { sa; sb }; LABEL i; }
  CODING { 0b00 Side i:0bx[5] }
  SWITCH (Side) {
    CASE sa: { SYNTAX { "OPA " i:#u } EXPRESSION { A[i] } }
    CASE sb: { SYNTAX { "OPB " i:#u } EXPRESSION { B[i] } }
  }
}
OPERATION sa { CODING { 0b0 } SYNTAX { "" } }
OPERATION sb { CODING { 0b1 } SYNTAX { "" } }
`
	d, perrs := parser.Parse(src, "t")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	m, errs := sema.Build("guards", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	doc := Generate(m)
	if !strings.Contains(doc, "when Side == sa") {
		t.Errorf("variant guard not rendered:\n%s", doc)
	}
	if !strings.Contains(doc, "Coding: `00 <Side> i[5]`") {
		t.Errorf("coding text wrong:\n%s", doc)
	}
}

func TestCustomSectionsRendered(t *testing.T) {
	src := `
RESOURCE { CONTROL_REGISTER bit[4] ir; }
OPERATION decode { DECLARE { GROUP I = { op }; } CODING { ir == I } }
OPERATION op {
  CODING { 0b0000 }
  SYNTAX { "OP" }
  POWER { 12 mW typical }
}
`
	d, _ := parser.Parse(src, "t")
	m, errs := sema.Build("custom", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	doc := Generate(m)
	if !strings.Contains(doc, "POWER: 12 mW typical") {
		t.Errorf("custom section not rendered:\n%s", doc)
	}
}
