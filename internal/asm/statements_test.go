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
	"golisa/internal/model"
)

// The symbols of the statements golden: a line that names definedSym is
// assembled as a program that first defines it as 5 with .equ; no line
// defines undefinedSym.
const (
	definedSym   = "equ_sym"
	undefinedSym = "no_sym"
)

// TestStatementsGolden assembles every line of
// testdata/statements/<model>.txt on its stock model and compares the
// word, or the exact error text, with the one the line records. The
// lines are the disassembly of seeded random words and variants of
// each: lower-cased, with doubled spaces, without its last operand,
// with one operand too many, and with each operand number replaced by a
// value one bit too wide for its field, by an undefined symbol and by a
// defined symbol plus 4. A missing file is written from the assembler
// under test and the test fails, so deleting one and re-running the
// test regenerates it.
func TestStatementsGolden(t *testing.T) {
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		a, m := stockAssembler(t, name)
		path := filepath.Join("testdata", "statements", name+".txt")
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			var b strings.Builder
			for _, text := range statementCorpus(t, m) {
				fmt.Fprintf(&b, "%s\t%s\n", text, assembleLine(a, text))
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
		for i, line := range lines {
			text, want, ok := strings.Cut(line, "\t")
			if !ok {
				t.Fatalf("%s:%d: no tab in %q", path, i+1, line)
			}
			if got := assembleLine(a, text); got != want {
				t.Errorf("%s:%d: %q gives %s, want %s", path, i+1, text, got, want)
			}
		}
		if len(lines) < 500 {
			t.Errorf("%s: %d lines, want at least 500", path, len(lines))
		}
	}
}

// assembleLine renders what a gives for one line of the golden: the
// word in hex, or "error: " and the error text.
func assembleLine(a *Assembler, text string) string {
	var w uint64
	var err error
	if strings.Contains(text, definedSym) {
		var p *Program
		if p, err = a.Assemble(".equ " + definedSym + " 5\n" + text); err == nil && len(p.Words) > 0 {
			w = p.Words[0]
		}
	} else {
		w, err = a.AssembleStatement(text)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#x", w)
}

// statementCorpus returns the golden's statements for m: up to 500
// disassembled random words and their variants, each statement once.
func statementCorpus(t *testing.T, m *model.Model) []string {
	d, err := NewDisassembler(m)
	if err != nil {
		t.Fatal(err)
	}
	tree := newTreeDisassembler(t, m)
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	rng := rand.New(rand.NewSource(25))
	for words, tries := 0, 0; words < 500 && tries < 100000; tries++ {
		word := uint64(rng.Uint32())
		text, err := d.Disassemble(word)
		if err != nil || seen[text] {
			continue
		}
		words++
		add(text)
		add(strings.ToLower(text))
		add(strings.ReplaceAll(text, " ", "  "))
		i := strings.LastIndex(text, ",")
		if i < 0 {
			i = strings.LastIndex(text, " ")
		}
		if i >= 0 {
			add(strings.TrimSpace(text[:i]))
			add(text + text[i:i+1] + text[i+1:])
		}
		insn, err := tree.insn(word)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range operands(insn, nil) {
			width := o.in.Labels[o.label].Width()
			if width < 64 {
				wide := uint64(1) << width
				if o.format == "#s" {
					wide >>= 1
				}
				add(replaceOperand(t, insn, o, formatNum(wide, o.format)))
			}
			add(replaceOperand(t, insn, o, undefinedSym))
			add(replaceOperand(t, insn, o, definedSym+"+4"))
		}
	}
	return out
}

// operand is a LABEL reference in an instruction's syntax: the node that
// binds it, its label and its format.
type operand struct {
	in            *model.Instance
	label, format string
}

// operands appends the LABEL references of in's syntax to out in the
// order the disassembler renders them.
func operands(in *model.Instance, out []operand) []operand {
	for _, e := range in.Variant.Syntax.Elems {
		ref, ok := e.(*ast.SyntaxRef)
		if !ok {
			continue
		}
		if _, isLabel := in.Labels[ref.Name]; isLabel {
			out = append(out, operand{in, ref.Name, ref.Format})
		} else if c := in.Bindings[ref.Name]; c != nil && c.Variant != nil && c.Variant.Syntax != nil {
			out = operands(c, out)
		}
	}
	return out
}

// replaceOperand renders insn with operand o written as with.
func replaceOperand(t *testing.T, insn *model.Instance, o operand, with string) string {
	const sentinel = 0x5eb7a1
	old := o.in.Labels[o.label]
	o.in.Labels[o.label] = bitvec.New(sentinel, 64)
	text, err := renderTree(insn)
	o.in.Labels[o.label] = old
	if err != nil {
		t.Fatal(err)
	}
	mark := formatNum(sentinel, o.format)
	if !strings.Contains(text, mark) {
		t.Fatalf("%q does not render operand %s", text, o.label)
	}
	return strings.ReplaceAll(text, mark, with)
}

// formatNum renders v as the disassembler renders a label of format.
func formatNum(v uint64, format string) string {
	if format == "#x" {
		return fmt.Sprintf("0x%x", v)
	}
	return fmt.Sprint(v)
}
