package vcd

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/parser"
	"golisa/internal/pipeline"
	"golisa/internal/sema"
	"golisa/internal/sim"

	"golisa/internal/bitvec"
	"golisa/internal/model"
)

func buildState(t *testing.T, src string) (*model.Model, *model.State) {
	t.Helper()
	d, perrs := parser.Parse(src, "t")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	m, errs := sema.Build("vcdtest", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	return m, model.NewState(m)
}

func TestHeaderDeclaresSignals(t *testing.T) {
	m, st := buildState(t, `
RESOURCE {
  REGISTER int r0;
  REGISTER bit c;
  DATA_MEMORY int mem[8];
  PIPELINE p = { A; B };
}`)
	pipe := pipeline.New(m.Pipeline("p"))
	var sb strings.Builder
	w := New(&sb, st, []*pipeline.Pipe{pipe})
	w.Header("vcdtest")
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 1",
		"$var reg 32",
		"r0 $end",
		"c $end",
		"p.A $end",
		"p.B $end",
		"$enddefinitions $end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("header missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mem") {
		t.Error("memory resources must not become VCD signals")
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

func TestStepEmitsOnlyChanges(t *testing.T) {
	m, st := buildState(t, `RESOURCE { REGISTER int r0; REGISTER int r1; }`)
	var sb strings.Builder
	w := New(&sb, st, nil)
	w.Header("t")
	w.Step(0) // dumps initial values
	pre := sb.Len()
	w.Step(1) // nothing changed
	unchanged := sb.String()[pre:]
	if strings.Count(unchanged, "\n") != 1 { // only the #1 timestamp
		t.Errorf("expected no value lines for unchanged step, got %q", unchanged)
	}
	st.Write(m.Resource("r0"), bitvec.FromInt(5, 32))
	pre = sb.Len()
	w.Step(2)
	changed := sb.String()[pre:]
	if !strings.Contains(changed, "b00000000000000000000000000000101") {
		t.Errorf("value change not dumped: %q", changed)
	}
	if strings.Count(changed, "b") != 1 {
		t.Errorf("only the changed signal should be dumped: %q", changed)
	}
}

func TestPipelineOccupancySignal(t *testing.T) {
	m, st := buildState(t, `RESOURCE { REGISTER int r0; PIPELINE p = { A; B }; }`)
	_ = m
	pipe := pipeline.New(m.Pipeline("p"))
	var sb strings.Builder
	w := New(&sb, st, []*pipeline.Pipe{pipe})
	w.Header("t")
	w.Step(0)
	pipe.InsertFront(&pipeline.Entry{StageIdx: 0})
	pre := sb.Len()
	w.Step(1)
	out := sb.String()[pre:]
	if !strings.Contains(out, "1") {
		t.Errorf("occupancy change not dumped: %q", out)
	}
}

func TestUniqueIdentifiers(t *testing.T) {
	// More than 94 signals exercises multi-character VCD ids.
	var decls strings.Builder
	decls.WriteString("RESOURCE {\n")
	for i := 0; i < 100; i++ {
		decls.WriteString("REGISTER int r")
		decls.WriteString(strings.Repeat("x", 1))
		decls.WriteString(itoa(i))
		decls.WriteString(";\n")
	}
	decls.WriteString("}")
	_, st := buildState(t, decls.String())
	var sb strings.Builder
	w := New(&sb, st, nil)
	w.Header("many")
	out := sb.String()
	ids := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] == "$var" {
			if ids[fields[3]] {
				t.Fatalf("duplicate VCD id %q", fields[3])
			}
			ids[fields[3]] = true
		}
	}
	if len(ids) != 100 {
		t.Errorf("declared %d ids, want 100", len(ids))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestNoPipelines(t *testing.T) {
	// A model without any PIPELINE must still produce a valid dump.
	_, st := buildState(t, `RESOURCE { REGISTER int r0; }`)
	var sb strings.Builder
	w := New(&sb, st, nil)
	w.Header("plain")
	w.Step(0)
	w.Step(1)
	out := sb.String()
	if strings.Contains(out, ".") {
		t.Errorf("no stage tracks expected without pipelines:\n%s", out)
	}
	for _, want := range []string{"$enddefinitions $end", "$dumpvars", "#1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

func TestZeroStagePipeline(t *testing.T) {
	// A degenerate zero-stage pipeline contributes no signals and must not
	// panic during header or step emission.
	_, st := buildState(t, `RESOURCE { REGISTER int r0; }`)
	empty := pipeline.New(&model.Pipeline{Name: "empty"})
	var sb strings.Builder
	w := New(&sb, st, []*pipeline.Pipe{empty})
	w.Header("t")
	w.Step(0)
	w.Step(1)
	if strings.Contains(sb.String(), "empty") {
		t.Errorf("zero-stage pipeline must not declare signals:\n%s", sb.String())
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

func TestResourceArraysExcluded(t *testing.T) {
	// Register files and memories are arrays — neither becomes a VCD
	// signal, while sibling scalars still do.
	_, st := buildState(t, `
RESOURCE {
  REGISTER int R[8];
  DATA_MEMORY bit[16] dmem[32];
  REGISTER bit flag;
}`)
	var sb strings.Builder
	w := New(&sb, st, nil)
	w.Header("arrays")
	out := sb.String()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "$var") {
			continue
		}
		if strings.Contains(line, " R ") || strings.Contains(line, "dmem") {
			t.Errorf("array resource declared as signal: %q", line)
		}
	}
	if !strings.Contains(out, "flag $end") {
		t.Errorf("scalar sibling missing from header:\n%s", out)
	}
}

func TestRewriteSameValueNoDuplicate(t *testing.T) {
	// Re-writing a resource with the value it already holds must not
	// produce a new change record.
	m, st := buildState(t, `RESOURCE { REGISTER int r0; }`)
	var sb strings.Builder
	w := New(&sb, st, nil)
	w.Header("t")
	st.Write(m.Resource("r0"), bitvec.FromInt(5, 32))
	w.Step(0)
	st.Write(m.Resource("r0"), bitvec.FromInt(5, 32)) // same value again
	pre := sb.Len()
	w.Step(1)
	out := sb.String()[pre:]
	if strings.Count(out, "\n") != 1 { // only the "#1" timestamp line
		t.Errorf("unchanged re-write produced change records: %q", out)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

// TestObserverGoldenHazard16 attaches the writer as an observer to a
// hazard16 run on every engine and reproduces testdata/hazard16.vcd byte
// for byte. That file is lisa-sim -vcd's dump of
// internal/models/testdata/hazard16.s from before the writer became an
// observer; do not regenerate it from the code under test.
func TestObserverGoldenHazard16(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mc, err := core.LoadMachine("hazard16", string(read("../models/testdata/hazard16.lisa")))
	if err != nil {
		t.Fatal(err)
	}
	prog, want := read("../models/testdata/hazard16.s"), read("testdata/hazard16.vcd")
	for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
		t.Run(mode.String(), func(t *testing.T) {
			s, _, err := mc.AssembleAndLoad(string(prog), mode)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := New(&buf, s.S, s.Pipes())
			w.Header(mc.Model.Name)
			s.SetObserver(w)
			if _, err := s.Run(1000); err != nil {
				t.Fatal(err)
			}
			if w.Err() != nil {
				t.Fatal(w.Err())
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("VCD differs from testdata/hazard16.vcd:\n%s", buf.Bytes())
			}
		})
	}
}
