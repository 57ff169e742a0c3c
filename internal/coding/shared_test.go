package coding_test

import (
	"os"
	"sync"
	"testing"

	"golisa/internal/asm"
	"golisa/internal/coding"
	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/gosim"
	"golisa/internal/models"
	"golisa/internal/sim"
)

// TestOneDecoderPerModel builds every tool that decodes words on one
// loaded model: the assembler, the disassembler, a prebound artifact, a
// simulator, FindUnreachable, a coverage map and gosim's model IR. The
// load builds the model's decoder for its check, and no tool builds
// another.
func TestOneDecoderPerModel(t *testing.T) {
	before := coding.Built()
	mc, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	if n := coding.Built() - before; n != 1 {
		t.Fatalf("the load built %d decoders, want 1", n)
	}
	a, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.NewDisassembler(); err != nil {
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
	art := sim.NewArtifact(mc.Model, sim.CompiledPrebound)
	if err := art.Prewarm(prog.Words); err != nil {
		t.Fatal(err)
	}
	sim.New(mc.Model, sim.Interpretive)
	coding.FindUnreachable(mc.Model)
	cover.NewMap(mc.Model)
	if _, err := gosim.Compile(mc, prog); err != nil {
		t.Fatal(err)
	}
	if n := coding.Built() - before; n != 1 {
		t.Errorf("the model's tools built %d decoders in all, want 1", n)
	}
	if coding.For(mc.Model) != coding.For(mc.Model) {
		t.Error("For gives two decoders for one model")
	}
}

// TestForConcurrent builds a disassembler of one fresh model on eight
// goroutines at once, each disassembling with it: all share one decoder,
// built once.
func TestForConcurrent(t *testing.T) {
	m := loadModel(t, "c62x", models.All["c62x"])
	before := coding.Built()
	decs := make([]*coding.Decoder, 8)
	var wg sync.WaitGroup
	for i := range decs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := asm.NewDisassembler(m)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := d.Disassemble(0); err != nil {
				t.Error(err)
			}
			decs[i] = coding.For(m)
		}()
	}
	wg.Wait()
	if n := coding.Built() - before; n != 1 {
		t.Errorf("%d decoders built, want 1", n)
	}
	for _, d := range decs[1:] {
		if d != decs[0] {
			t.Fatal("goroutines got different decoders")
		}
	}
}
