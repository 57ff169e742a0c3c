package gosim

import (
	"fmt"
	"go/ast"
	gobuild "go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/bitvec"
	"golisa/internal/core"
	"golisa/internal/model"
)

// TestKernelStandsAlone type-checks kernel.go as a package of its own,
// with standard-library imports only, and finds it verbatim in a runner:
// the splice cannot come to depend on the rest of gosim.
func TestKernelStandsAlone(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "kernel.go", kernelSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if pkg, err := gobuild.Import(path, "", gobuild.FindOnly); err != nil || !pkg.Goroot {
			t.Errorf("kernel.go imports %s, which is not in the standard library", path)
		}
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("kernel", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("kernel.go does not type-check on its own: %v", err)
	}
	_, _, p := loadPair(t, "simple16", "", progLoop)
	src, err := p.EmitSource()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), kernelSrc[strings.Index(kernelSrc, "\nimport")+1:]) {
		t.Fatal("the runner does not carry kernel.go verbatim from its imports on")
	}
}

// checkKernel compares each bit-accurate helper with the bitvec operation
// the behavior layer computes: a and b as w-bit operands, b&63 as a shift
// count, to as the saturation width and as the width of sadds' second
// operand.
func checkKernel(t *testing.T, a, b uint64, w, to int) {
	A, B := bitvec.New(a, w), bitvec.New(b, w)
	n := uint(b & 63)
	var bad []string
	check := func(name string, got uint64, want bitvec.Value) {
		if got != want.Uint() {
			bad = append(bad, fmt.Sprintf("%s: got %#x, bitvec %#x", name, got, want.Uint()))
		}
	}
	check("mask", mask(w), bitvec.New(^uint64(0), w))
	check("sx", sx(a, w), bitvec.SignExtend(bitvec.New(a, 64), w))
	check("shl", shl(A.Uint(), b, w), bitvec.Shl(A, n))
	check("shru", shru(A.Uint(), b, w), bitvec.ShrU(A, n))
	check("shrs", shrs(A.Uint(), b, w), bitvec.ShrS(A, n))
	a, b = A.Uint(), B.Uint()
	check("sdiv", sdiv(a, b, w), bitvec.DivS(A, B))
	check("smod", smod(a, b, w), bitvec.RemS(A, B))
	quo, rem := bitvec.New(^uint64(0), w), bitvec.New(0, w)
	if b != 0 {
		quo, rem = bitvec.New(a/b, w), bitvec.New(a%b, w)
	}
	check("udiv", udiv(a, b, w), quo)
	check("umod", umod(a, b, w), rem)
	check("absv", absv(a, w), bitvec.Abs(A))
	lo, hi := A, B
	if bitvec.CmpS(A, B) > 0 {
		lo, hi = B, A
	}
	check("smin", smin(a, b, w), lo)
	check("smax", smax(a, b, w), hi)
	check("ssat", ssat(a, w, to), bitvec.SatS(A, to))
	C := bitvec.New(b, to)
	check("sadds", sadds(a, w, C.Uint(), to, false), bitvec.AddSat(A, C))
	check("ssubs", sadds(a, w, C.Uint(), to, true), bitvec.SubSat(A, C))
	if got, want := fmtS(a, w), fmt.Sprintf("%d", A.Int()); got != want {
		bad = append(bad, fmt.Sprintf("fmtS: got %s, want %s", got, want))
	}
	if got, want := atCycle(a, unknownWord(b)), fmt.Sprintf("cycle %d: dispatch of unknown word %#x", a, b); got != want {
		bad = append(bad, fmt.Sprintf("atCycle, unknownWord: got %q, want %q", got, want))
	}
	if bad != nil {
		t.Helper()
		t.Fatalf("a %#x, b %#x, width %d, to %d:\n%s", a, b, w, to, strings.Join(bad, "\n"))
	}
}

// TestKernelMatchesBitvec checks the helpers at every width, on the
// operands where two's complement is easy to get wrong: division by
// zero, the most negative value divided by -1, shift counts at and past
// the width and past 64, and saturation to 1 and to 64 bits.
func TestKernelMatchesBitvec(t *testing.T) {
	for w := 1; w <= 64; w++ {
		top, all := uint64(1)<<(w-1), bitvec.Mask(w)
		vals := []uint64{0, 1, 2, 3, 7, top - 1, top, top + 1, all - 1, all, 0x5555555555555555, 0xdeadbeefcafef00d}
		counts := []uint64{uint64(w - 1), uint64(w), uint64(w + 1), 63, 64, 65, 127}
		for _, a := range vals {
			for _, b := range append(vals, counts...) {
				for _, to := range []int{1, 2, max(w-1, 1), w, min(w+1, 64), 63, 64} {
					checkKernel(t, a, b, w, to)
				}
			}
		}
	}
}

func FuzzKernel(f *testing.F) {
	f.Add(uint64(1)<<63, ^uint64(0), uint8(63), uint8(0))
	f.Add(uint64(0x80), uint64(0), uint8(7), uint8(63))
	f.Fuzz(func(t *testing.T, a, b uint64, w, to uint8) {
		checkKernel(t, a, b, 1+int(w%64), 1+int(to%64))
	})
}

// FuzzRunnerRequest feeds arbitrary lines to the runner's request reader,
// for a program memory of any base and size: a line ends in a loaded run
// or a rejection, never a panic, what a loaded run holds stays in
// proportion to the line, and an image that model.Resource.CheckSpan
// finds past program memory is never loaded. The seeds are the requests
// of the test programs, and one of them moved to run past the end of
// program memory.
func FuzzRunnerRequest(f *testing.F) {
	for _, m := range []struct {
		name, lisa string
		progs      []string
	}{
		{"simple16", "", []string{progLoop, progOps}},
		{"opstest", opsModel, []string{opsProg, opsProgB, opsProgBad}},
	} {
		var mc *core.Machine
		var err error
		if m.lisa == "" {
			mc, err = core.LoadBuiltin(m.name)
		} else {
			mc, err = core.LoadMachine(m.name, m.lisa)
		}
		if err != nil {
			f.Fatal(err)
		}
		for i, src := range m.progs {
			a, err := mc.NewAssembler()
			if err != nil {
				f.Fatal(err)
			}
			prog, err := a.Assemble(src)
			if err != nil {
				f.Fatal(err)
			}
			p, err := Compile(mc, prog)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(p.request(10_000, i == 0)), uint8(p.nField), p.progMem.Base, p.progMem.Size)
		}
	}
	_, _, p := loadPair(f, "simple16", "", progLoop)
	f.Add(string(pastMemory(p)), uint8(p.nField), p.progMem.Base, p.progMem.Size)
	f.Fuzz(func(t *testing.T, line string, nField uint8, base, size uint64) {
		nf := int(nField % 16)
		q, ok := readRequest(line, nf, base, size)
		pm := &model.Resource{Name: "prog_mem", Base: base, Size: size}
		if err := pm.CheckSpan(q.origin, len(q.image)); err != nil && ok {
			t.Fatalf("loaded %d words at %#x: %v", len(q.image), q.origin, err)
		}
		if !ok {
			return
		}
		n := len(q.errs)
		if len(q.leaves) != n || len(q.fields) != n*nf {
			t.Fatalf("%d words with %d leaves and %d fields of %d each", n, len(q.leaves), len(q.fields), nf)
		}
		for j, i := range q.tab.idx {
			if i != 0 && (i > n || q.tab.get(q.tab.keys[j]) != i-1) {
				t.Fatalf("key %#x maps to word %d of %d", q.tab.keys[j], i-1, n)
			}
		}
		if size := 8*(len(q.image)+len(q.leaves)+len(q.fields)+2*len(q.tab.idx)) + 16*n; size > 32*len(line)+64 {
			t.Fatalf("a %d-byte line holds %d bytes", len(line), size)
		}
	})
}

// pastMemory returns a request for p's program with its image moved to
// end one word past program memory: a line a runner must refuse, as
// Compile and sim.Simulator.LoadProgram refuse such an image.
func pastMemory(p *Program) []byte {
	p.request(0, false) // encodes p.req: " origin image words\n"
	moved := p.progMem.Base + p.progMem.Size + 1 - uint64(len(p.Words))
	rest := p.req[len(appendNum(nil, p.Origin)):]
	return append(appendNum(appendNum(appendNum([]byte{'r'}, 10_000), 0), moved), rest...)
}
