package profile_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/profile"
	"golisa/internal/sim"
)

const countdown = `
start:  LDI B1, 1
        LDI A1, 6
loop:   SUB A1, A1, B1
        BNZ A1, loop
        NOP
        NOP
        HALT
`

func runProfiled(t *testing.T, mode sim.Mode) (*profile.Profiler, sim.Profile) {
	t.Helper()
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, prog, err := m.AssembleAndLoad(countdown, mode)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := m.NewDisassembler()
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(profile.Options{
		Source: "countdown.s",
		Model:  m.Model.Name,
		Origin: prog.Origin,
		Words:  prog.Words,
		Dis:    dis,
	})
	s.SetObserver(p)
	if _, err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("program did not halt")
	}
	return p, s.Profile()
}

// TestCycleAttributionTotal checks the profiler's core invariant: the sum
// of per-site cycles (plus idle) equals the simulator's step count.
func TestCycleAttributionTotal(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
		t.Run(mode.String(), func(t *testing.T) {
			p, prof := runProfiled(t, mode)
			if p.Steps() != prof.Steps {
				t.Fatalf("profiler steps %d != sim steps %d", p.Steps(), prof.Steps)
			}
			if got := p.TotalCycles(); got != prof.Steps {
				t.Fatalf("attributed cycles %d != steps %d", got, prof.Steps)
			}
			var sum uint64
			for _, s := range p.Sites() {
				sum += s.Cycles()
			}
			if sum+p.IdleCycles() != prof.Steps {
				t.Fatalf("site cycles %d + idle %d != steps %d", sum, p.IdleCycles(), prof.Steps)
			}
		})
	}
}

// TestSiteResolution checks that sites resolve to program addresses and
// disassembled syntax, and that packet linking attributes executed
// operations back to their dispatching site.
func TestSiteResolution(t *testing.T) {
	p, _ := runProfiled(t, sim.Compiled)
	sites := p.Sites()
	if len(sites) < 5 {
		t.Fatalf("expected at least 5 distinct sites, got %d", len(sites))
	}
	var sub *profile.Site
	for _, s := range sites {
		if strings.HasPrefix(s.Text, "SUB") {
			sub = s
		}
	}
	if sub == nil {
		t.Fatalf("no SUB site resolved; sites: %v", siteLabels(sites))
	}
	if sub.Addr != 2 {
		t.Errorf("SUB site at addr %#x, want 0x2", sub.Addr)
	}
	// The loop body runs 6 times: 6 issue cycles for the SUB site.
	if sub.IssueCycles != 6 {
		t.Errorf("SUB issue cycles = %d, want 6", sub.IssueCycles)
	}
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	if id := m.Model.Ops["sub"].Index; sub.Ops == nil || sub.Ops[id] == 0 {
		t.Errorf("SUB site has no linked sub executions: %v", sub.Ops)
	}
}

func siteLabels(sites []*profile.Site) []string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.Label()
	}
	return out
}

// TestWriteText smoke-checks the hot-spot report.
func TestWriteText(t *testing.T) {
	p, prof := runProfiled(t, sim.Compiled)
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("%d control steps", prof.Steps),
		"SUB A1, A1, B1",
		"CYCLES",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteFolded checks the folded-stack export parses and sums to the
// step count.
func TestWriteFolded(t *testing.T) {
	p, prof := runProfiled(t, sim.Compiled)
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad folded line %q", line)
		}
		stack, countStr := line[:i], line[i+1:]
		n, err := strconv.ParseUint(countStr, 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		for _, frame := range strings.Split(stack, ";") {
			if frame == "" {
				t.Fatalf("empty frame in %q", line)
			}
			if strings.ContainsAny(frame, " ") {
				t.Fatalf("frame with space in %q", line)
			}
		}
		sum += n
	}
	if sum != prof.Steps {
		t.Fatalf("folded cycles %d != steps %d", sum, prof.Steps)
	}
}

// TestWritePprof decodes the gzipped protobuf with a minimal wire-format
// reader and checks the sample values sum to the simulated steps and the
// string table carries disassembled site labels.
func TestWritePprof(t *testing.T) {
	p, prof := runProfiled(t, sim.Compiled)
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	var total uint64
	var sampleTypes, samples, locations, functions int
	var strtab []string
	walkFields(t, raw, func(field int, payload []byte, varint uint64) {
		switch field {
		case 1:
			sampleTypes++
		case 2:
			samples++
			walkFields(t, payload, func(f int, _ []byte, v uint64) {
				if f == 2 {
					total += v
				}
			})
		case 4:
			locations++
		case 5:
			functions++
		case 6:
			strtab = append(strtab, string(payload))
		}
	})
	if sampleTypes != 1 {
		t.Errorf("sample_type count = %d, want 1", sampleTypes)
	}
	if total != prof.Steps {
		t.Fatalf("pprof cycle total %d != steps %d", total, prof.Steps)
	}
	if samples == 0 || locations == 0 || functions == 0 {
		t.Fatalf("empty profile: %d samples, %d locations, %d functions", samples, locations, functions)
	}
	if locations != functions {
		t.Errorf("locations %d != functions %d", locations, functions)
	}
	if len(strtab) == 0 || strtab[0] != "" {
		t.Fatalf("string table must start with the empty string: %q", strtab)
	}
	joined := strings.Join(strtab, "\n")
	for _, want := range []string{"cycles", "count", "SUB A1, A1, B1", "countdown.s"} {
		if !strings.Contains(joined, want) {
			t.Errorf("string table missing %q", want)
		}
	}
}

// walkFields iterates the top-level fields of one protobuf message,
// reporting length-delimited payloads and varint values.
func walkFields(t *testing.T, b []byte, f func(field int, payload []byte, varint uint64)) {
	t.Helper()
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			t.Fatal("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := readVarint(b)
			if n == 0 {
				t.Fatal("truncated varint")
			}
			b = b[n:]
			f(field, nil, v)
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b[n:])) < l {
				t.Fatal("truncated length-delimited field")
			}
			f(field, b[n:n+int(l)], 0)
			b = b[n+int(l):]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	return 0, 0
}
