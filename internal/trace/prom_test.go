package trace_test

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// The Prometheus text exposition format, parsed strictly:
// https://prometheus.io/docs/instrumenting/exposition_formats/
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promMetric is one parsed metric family.
type promMetric struct {
	name    string
	help    bool
	typ     string
	samples int
}

// parseExposition validates an exposition-format payload line by line and
// returns the metric families in order of appearance. It fails the test on
// any spec violation instead of skipping malformed lines.
func parseExposition(t *testing.T, text string) []*promMetric {
	t.Helper()
	var fams []*promMetric
	byName := map[string]*promMetric{}
	family := func(name string) *promMetric {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &promMetric{name: name}
		byName[name] = f
		fams = append(fams, f)
		return f
	}
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end in a line feed")
	}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without docstring: %q", ln+1, line)
			}
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", ln+1, name)
			}
			f := family(name)
			if f.help || f.typ != "" || f.samples > 0 {
				t.Fatalf("line %d: HELP for %q must precede TYPE and samples", ln+1, name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without type: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			f := family(name)
			if f.typ != "" {
				t.Fatalf("line %d: second TYPE for %q", ln+1, name)
			}
			if f.samples > 0 {
				t.Fatalf("line %d: TYPE for %q after its samples", ln+1, name)
			}
			f.typ = typ
		case strings.HasPrefix(line, "#"):
			continue // comment
		default:
			name := parseSample(t, ln+1, line)
			family(name).samples++
		}
	}
	return fams
}

// parseSample validates one `name{labels} value` line and returns the
// metric name.
func parseSample(t *testing.T, ln int, line string) string {
	t.Helper()
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !metricNameRe.MatchString(name) {
		t.Fatalf("line %d: bad metric name in %q", ln, line)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		parseLabels(t, ln, rest[1:end])
		rest = rest[end+1:]
	}
	value := strings.TrimPrefix(rest, " ")
	if value == rest {
		t.Fatalf("line %d: no space before value: %q", ln, line)
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		t.Fatalf("line %d: unparsable value %q: %v", ln, value, err)
	}
	return name
}

// parseLabels validates the inside of a {...} label set.
func parseLabels(t *testing.T, ln int, s string) {
	t.Helper()
	for s != "" {
		eq := strings.Index(s, "=")
		if eq < 0 {
			t.Fatalf("line %d: label without '=': %q", ln, s)
		}
		lname := s[:eq]
		if !labelNameRe.MatchString(lname) {
			t.Fatalf("line %d: bad label name %q", ln, lname)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			t.Fatalf("line %d: unquoted label value after %q", ln, lname)
		}
		s = s[1:]
		// Scan the escaped value: only \\, \" and \n escapes are legal.
		for {
			if s == "" {
				t.Fatalf("line %d: unterminated label value for %q", ln, lname)
			}
			switch s[0] {
			case '\\':
				if len(s) < 2 || !strings.ContainsRune(`\"n`, rune(s[1])) {
					t.Fatalf("line %d: illegal escape %q in label %q", ln, s[:2], lname)
				}
				s = s[2:]
				continue
			case '"':
				s = s[1:]
			default:
				s = s[1:]
				continue
			}
			break
		}
		if s == "" {
			return
		}
		if !strings.HasPrefix(s, ",") {
			t.Fatalf("line %d: expected ',' between labels, got %q", ln, s)
		}
		s = s[1:]
	}
}

// TestPrometheusExposition runs a real simulation and validates the whole
// /metrics payload against the exposition format: every family has HELP
// then TYPE then samples, names and labels are well-formed, and values
// parse as floats.
func TestPrometheusExposition(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	src := `
        LDI A1, 3
loop:   SUB A1, A1, A2
        BNZ A1, loop
        NOP
        NOP
        HALT
`
	s, _, err := m.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	metrics := trace.NewMetrics()
	s.SetObserver(metrics)
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := metrics.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, buf.String())
	if len(fams) == 0 {
		t.Fatal("no metric families parsed")
	}
	byName := map[string]*promMetric{}
	for _, f := range fams {
		if !f.help {
			t.Errorf("metric %s has no # HELP line", f.name)
		}
		if f.typ != "counter" {
			t.Errorf("metric %s has type %q, want counter", f.name, f.typ)
		}
		byName[f.name] = f
	}
	for _, want := range []string{
		"lisa_steps_total", "lisa_decodes_total", "lisa_op_execs_total",
		"lisa_stage_occupied_cycles_total", "lisa_pipe_shifts_total",
	} {
		f := byName[want]
		if f == nil || f.samples == 0 {
			t.Errorf("missing or sample-less metric %s", want)
		}
	}
}

// TestPromCauseLabels checks the cause-split stall exposition: attributed
// stalls add cause-labeled samples under the stall metric while the
// uncaused per-stage total remains, and the whole payload still passes the
// strict format parser.
func TestPromCauseLabels(t *testing.T) {
	metrics := trace.NewMetrics()
	metrics.OnAttach(&trace.Topology{Model: "m", Pipes: []trace.PipeInfo{{Name: "p", Stages: []string{"FE", "EX"}}},
		Resources: []string{"mem_wait"}})
	metrics.OnStepBegin(0)
	metrics.OnStall(trace.StallInfo{Pipe: 0, Stage: 1, Cause: trace.CauseData, Resource: 0})
	metrics.OnStall(trace.StallInfo{Pipe: 0, Stage: 1, Cause: trace.CauseControl})
	metrics.OnStall(trace.StallInfo{Pipe: 0, Stage: 0}) // unattributed
	metrics.OnFlush(trace.StallInfo{Pipe: 0, Stage: -1, Cause: trace.CauseControl})
	metrics.OnStepEnd(0)

	var buf bytes.Buffer
	if err := metrics.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	parseExposition(t, out)
	for _, want := range []string{
		`lisa_stage_stall_cycles_total{pipe="p",stage="EX"} 2`,
		`lisa_stage_stall_cycles_total{pipe="p",stage="EX",cause="data"} 1`,
		`lisa_stage_stall_cycles_total{pipe="p",stage="EX",cause="control"} 1`,
		`lisa_stage_stall_cycles_total{pipe="p",stage="FE"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The unattributed FE stall must NOT grow a cause label.
	if strings.Contains(out, `stage="FE",cause`) {
		t.Errorf("unattributed stall gained a cause label:\n%s", out)
	}
}

// TestPromEscaping checks that hostile model/label names are escaped per
// the exposition format and survive the strict parser.
func TestPromEscaping(t *testing.T) {
	metrics := trace.NewMetrics()
	metrics.OnAttach(&trace.Topology{Model: "evil\"model\\with\nnewline", Pipes: []trace.PipeInfo{
		{Name: "p\"0", Stages: []string{"S\\1"}},
	}, Ops: []string{"op\"x"}})
	metrics.OnStepBegin(0)
	metrics.OnExec(0, 0, 0, 1)
	metrics.OnStepEnd(0)

	var buf bytes.Buffer
	if err := metrics.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	parseExposition(t, out)
	for _, want := range []string{
		`model="evil\"model\\with\nnewline"`,
		`pipe="p\"0"`,
		`op="op\"x"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing escaped label %q in:\n%s", want, out)
		}
	}
}
