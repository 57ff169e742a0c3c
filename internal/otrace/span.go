package otrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace is an in-memory span tree for one logical request. It is safe
// for concurrent use: fleet workers start and end job spans from their
// own goroutines.
type Trace struct {
	mu     sync.Mutex
	id     TraceID
	epoch  time.Time
	remote SpanID // parent of the root span when joined from a carrier
	spans  []*Span
	root   *Span
}

// Span is one timed unit of work inside a trace. Start/End are monotonic
// offsets from the trace epoch, so subtracting any two spans' bounds
// yields a real duration regardless of wall-clock adjustments.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration
	end    time.Duration
	ended  bool
	attrs  map[string]any
}

// New creates a trace with a fresh TraceID and a root span of the given
// name, already started.
func New(name string) *Trace {
	return newTrace(NewTraceID(), SpanID{}, name)
}

// Join creates a trace that continues a remote context: it shares the
// context's TraceID and parents its root span under the context's span,
// so a collector merging both sides sees one tree.
func Join(ctx Context, name string) *Trace {
	if !ctx.Valid() {
		return New(name)
	}
	return newTrace(ctx.TraceID, ctx.SpanID, name)
}

func newTrace(id TraceID, remote SpanID, name string) *Trace {
	t := &Trace{id: id, epoch: time.Now(), remote: remote}
	t.root = &Span{tr: t, id: NewSpanID(), parent: remote, name: name}
	t.spans = append(t.spans, t.root)
	return t
}

// ID returns the trace's TraceID.
func (t *Trace) ID() TraceID { return t.id }

// Epoch returns the wall-clock time the trace's span offsets count from
// (the document's start).
func (t *Trace) Epoch() time.Time { return t.epoch }

// Root returns the trace's root span.
func (t *Trace) Root() *Span { return t.root }

// Context returns the root span's context — what callers hand to child
// work (or render as a traceparent header) to parent under this trace.
func (t *Trace) Context() Context { return t.root.Context() }

// Start opens a child span under parent (the root span when parent is
// nil), started now.
func (t *Trace) Start(parent *Span, name string) *Span {
	if parent == nil {
		parent = t.root
	}
	sp := &Span{tr: t, id: NewSpanID(), parent: parent.id, name: name}
	t.mu.Lock()
	sp.start = time.Since(t.epoch)
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Len returns the number of spans recorded so far.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Context returns the span's (TraceID, SpanID) pair.
func (sp *Span) Context() Context { return Context{TraceID: sp.tr.id, SpanID: sp.id} }

// ID returns the span's SpanID.
func (sp *Span) ID() SpanID { return sp.id }

// End closes the span; a second End is a no-op so defer-and-explicit
// call sites stay correct.
func (sp *Span) End() {
	sp.tr.mu.Lock()
	if !sp.ended {
		sp.ended = true
		sp.end = time.Since(sp.tr.epoch)
	}
	sp.tr.mu.Unlock()
}

// Bounds returns the span's start and end as offsets from the trace
// epoch: the values Export renders as start_us and start_us + dur_us. An
// unfinished span ends now, as in Export.
func (sp *Span) Bounds() (start, end time.Duration) {
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if !sp.ended {
		return sp.start, time.Since(sp.tr.epoch)
	}
	return sp.start, sp.end
}

// SetAttr attaches one key/value attribute to the span.
func (sp *Span) SetAttr(key string, value any) {
	sp.tr.mu.Lock()
	if sp.attrs == nil {
		sp.attrs = map[string]any{}
	}
	sp.attrs[key] = value
	sp.tr.mu.Unlock()
}

// --- export ---------------------------------------------------------------

// SpanJSON is one span of an exported trace document.
type SpanJSON struct {
	SpanID  string         `json:"span_id"`
	Parent  string         `json:"parent_span_id,omitempty"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us,omitempty"`
	Ended   bool           `json:"ended"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Doc is the exported form of a trace: the JSON schema of a bundle's
// spans.json section.
type Doc struct {
	TraceID     string     `json:"trace_id"`
	Traceparent string     `json:"traceparent"`
	Start       string     `json:"start"`
	Spans       []SpanJSON `json:"spans"`
}

// Export snapshots the trace as a document. Unfinished spans are
// included with Ended false and their duration measured up to now, so a
// mid-run export (the live server's /bundle) still shows them.
func (t *Trace) Export() *Doc {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.epoch)
	d := &Doc{
		TraceID:     t.id.String(),
		Traceparent: t.root.Context().Traceparent(),
		Start:       t.epoch.UTC().Format(time.RFC3339Nano),
	}
	for _, sp := range t.spans {
		j := SpanJSON{
			SpanID:  sp.id.String(),
			Name:    sp.name,
			StartUs: float64(sp.start.Nanoseconds()) / 1e3,
			Ended:   sp.ended,
		}
		if !sp.parent.IsZero() {
			j.Parent = sp.parent.String()
		}
		end := sp.end
		if !sp.ended {
			end = now
		}
		j.DurUs = float64((end - sp.start).Nanoseconds()) / 1e3
		if len(sp.attrs) > 0 {
			attrs := make(map[string]any, len(sp.attrs))
			for k, v := range sp.attrs {
				attrs[k] = v
			}
			j.Attrs = attrs
		}
		d.Spans = append(d.Spans, j)
	}
	return d
}

// WriteJSON writes the trace document as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error { return t.Export().WriteJSON(w) }

// WriteJSON writes the document as indented JSON.
func (d *Doc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDoc parses a trace document (a bundle's spans.json section).
func ReadDoc(r io.Reader) (*Doc, error) {
	var d Doc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("otrace: parse trace document: %w", err)
	}
	return &d, nil
}

// WriteText renders the document as an indented span tree with
// durations, for terminal inspection (lisa-bundle inspect).
func (d *Doc) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace %s (started %s)\n", d.TraceID, d.Start); err != nil {
		return err
	}
	children := map[string][]SpanJSON{}
	ids := map[string]bool{}
	for _, sp := range d.Spans {
		ids[sp.SpanID] = true
	}
	var roots []SpanJSON
	for _, sp := range d.Spans {
		// Spans whose parent is outside this document (a remote context)
		// are roots of the local tree.
		if sp.Parent != "" && ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var walk func(sp SpanJSON, depth int) error
	walk = func(sp SpanJSON, depth int) error {
		state := ""
		if !sp.Ended {
			state = "  (unfinished)"
		}
		attrs := ""
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				attrs += fmt.Sprintf(" %s=%v", k, sp.Attrs[k])
			}
		}
		_, err := fmt.Fprintf(w, "%*s%s  %s  [span %s]%s%s\n",
			2*depth, "", sp.Name,
			time.Duration(sp.DurUs*1e3).Round(time.Microsecond), sp.SpanID, attrs, state)
		if err != nil {
			return err
		}
		for _, c := range children[sp.SpanID] {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, sp := range roots {
		if err := walk(sp, 1); err != nil {
			return err
		}
	}
	return nil
}
