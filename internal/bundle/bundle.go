// Package bundle implements the one-command diagnostic capture of the
// golisa observability stack: a single tar.gz holding everything needed
// to debug a run after the fact — the trace's span tree, the flight
// recorder ring, the cycle profile, the hazard analysis, the coverage
// snapshot, the perf run record, the build/host fingerprint and the
// invocation config — all stamped with the run's TraceID so the archive
// joins the NDJSON streams, ledgers and timelines the same run produced.
//
// The format is deliberately boring: a gzip'd tar whose first entry is
// meta.json (the manifest: identity plus the section list), followed by
// one file per captured section. `lisa-bundle inspect` pretty-prints it
// offline; any tar tool opens it.
package bundle

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"golisa/internal/buildinfo"
	"golisa/internal/otrace"
	"golisa/internal/perf"
)

// Canonical section file names. Producers are free to add others; these
// are the ones inspect knows how to render.
const (
	MetaFile     = "meta.json"      // the manifest, always the first tar entry
	SpansFile    = "spans.json"     // otrace.Doc: the run's span tree
	FlightFile   = "flight.txt"     // flight-recorder ring dump
	ProfileFile  = "profile.pb.gz"  // pprof cycle profile
	AnalyzeFile  = "analyze.json"   // hazard attribution report
	CoverageFile = "coverage.json"  // model-coverage report
	PerfFile     = "perf.json"      // sealed perf run record
	BuildFile    = "buildinfo.json" // build/host fingerprint
	ConfigFile   = "config.json"    // invocation: argv, model, mode, program
)

// Meta is the bundle manifest (the meta.json section): what ran, where,
// and under which trace identity.
type Meta struct {
	Tool        string         `json:"tool"`
	Model       string         `json:"model,omitempty"`
	ModelHash   string         `json:"model_hash,omitempty"`
	Program     string         `json:"program,omitempty"`
	ProgramHash string         `json:"program_hash,omitempty"`
	Mode        string         `json:"mode,omitempty"`
	TraceID     string         `json:"trace_id,omitempty"`
	Traceparent string         `json:"traceparent,omitempty"`
	Time        string         `json:"time,omitempty"` // capture timestamp, RFC3339
	Host        buildinfo.Info `json:"host"`
	Sections    []string       `json:"sections"`
}

// Builder accumulates sections and writes the archive. Sections are kept
// in memory — bundles are diagnostic payloads (kilobytes to a few
// megabytes), not bulk exports.
type Builder struct {
	meta     Meta
	names    []string
	sections map[string][]byte
}

// New creates a builder. The meta's Host and Time are stamped here;
// Sections is filled at write time.
func New(meta Meta) *Builder {
	meta.Host = buildinfo.Get()
	if meta.Time == "" {
		meta.Time = time.Now().UTC().Format(time.RFC3339)
	}
	return &Builder{meta: meta, sections: map[string][]byte{}}
}

// Add stores one section. Adding the same name twice replaces the
// content and keeps the original position.
func (b *Builder) Add(name string, data []byte) {
	if _, dup := b.sections[name]; !dup {
		b.names = append(b.names, name)
	}
	b.sections[name] = data
}

// AddFunc captures a section from a writer-style emitter (the shape
// every golisa report exposes). Emit errors skip the section and are
// returned so the caller can decide whether a partial bundle is fine.
func (b *Builder) AddFunc(name string, emit func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := emit(&buf); err != nil {
		return fmt.Errorf("bundle: capture %s: %w", name, err)
	}
	b.Add(name, buf.Bytes())
	return nil
}

// Len returns the number of captured sections (meta excluded).
func (b *Builder) Len() int { return len(b.names) }

// Meta returns the manifest as it will be written, section list included.
func (b *Builder) Meta() Meta {
	m := b.meta
	m.Sections = append([]string(nil), b.names...)
	return m
}

// WriteTar writes the bundle as a gzip'd tar: meta.json first, then the
// sections in the order they were added.
func (b *Builder) WriteTar(w io.Writer) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	metaJSON, err := json.MarshalIndent(b.Meta(), "", "  ")
	if err != nil {
		return fmt.Errorf("bundle: marshal meta: %w", err)
	}
	write := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)),
			ModTime: time.Unix(0, 0).UTC(), // content-determined archives stay byte-stable
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := write(MetaFile, metaJSON); err != nil {
		return fmt.Errorf("bundle: write %s: %w", MetaFile, err)
	}
	for _, name := range b.names {
		if err := write(name, b.sections[name]); err != nil {
			return fmt.Errorf("bundle: write %s: %w", name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("bundle: close tar: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("bundle: close gzip: %w", err)
	}
	return nil
}

// Bundle is a read-back archive.
type Bundle struct {
	Meta  Meta
	Files map[string][]byte
	// Order preserves the archive's entry order (meta.json excluded).
	Order []string
}

// maxInflated bounds what Read inflates, each section and the whole
// archive. The largest bundle the tools write, c62x with a 4096-entry
// flight ring and every report, inflates to about 160 KB.
const maxInflated = 16 << 20

// Read parses a bundle archive. The first entry must be meta.json.
func Read(r io.Reader) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: not a gzip archive: %w", err)
	}
	defer gz.Close()
	in := &io.LimitedReader{R: gz, N: maxInflated + 1}
	tr := tar.NewReader(in)
	bn := &Bundle{Files: map[string][]byte{}}
	first := true
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		name, data := "tar", []byte(nil)
		if err == nil {
			name = hdr.Name
			data, err = io.ReadAll(tr)
		}
		switch {
		case in.N == 0:
			return nil, fmt.Errorf("bundle: archive inflates past %d MiB", maxInflated>>20)
		case err != nil:
			return nil, fmt.Errorf("bundle: read %s: %w", name, err)
		}
		if first {
			first = false
			if hdr.Name != MetaFile {
				return nil, fmt.Errorf("bundle: first entry is %q, want %s", hdr.Name, MetaFile)
			}
			if err := json.Unmarshal(data, &bn.Meta); err != nil {
				return nil, fmt.Errorf("bundle: parse %s: %w", MetaFile, err)
			}
			continue
		}
		bn.Files[hdr.Name] = data
		bn.Order = append(bn.Order, hdr.Name)
	}
	if first {
		return nil, fmt.Errorf("bundle: empty archive")
	}
	return bn, nil
}

// Section returns a section's bytes, nil when absent.
func (bn *Bundle) Section(name string) []byte { return bn.Files[name] }

// WriteInspect pretty-prints the bundle for terminal triage: the
// manifest, the span tree, the perf record, and a size-annotated listing
// of everything else.
func (bn *Bundle) WriteInspect(w io.Writer) error {
	ew := &errWriter{w: w}
	m := bn.Meta
	fmt.Fprintf(ew, "bundle captured %s by %s\n", m.Time, m.Tool)
	if m.Model != "" {
		fmt.Fprintf(ew, "  model %s", m.Model)
		if m.ModelHash != "" {
			fmt.Fprintf(ew, " (hash %s)", m.ModelHash)
		}
		fmt.Fprintln(ew)
	}
	if m.Program != "" {
		fmt.Fprintf(ew, "  program %s", m.Program)
		if m.ProgramHash != "" {
			fmt.Fprintf(ew, " (hash %s)", m.ProgramHash)
		}
		if m.Mode != "" {
			fmt.Fprintf(ew, ", %s mode", m.Mode)
		}
		fmt.Fprintln(ew)
	}
	if m.TraceID != "" {
		fmt.Fprintf(ew, "  trace %s\n", m.TraceID)
	}
	fmt.Fprintf(ew, "  host %s\n", m.Host.HostLine())
	names := append([]string(nil), bn.Order...)
	if len(names) == 0 {
		for name := range bn.Files {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	fmt.Fprintf(ew, "  %d sections:\n", len(names))
	for _, name := range names {
		fmt.Fprintf(ew, "    %-16s %6d bytes\n", name, len(bn.Files[name]))
	}
	if ew.err != nil {
		return ew.err
	}
	if data := bn.Section(SpansFile); data != nil {
		if doc, err := otrace.ReadDoc(bytes.NewReader(data)); err == nil {
			fmt.Fprintln(ew)
			if err := doc.WriteText(ew); err != nil {
				return err
			}
		}
	}
	if data := bn.Section(PerfFile); data != nil {
		var rec perf.RunRecord
		if err := json.Unmarshal(data, &rec); err == nil {
			fmt.Fprintln(ew)
			if err := rec.WriteText(ew); err != nil {
				return err
			}
		}
	}
	return ew.err
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
