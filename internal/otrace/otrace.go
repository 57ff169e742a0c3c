// Package otrace implements the W3C-style trace context shared by every
// golisa entry point: a 128-bit TraceID naming one logical request (a
// single lisa-sim run, a fleet batch, one debug-server HTTP request) and
// a 64-bit SpanID per unit of work inside it. The IDs propagate through
// the `traceparent` header on the wire and the LISA_TRACEPARENT
// environment variable across processes, and every observability sink —
// the NDJSON job stream, .lperf run records, Prometheus info metrics,
// the merged Chrome timeline, the HTTP access log, diagnostic bundles —
// carries them, so one incident can be followed from the HTTP request
// that triggered it down to the simulation phase that misbehaved.
//
// The package is deliberately tiny: IDs, the Context pair, and an
// in-memory Trace/Span tree with JSON and text renderings. It is not an
// OpenTelemetry SDK; it is the minimal identity layer the fleet needs,
// with a wire format (traceparent) any real collector understands.
package otrace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
)

// TraceID is the 128-bit identity of one logical request, shared by all
// its spans. The zero value is invalid, per the W3C spec.
type TraceID [16]byte

// SpanID is the 64-bit identity of one span. The zero value is invalid.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		mustRand(t[:])
	}
	return t
}

// NewSpanID returns a random, non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		mustRand(s[:])
	}
	return s
}

// mustRand fills b from crypto/rand; the platform CSPRNG not being
// readable is unrecoverable.
func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("otrace: crypto/rand: %v", err))
	}
}

// Context is one point in a trace: the trace it belongs to and the span
// that is current there. It is what crosses process and network
// boundaries (as a traceparent header) and what child work parents under.
type Context struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (c Context) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00, sampled: "00-<32 hex>-<16 hex>-01".
func (c Context) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", c.TraceID, c.SpanID)
}

// Parse decodes a W3C traceparent header value. Any version except the
// reserved "ff" is accepted (per spec, unknown future versions must still
// parse their leading fields, and may only continue after a "-"); every
// field must be lower-case hex, as the spec requires of a header a
// receiver honours. The flags byte is otherwise ignored — this package
// treats every trace as sampled.
func Parse(traceparent string) (Context, error) {
	var c Context
	// version(2) - trace-id(32) - span-id(16) - flags(2)
	if len(traceparent) < 55 {
		return c, fmt.Errorf("otrace: traceparent %q too short", traceparent)
	}
	if traceparent[2] != '-' || traceparent[35] != '-' || traceparent[52] != '-' {
		return c, fmt.Errorf("otrace: traceparent %q is not dash-delimited", traceparent)
	}
	for _, f := range []struct{ name, s string }{
		{"version", traceparent[0:2]},
		{"trace-id", traceparent[3:35]},
		{"span-id", traceparent[36:52]},
		{"flags", traceparent[53:55]},
	} {
		if !isLowerHex(f.s) {
			return c, fmt.Errorf("otrace: traceparent %s %q is not lower-case hex", f.name, f.s)
		}
	}
	switch {
	case traceparent[0:2] == "ff":
		return c, fmt.Errorf("otrace: traceparent version ff is invalid")
	case traceparent[0:2] == "00" && len(traceparent) != 55:
		return c, fmt.Errorf("otrace: version-00 traceparent must be 55 chars, got %d", len(traceparent))
	case len(traceparent) > 55 && traceparent[55] != '-':
		return c, fmt.Errorf("otrace: traceparent %q continues past the flags without a dash", traceparent)
	}
	// Both ids were checked as hex above, so decoding cannot fail.
	_, _ = hex.Decode(c.TraceID[:], []byte(traceparent[3:35]))
	_, _ = hex.Decode(c.SpanID[:], []byte(traceparent[36:52]))
	if !c.Valid() {
		return Context{}, fmt.Errorf("otrace: traceparent %q has all-zero ids", traceparent)
	}
	return c, nil
}

// isLowerHex reports whether s consists of lower-case hex digits only.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EnvVar is the environment variable child processes inherit a trace
// context from (a traceparent header value), so a shell pipeline of
// lisa-* tools shares one TraceID.
const EnvVar = "LISA_TRACEPARENT"

// FromEnv builds a trace for one tool invocation: joined under the
// LISA_TRACEPARENT context when the environment carries a valid one,
// fresh otherwise.
func FromEnv(name string) *Trace {
	if tp := os.Getenv(EnvVar); tp != "" {
		if ctx, err := Parse(tp); err == nil {
			return Join(ctx, name)
		}
	}
	return New(name)
}
