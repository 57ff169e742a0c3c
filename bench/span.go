package main

import (
	"runtime"

	"golisa/internal/otrace"
)

// tracer wraps each call into a layer in an otrace span and records the
// call's heap allocations (runtime.ReadMemStats deltas) as span
// attributes. A nil *tracer records nothing: untraced runs pay one nil
// check per layer call.
type tracer struct {
	tr *otrace.Trace
}

// span is one open layer call; nil when tracing is off.
type span struct {
	sp             *otrace.Span
	mallocs, bytes uint64
}

func readAllocs() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	var p *otrace.Span
	if parent != nil {
		p = parent.sp
	}
	s := &span{}
	s.mallocs, s.bytes = readAllocs()
	s.sp = t.tr.Start(p, name)
	return s
}

func (s *span) attr(key string, value any) {
	if s != nil {
		s.sp.SetAttr(key, value)
	}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.sp.End()
	m, b := readAllocs()
	s.sp.SetAttr("mallocs", m-s.mallocs)
	s.sp.SetAttr("alloc_bytes", b-s.bytes)
}
