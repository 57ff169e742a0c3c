package profile

import (
	"compress/gzip"
	"io"
)

// WritePprof emits the profile as gzipped pprof protobuf
// (github.com/google/pprof/proto/profile.proto), the format `go tool
// pprof` consumes:
//
//	go tool pprof -http=:8080 out.pb.gz
//
// One sample type "cycles/count" carries the step-cycle attribution:
// every instruction site is a Location at its program address with the
// disassembled syntax as its Function name, penalty cycles stack a
// synthetic <stall> leaf on top of their site, and idle cycles become an
// <idle> sample. Totals match Steps(). The encoder is hand-rolled
// protobuf (the wire format is simple varint/length-delimited fields), so
// the simulator carries no external dependency.
func (p *Profiler) WritePprof(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(p.pprofBytes()); err != nil {
		return err
	}
	return zw.Close()
}

// Profile message field numbers (profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profMapping     = 3
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	profPeriodType  = 11
	profPeriod      = 12
)

// pprofBytes builds the uncompressed Profile message.
func (p *Profiler) pprofBytes() []byte {
	b := &protoBuf{}
	st := newStringTable()

	// sample_type { type: "cycles" unit: "count" } — also used as the
	// period type.
	valueType := func() []byte {
		vt := &protoBuf{}
		vt.int64Field(1, st.id("cycles"))
		vt.int64Field(2, st.id("count"))
		return vt.buf
	}
	b.bytesField(profSampleType, valueType())

	// Functions and locations: one per site plus the synthetic frames.
	// ids are 1-based; location i maps to function i.
	filename := st.id(nonEmpty(p.opts.Source, "program"))
	sites := p.Sites()
	var maxAddr uint64
	type frame struct {
		name string
		addr uint64
	}
	frames := make([]frame, 0, len(sites)+2)
	siteLoc := make(map[*Site]uint64, len(sites))
	for _, s := range sites {
		frames = append(frames, frame{name: s.Label(), addr: s.Addr})
		siteLoc[s] = uint64(len(frames))
		if s.Addr > maxAddr {
			maxAddr = s.Addr
		}
	}
	stallLoc := uint64(0)
	idleLoc := uint64(0)
	needStall := false
	for _, s := range sites {
		if s.PenaltyCycles > 0 {
			needStall = true
		}
	}
	if needStall {
		frames = append(frames, frame{name: "<stall>"})
		stallLoc = uint64(len(frames))
	}
	if p.c.Idle > 0 {
		frames = append(frames, frame{name: "<idle>"})
		idleLoc = uint64(len(frames))
	}

	// Samples, leaf location first.
	sample := func(values uint64, locs ...uint64) {
		sm := &protoBuf{}
		for _, l := range locs {
			sm.uint64Field(1, l)
		}
		sm.int64Field(2, int64(values))
		b.bytesField(profSample, sm.buf)
	}
	for _, s := range sites {
		if s.IssueCycles > 0 {
			sample(s.IssueCycles, siteLoc[s])
		}
		if s.PenaltyCycles > 0 {
			sample(s.PenaltyCycles, stallLoc, siteLoc[s])
		}
	}
	if p.c.Idle > 0 {
		sample(p.c.Idle, idleLoc)
	}

	// One mapping covering the program address range.
	mp := &protoBuf{}
	mp.uint64Field(1, 1)         // id
	mp.uint64Field(2, 0)         // memory_start
	mp.uint64Field(3, maxAddr+1) // memory_limit
	mp.int64Field(5, filename)   // filename
	b.bytesField(profMapping, mp.buf)

	for i, f := range frames {
		id := uint64(i + 1)
		loc := &protoBuf{}
		loc.uint64Field(1, id) // id
		loc.uint64Field(2, 1)  // mapping_id
		loc.uint64Field(3, f.addr)
		line := &protoBuf{}
		line.uint64Field(1, id) // function_id
		line.int64Field(2, int64(f.addr))
		loc.bytesField(4, line.buf)
		b.bytesField(profLocation, loc.buf)

		fn := &protoBuf{}
		fn.uint64Field(1, id)
		fn.int64Field(2, st.id(f.name)) // name
		fn.int64Field(3, st.id(f.name)) // system_name
		fn.int64Field(4, filename)
		b.bytesField(profFunction, fn.buf)
	}

	b.bytesField(profPeriodType, valueType())
	b.int64Field(profPeriod, 1)

	// The string table is valid at any field position; append it last so
	// every id is interned.
	for _, s := range st.strings {
		b.stringField(profStringTable, s)
	}
	return b.buf
}

// --- minimal protobuf wire-format writer ---------------------------------------

type protoBuf struct {
	buf []byte
}

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.buf = append(b.buf, byte(v)|0x80)
		v >>= 7
	}
	b.buf = append(b.buf, byte(v))
}

// uint64Field writes a varint-typed field.
func (b *protoBuf) uint64Field(field int, v uint64) {
	b.varint(uint64(field)<<3 | 0) // wire type 0 = varint
	b.varint(v)
}

func (b *protoBuf) int64Field(field int, v int64) { b.uint64Field(field, uint64(v)) }

// bytesField writes a length-delimited field (submessage or string).
func (b *protoBuf) bytesField(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2) // wire type 2 = length-delimited
	b.varint(uint64(len(p)))
	b.buf = append(b.buf, p...)
}

func (b *protoBuf) stringField(field int, s string) { b.bytesField(field, []byte(s)) }

// stringTable interns strings; index 0 is always "".
type stringTable struct {
	strings []string
	index   map[string]int64
}

func newStringTable() *stringTable {
	return &stringTable{strings: []string{""}, index: map[string]int64{"": 0}}
}

func (t *stringTable) id(s string) int64 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := int64(len(t.strings))
	t.strings = append(t.strings, s)
	t.index[s] = i
	return i
}
