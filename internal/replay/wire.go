// Package replay implements deterministic record/replay for the golisa
// simulators: a compact varint-encoded binary event log (the .lrec
// format) written through a trace.Observer, periodic full-state
// checkpoints built on sim.Snapshot, and a Replayer that reconstructs the
// exact simulation at any recorded cycle by restoring the nearest
// checkpoint and re-executing forward while cross-checking every replayed
// event (and every checkpoint hash) against the recording.
//
// Because a simulation is a deterministic function of (model, program,
// initial state, external inputs), and the recording embeds the model
// source, the initial checkpoint and every out-of-step input poke, a
// .lrec file is fully self-contained: no model file, program or device
// setup is needed to reproduce any cycle of the original run.
package replay

import (
	"encoding/binary"
	"fmt"
	"io"
)

// wire format version; bump on incompatible changes. Version 2 extended
// the stall/flush records with hazard attribution (cause, source op,
// gating resource, packet id). Version 3 added the element writes of
// banked memories (bank folded into the address), which earlier versions
// never recorded. Version-1 and -2 recordings are still readable.
const (
	wireVersion    = 3
	minWireVersion = 1
)

// lrecMagic starts every recording.
var lrecMagic = []byte("LREC1")

// record kinds. Event kinds mirror trace.Observer hooks; the remaining
// kinds carry replay-specific data.
const (
	recStepBegin = iota + 1
	recStepEnd
	recOccupancy
	recDecode
	recActivate
	recExec
	recBehavior
	recStall
	recFlush
	recShift
	recRetire
	recWrite
	recMemWrite
	recNote
	recInput
	recCheckpoint
	recEnd
)

// errTruncated marks a record cut short (e.g. a crash while recording);
// readers treat everything before it as valid.
var errTruncated = fmt.Errorf("truncated record")

// --- encoder ---------------------------------------------------------------------

// enc appends varint-encoded fields to a scratch buffer which the
// recorder flushes per record. It never fails; write errors surface when
// the buffer is handed to the underlying writer.
type enc struct {
	buf []byte
}

func (e *enc) reset()       { e.buf = e.buf[:0] }
func (e *enc) byte(b byte)  { e.buf = append(e.buf, b) }
func (e *enc) u(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i(v int64)    { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) bool(b bool)  { e.byte(boolByte(b)) }
func (e *enc) str(s string) { e.u(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *enc) fixed64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// strtab interns strings within one checkpoint record: the first
// occurrence is written inline, repeats as a table index.
type strtab struct {
	idx map[string]uint64
}

func newStrtab() *strtab { return &strtab{idx: map[string]uint64{}} }

func (t *strtab) put(e *enc, s string) {
	if i, ok := t.idx[s]; ok {
		e.u(i + 1)
		return
	}
	e.u(0)
	e.str(s)
	t.idx[s] = uint64(len(t.idx))
}

// --- decoder ---------------------------------------------------------------------

// dec reads varint-encoded fields from a byte slice. The first failed
// read latches errTruncated; subsequent reads return zero values.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *dec) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// count reads an element count. Every element takes at least one byte,
// so a count beyond the bytes left is corrupt and fails the read before
// anything is allocated for it.
func (d *dec) count() uint64 {
	n := d.u()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left in the record", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) fixed64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := d.u()
	if d.err != nil || uint64(d.off)+n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// rstrtab mirrors strtab on the read side.
type rstrtab struct {
	strs []string
}

func (t *rstrtab) get(d *dec) string {
	i := d.u()
	if i == 0 {
		s := d.str()
		t.strs = append(t.strs, s)
		return s
	}
	if i-1 >= uint64(len(t.strs)) {
		d.fail()
		return ""
	}
	return t.strs[i-1]
}

// readFull is a small helper for header parsing from a stream.
func readFull(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, n)
	_, err := io.ReadFull(r, b)
	return b, err
}
