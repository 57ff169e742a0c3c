package replay

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"golisa/internal/sim"
	"golisa/internal/trace"
)

// Options tunes a Recorder.
type Options struct {
	// Every is the checkpoint cadence in control steps (0 = default 1024).
	// A checkpoint is always written at the first recorded step; smaller
	// cadences make Goto cheaper and files bigger.
	Every uint64
	// Tail is the capacity of the in-memory event ring kept alongside the
	// file for divergence-window extraction (0 = default 2048, <0 =
	// disabled).
	Tail int
	// Keep bounds the checkpoints kept in memory for live time travel
	// (0 = default 64). The file always retains every checkpoint; when the
	// bound is hit the oldest non-initial in-memory checkpoint is dropped.
	Keep int
}

func (o Options) withDefaults() Options {
	if o.Every == 0 {
		o.Every = 1024
	}
	if o.Tail == 0 {
		o.Tail = 2048
	}
	if o.Keep == 0 {
		o.Keep = 64
	}
	return o
}

// Checkpoint is one in-memory full-state checkpoint kept by a live
// Recorder for time travel without re-reading the file.
type Checkpoint struct {
	Step uint64
	Hash uint64
	Snap *sim.Snapshot
}

// Input is one external state poke observed outside a control step —
// a co-simulation device or test bench writing into the simulator between
// cycles. Step is the control step the write precedes (the first step
// that can observe it).
type Input struct {
	Step     uint64
	IsMem    bool
	Resource string
	Addr     uint64
	Value    uint64
}

// Recorder is a trace.Observer that serializes every simulation event,
// every external input and periodic full-state checkpoints into the .lrec
// wire format. Attach it with sim.SetObserver (typically through
// trace.Fanout alongside other observers).
//
// A Recorder also keeps recent checkpoints, all inputs and a tail ring of
// events in memory so the debugger can travel backwards in a live session
// without reopening the file (see internal/debug).
type Recorder struct {
	s    *sim.Simulator
	w    io.Writer
	bw   *bufio.Writer
	file *os.File
	e    enc
	body enc // checkpoint body scratch

	opts Options
	err  error

	haveCkpt  bool
	lastCkpt  uint64
	inStep    bool
	nextInput uint64
	highWater uint64 // first step not yet fully on disk
	suppress  bool   // replaying below highWater after a live rewind

	tail   *trace.Flight // the last events; it also builds each event record
	ckpts  []Checkpoint
	inputs []Input

	events      uint64
	checkpoints uint64
}

// NewRecorder creates a recorder for the simulator writing to w. source
// is the LISA model source text, embedded in the header so the recording
// is self-contained; it must describe the same model the simulator runs.
// The header is written immediately; the first checkpoint is written when
// the first control step begins.
func NewRecorder(s *sim.Simulator, source string, w io.Writer, opts Options) *Recorder {
	r := &Recorder{s: s, opts: opts.withDefaults()}
	if bw, ok := w.(*bufio.Writer); ok {
		r.bw = bw
	} else {
		r.bw = bufio.NewWriterSize(w, 1<<16)
	}
	r.w = r.bw
	// The ring also builds each event record, so a disabled tail (Tail < 0)
	// is a ring of one event.
	r.tail = trace.NewFlight(r.opts.Tail)
	r.writeHeader(source)
	return r
}

// Create opens (truncating) path and returns a recorder writing to it.
func Create(s *sim.Simulator, source, path string, opts Options) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create recording %s: %w", path, err)
	}
	r := NewRecorder(s, source, f, opts)
	r.file = f
	return r, nil
}

func (r *Recorder) writeHeader(source string) {
	r.e.reset()
	r.e.raw(lrecMagic)
	r.e.u(wireVersion)
	r.e.str(r.s.M.Name)
	r.e.str(source)
	r.e.byte(byte(r.s.Mode()))
	r.e.u(r.opts.Every)
	r.e.u(uint64(len(r.s.M.OpList)))
	for _, op := range r.s.M.OpList {
		r.e.str(op.Name)
	}
	r.e.u(uint64(len(r.s.M.Resources)))
	for _, res := range r.s.M.Resources {
		r.e.str(res.Name)
	}
	r.flushRecord()
}

// flushRecord hands the scratch buffer to the writer.
func (r *Recorder) flushRecord() {
	if r.err != nil {
		return
	}
	if _, err := r.w.Write(r.e.buf); err != nil {
		r.err = err
	}
}

// ref writes an operation or resource id as its header table index plus
// one; none (-1) is written as 0 and an empty inline name.
func (r *Recorder) ref(id int) {
	if id >= 0 {
		r.e.u(uint64(id) + 1)
		return
	}
	r.e.u(0)
	r.e.str("")
}

func (r *Recorder) begin(kind byte) {
	r.e.reset()
	r.e.byte(kind)
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

// Flush pushes buffered records to the underlying writer without writing
// an end record — the resulting file is a valid partial recording
// (readers tolerate a missing end record). The panic-recovery path in
// internal/debug uses this to preserve the log of a dying simulation.
func (r *Recorder) Flush() error {
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Close writes the end record, flushes, and closes the file if the
// recorder owns one.
func (r *Recorder) Close() error {
	r.begin(recEnd)
	r.e.u(r.highWater)
	r.e.bool(r.s.Halted())
	r.flushRecord()
	_ = r.Flush()
	if r.file != nil {
		if err := r.file.Close(); err != nil && r.err == nil {
			r.err = err
		}
		r.file = nil
	}
	return r.err
}

// Stats reports how many event records and checkpoints have been written.
func (r *Recorder) Stats() (events, checkpoints uint64) { return r.events, r.checkpoints }

// HighWater returns the first control step not yet recorded: everything
// below it is on disk (or buffered) and will not be re-emitted if the
// simulation is rewound and re-executed.
func (r *Recorder) HighWater() uint64 { return r.highWater }

// Checkpoints returns the in-memory checkpoints, ascending by step.
func (r *Recorder) Checkpoints() []Checkpoint { return r.ckpts }

// Nearest returns the latest in-memory checkpoint at or before cycle.
func (r *Recorder) Nearest(cycle uint64) (Checkpoint, bool) {
	i := sort.Search(len(r.ckpts), func(i int) bool { return r.ckpts[i].Step > cycle })
	if i == 0 {
		return Checkpoint{}, false
	}
	return r.ckpts[i-1], true
}

// InputRange returns the recorded external inputs with lo <= Step < hi,
// in record order. The debugger re-applies these while re-executing
// forward from a checkpoint.
func (r *Recorder) InputRange(lo, hi uint64) []Input {
	var out []Input
	for _, in := range r.inputs {
		if in.Step >= lo && in.Step < hi {
			out = append(out, in)
		}
	}
	return out
}

// Tail returns the in-memory tail ring, or nil when disabled.
// Co-simulation uses it to dump the window leading up to a divergence.
func (r *Recorder) Tail() *trace.Flight {
	if r.opts.Tail < 0 {
		return nil
	}
	return r.tail
}

// Note writes an out-of-band note record (rendered as a diverge event on
// read-back) and mirrors it into the tail ring.
func (r *Recorder) Note(name string, value uint64) {
	r.tail.Note(trace.KindDiverge, name, value)
	r.begin(recNote)
	r.e.str(name)
	r.e.u(value)
	r.flushRecord()
}

// checkpointNow snapshots the simulator and writes a checkpoint record.
// Must be called at a control-step boundary (it runs from OnStepBegin).
func (r *Recorder) checkpointNow(step uint64) {
	snap := r.s.Snapshot()
	hash := snap.Hash()

	r.body.reset()
	t := newStrtab()
	encodeSnapshot(&r.body, t, r.s.M, snap)

	r.begin(recCheckpoint)
	r.e.u(uint64(len(r.body.buf)) + 8 + uint64(uvarintLen(step)))
	r.e.u(step)
	r.e.fixed64(hash)
	r.e.raw(r.body.buf)
	r.flushRecord()

	r.haveCkpt = true
	r.lastCkpt = step
	r.checkpoints++

	if r.opts.Keep > 0 {
		r.ckpts = append(r.ckpts, Checkpoint{Step: step, Hash: hash, Snap: snap})
		if len(r.ckpts) > r.opts.Keep {
			// Keep the initial checkpoint (cheap full rewind) and the most
			// recent ones; the file retains all of them regardless.
			r.ckpts = append(r.ckpts[:1], r.ckpts[2:]...)
		}
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// --- trace.Observer --------------------------------------------------------------

// OnAttach implements trace.Observer; the header already carries the
// model identity and name tables, so nothing is recorded. The tail ring
// keeps the tables for its dumps.
func (r *Recorder) OnAttach(t *trace.Topology) { r.tail.OnAttach(t) }

// OnStepBegin implements trace.Observer. It decides suppression (steps
// below the high-water mark after a live rewind are already on disk and
// deterministic re-execution reproduces them exactly) and writes the
// periodic checkpoint.
func (r *Recorder) OnStepBegin(step uint64) {
	r.tail.OnStepBegin(step)
	r.inStep = true
	if step < r.highWater {
		r.suppress = true
		return
	}
	r.suppress = false
	if !r.haveCkpt || (step%r.opts.Every == 0 && step != r.lastCkpt) {
		r.checkpointNow(step)
	}
	r.begin(recStepBegin)
	r.e.u(step)
	r.flushRecord()
	r.events++
}

// OnStepEnd implements trace.Observer.
func (r *Recorder) OnStepEnd(step uint64) {
	r.tail.OnStepEnd(step)
	r.inStep = false
	r.nextInput = step + 1
	if r.suppress {
		return
	}
	r.begin(recStepEnd)
	r.e.u(step)
	r.flushRecord()
	r.events++
	if step+1 > r.highWater {
		r.highWater = step + 1
	}
}

// OnOccupancy implements trace.Observer; the sample is packed as a
// bitmask (one word per 64 stages).
func (r *Recorder) OnOccupancy(pipe int, occupied []bool) {
	if r.suppress {
		return
	}
	r.begin(recOccupancy)
	r.e.u(uint64(pipe))
	r.e.u(uint64(len(occupied)))
	for i := 0; i < (len(occupied)+63)/64; i++ {
		r.e.u(occWord(occupied, i))
	}
	r.flushRecord()
	r.events++
}

// occWord returns word i of an occupancy sample packed as a bitmask,
// stage s at bit s%64 of word s/64.
func occWord(occupied []bool, i int) uint64 {
	var word uint64
	for s := i * 64; s < len(occupied) && s < (i+1)*64; s++ {
		if occupied[s] {
			word |= 1 << (s & 63)
		}
	}
	return word
}

// OnDecode implements trace.Observer.
func (r *Recorder) OnDecode(root int, word uint64, hit bool) {
	r.tail.OnDecode(root, word, hit)
	r.put(recDecode)
}

// OnActivate implements trace.Observer. The record keeps the target
// only: replay re-derives the source by re-executing the activator.
func (r *Recorder) OnActivate(source, target int, delay uint64) {
	r.tail.OnActivate(source, target, delay)
	r.put(recActivate)
}

// OnExec implements trace.Observer.
func (r *Recorder) OnExec(op, pipe, stage int, packet uint64) {
	r.tail.OnExec(op, pipe, stage, packet)
	r.put(recExec)
}

// OnBehavior implements trace.Observer.
func (r *Recorder) OnBehavior(op int, statements uint64) {
	r.tail.OnBehavior(op, statements)
	r.put(recBehavior)
}

// OnStall implements trace.Observer: the full attribution goes into the
// record so a replayed run explains its hazards identically.
func (r *Recorder) OnStall(info trace.StallInfo) {
	r.tail.OnStall(info)
	r.put(recStall)
}

// OnFlush implements trace.Observer.
func (r *Recorder) OnFlush(info trace.StallInfo) {
	r.tail.OnFlush(info)
	r.put(recFlush)
}

// OnShift implements trace.Observer.
func (r *Recorder) OnShift(pipe int) {
	r.tail.OnShift(pipe)
	r.put(recShift)
}

// OnRetire implements trace.Observer.
func (r *Recorder) OnRetire(pipe, stage int, packet uint64, entries int) {
	r.tail.OnRetire(pipe, stage, packet, entries)
	r.put(recRetire)
}

// OnResourceWrite implements trace.Observer. Writes arriving between
// control steps are external inputs (device pokes, test benches) and get
// their own record kind, tagged with the first step that can observe
// them, so replay can re-inject them at the right boundary.
func (r *Recorder) OnResourceWrite(resource int, value uint64) {
	r.tail.OnResourceWrite(resource, value)
	if r.inStep || r.suppress {
		r.put(recWrite)
		return
	}
	r.recordInput(resource, Input{Step: r.nextInput, Value: value})
}

// OnMemWrite implements trace.Observer; same in-step/input split as
// OnResourceWrite.
func (r *Recorder) OnMemWrite(resource int, addr, value uint64) {
	r.tail.OnMemWrite(resource, addr, value)
	if r.inStep || r.suppress {
		r.put(recMemWrite)
		return
	}
	r.recordInput(resource, Input{Step: r.nextInput, IsMem: true, Addr: addr, Value: value})
}

// put writes the event the tail ring just built as a record of kind,
// unless the step is suppressed.
func (r *Recorder) put(kind byte) {
	if r.suppress {
		return
	}
	ev := r.tail.Last()
	r.begin(kind)
	switch kind {
	case recDecode:
		r.ref(int(ev.ID))
		r.e.u(ev.Value)
		r.e.bool(ev.Flag)
	case recActivate, recBehavior, recWrite:
		r.ref(int(ev.ID))
		r.e.u(ev.Value)
	case recExec:
		r.ref(int(ev.ID))
		r.e.i(int64(ev.Pipe))
		r.e.i(int64(ev.Stage))
		r.e.u(ev.Aux)
	case recStall, recFlush:
		r.e.u(uint64(ev.Pipe))
		r.e.i(int64(ev.Stage))
		r.e.byte(byte(ev.Cause))
		r.ref(int(ev.ID))
		r.ref(int(ev.Res))
		r.e.u(ev.Aux)
	case recShift:
		r.e.u(uint64(ev.Pipe))
	case recRetire:
		r.e.u(uint64(ev.Pipe))
		r.e.u(uint64(ev.Stage))
		r.e.u(ev.Aux)
		r.e.u(ev.Value)
	case recMemWrite:
		r.ref(int(ev.ID))
		r.e.u(ev.Aux)
		r.e.u(ev.Value)
	}
	r.flushRecord()
	r.events++
}

// recordInput records an external write to resource id.
func (r *Recorder) recordInput(id int, in Input) {
	in.Resource = r.s.M.Resources[id].Name
	r.inputs = append(r.inputs, in)
	r.begin(recInput)
	r.e.u(in.Step)
	r.e.bool(in.IsMem)
	r.ref(id)
	r.e.u(in.Addr)
	r.e.u(in.Value)
	r.flushRecord()
}
