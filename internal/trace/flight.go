package trace

import (
	"fmt"
	"io"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Event kinds recorded by the flight recorder.
const (
	KindStepBegin Kind = iota
	KindStepEnd
	KindDecode
	KindActivate
	KindExec
	KindBehavior
	KindStall
	KindFlush
	KindShift
	KindRetire
	KindWrite
	KindMemWrite
	// KindDiverge marks an externally reported event — a co-simulation
	// divergence or similar out-of-band note injected with Note.
	KindDiverge
)

func (k Kind) String() string {
	switch k {
	case KindStepBegin:
		return "step-begin"
	case KindStepEnd:
		return "step-end"
	case KindDecode:
		return "decode"
	case KindActivate:
		return "activate"
	case KindExec:
		return "exec"
	case KindBehavior:
		return "behavior"
	case KindStall:
		return "stall"
	case KindFlush:
		return "flush"
	case KindShift:
		return "shift"
	case KindRetire:
		return "retire"
	case KindWrite:
		return "write"
	case KindMemWrite:
		return "mem-write"
	case KindDiverge:
		return "diverge"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded simulation event in compact, pointer-free form.
// Field meaning depends on Kind: ID is the operation (decode root,
// activation target, execution, behavior, stall or flush requester) or
// the written resource, -1 when none; Value the instruction word, written
// value, delay or entry count; Aux the memory address or packet id. Stall
// and flush events also carry their hazard Cause and gating resource Res
// (-1 when none). The text of a KindDiverge note is kept outside the
// event, by the Flight or recording that holds it.
type Event struct {
	Step  uint64
	Value uint64
	Aux   uint64
	Pipe  int32
	Stage int32
	ID    int32
	Res   int32
	Kind  Kind
	Cause Cause
	Flag  bool
}

// Format renders the event for post-mortem dumps, naming operations and
// resources from t; note is the text of a KindDiverge event.
func (e Event) Format(t *Topology, note string) string {
	loc := ""
	if e.Pipe >= 0 {
		loc = fmt.Sprintf(" pipe=%d stage=%d", e.Pipe, e.Stage)
	}
	op := t.Op(int(e.ID))
	switch e.Kind {
	case KindStepBegin, KindStepEnd, KindShift:
		return fmt.Sprintf("#%d %s%s", e.Step, e.Kind, loc)
	case KindDecode:
		return fmt.Sprintf("#%d decode %s word=%#x hit=%v", e.Step, op, e.Value, e.Flag)
	case KindActivate:
		return fmt.Sprintf("#%d activate %s delay=%d", e.Step, op, e.Value)
	case KindExec:
		return fmt.Sprintf("#%d exec %s%s packet=%#x", e.Step, op, loc, e.Aux)
	case KindBehavior:
		return fmt.Sprintf("#%d behavior %s statements=%d", e.Step, op, e.Value)
	case KindRetire:
		return fmt.Sprintf("#%d retire%s packet=%#x entries=%d", e.Step, loc, e.Aux, e.Value)
	case KindWrite:
		return fmt.Sprintf("#%d write %s = %#x", e.Step, t.Resource(int(e.ID)), e.Value)
	case KindMemWrite:
		return fmt.Sprintf("#%d write %s[%#x] = %#x", e.Step, t.Resource(int(e.ID)), e.Aux, e.Value)
	case KindStall, KindFlush:
		s := fmt.Sprintf("#%d %s%s", e.Step, e.Kind, loc)
		if e.Cause != CauseNone {
			s += " cause=" + e.Cause.String()
			if res := t.Resource(int(e.Res)); res != "" {
				s += "(" + res + ")"
			}
		}
		if op != "" {
			s += " by=" + op
		}
		if e.Aux != 0 {
			s += fmt.Sprintf(" packet=%#x", e.Aux)
		}
		return s
	case KindDiverge:
		return fmt.Sprintf("#%d DIVERGE %s value=%#x", e.Step, note, e.Value)
	default:
		return fmt.Sprintf("#%d %s %s%s value=%#x", e.Step, e.Kind, op, loc, e.Value)
	}
}

// Flight is a ring-buffer flight recorder: an Observer keeping the last N
// events for post-mortem inspection when a simulation dies. It costs one
// slot write per event and allocates after construction only to keep a
// Note's text; names come from the topology delivered at attach, when
// the ring is dumped.
// Occupancy samples are not recorded: exec and shift events imply them.
type Flight struct {
	Nop
	buf   []Event
	next  int
	full  bool
	cur   uint64
	topo  *Topology
	notes []string // KindDiverge texts, by Event.ID
}

// NewFlight creates a flight recorder keeping the last n events (minimum 1).
func NewFlight(n int) *Flight {
	if n < 1 {
		n = 1
	}
	return &Flight{buf: make([]Event, n)}
}

func (f *Flight) record(e Event) {
	e.Step = f.cur
	f.buf[f.next] = e
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
}

// Note records an out-of-band event (e.g. a co-simulation divergence) in
// the ring at the current step, so post-mortem dumps interleave it with
// the simulation events that led up to it.
func (f *Flight) Note(kind Kind, text string, value uint64) {
	f.record(Event{Kind: kind, Pipe: -1, ID: int32(len(f.notes)), Res: -1, Value: value})
	f.notes = append(f.notes, text)
}

// Events returns the recorded events, oldest first.
func (f *Flight) Events() []Event {
	if !f.full {
		return append([]Event(nil), f.buf[:f.next]...)
	}
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Last returns the most recently recorded event.
func (f *Flight) Last() Event { return f.buf[(f.next+len(f.buf)-1)%len(f.buf)] }

// Format renders one of the recorder's events with its names.
func (f *Flight) Format(e Event) string {
	note := ""
	if e.Kind == KindDiverge && e.ID >= 0 && int(e.ID) < len(f.notes) {
		note = f.notes[e.ID]
	}
	return e.Format(f.topo, note)
}

// Dump writes the recorded events, oldest first, one per line.
func (f *Flight) Dump(w io.Writer) error {
	ew := &errWriter{w: w}
	events := f.Events()
	fmt.Fprintf(ew, "flight recorder: last %d events\n", len(events))
	for _, e := range events {
		fmt.Fprintf(ew, "  %s\n", f.Format(e))
	}
	return ew.err
}

// OnAttach implements Observer: it keeps the name tables for dumps.
func (f *Flight) OnAttach(t *Topology) { f.topo = t }

// OnStepBegin implements Observer.
func (f *Flight) OnStepBegin(step uint64) {
	f.cur = step
	f.record(Event{Kind: KindStepBegin, Pipe: -1, ID: -1, Res: -1})
}

// OnStepEnd implements Observer.
func (f *Flight) OnStepEnd(step uint64) {
	f.record(Event{Kind: KindStepEnd, Pipe: -1, ID: -1, Res: -1})
}

// OnDecode implements Observer.
func (f *Flight) OnDecode(root int, word uint64, hit bool) {
	f.record(Event{Kind: KindDecode, Pipe: -1, ID: int32(root), Res: -1, Value: word, Flag: hit})
}

// OnActivate implements Observer; the ring keeps the target only.
func (f *Flight) OnActivate(_, target int, delay uint64) {
	f.record(Event{Kind: KindActivate, Pipe: -1, ID: int32(target), Res: -1, Value: delay})
}

// OnExec implements Observer.
func (f *Flight) OnExec(op, pipe, stage int, packet uint64) {
	f.record(Event{Kind: KindExec, Pipe: int32(pipe), Stage: int32(stage), ID: int32(op), Res: -1, Aux: packet})
}

// OnBehavior implements Observer.
func (f *Flight) OnBehavior(op int, statements uint64) {
	f.record(Event{Kind: KindBehavior, Pipe: -1, ID: int32(op), Res: -1, Value: statements})
}

// OnStall implements Observer: the ring keeps the full hazard
// attribution so post-mortem dumps show why each stall was requested.
func (f *Flight) OnStall(info StallInfo) { f.hazard(KindStall, info) }

// OnFlush implements Observer.
func (f *Flight) OnFlush(info StallInfo) { f.hazard(KindFlush, info) }

func (f *Flight) hazard(kind Kind, info StallInfo) {
	f.record(Event{Kind: kind, Pipe: int32(info.Pipe), Stage: int32(info.Stage),
		ID: int32(info.SourceOp), Aux: info.Packet, Cause: info.Cause, Res: int32(info.Resource)})
}

// OnShift implements Observer.
func (f *Flight) OnShift(pipe int) {
	f.record(Event{Kind: KindShift, Pipe: int32(pipe), Stage: -1, ID: -1, Res: -1})
}

// OnRetire implements Observer.
func (f *Flight) OnRetire(pipe, stage int, packet uint64, entries int) {
	f.record(Event{Kind: KindRetire, Pipe: int32(pipe), Stage: int32(stage), ID: -1, Res: -1, Aux: packet, Value: uint64(entries)})
}

// OnResourceWrite implements Observer.
func (f *Flight) OnResourceWrite(resource int, value uint64) {
	f.record(Event{Kind: KindWrite, Pipe: -1, ID: int32(resource), Res: -1, Value: value})
}

// OnMemWrite implements Observer.
func (f *Flight) OnMemWrite(resource int, addr, value uint64) {
	f.record(Event{Kind: KindMemWrite, Pipe: -1, ID: int32(resource), Res: -1, Aux: addr, Value: value})
}
