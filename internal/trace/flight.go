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

// Event is one recorded simulation event in compact form. Field meaning
// depends on Kind: Name is the operation/resource/root name, Value the
// instruction word, written value, delay or entry count, Aux the memory
// address or packet id. Stall and flush events additionally carry their
// hazard attribution: Cause, the gating Resource for data hazards (Res),
// the requesting operation (Name) and its packet (Aux).
type Event struct {
	Step  uint64
	Kind  Kind
	Pipe  int32
	Stage int32
	Name  string
	Value uint64
	Aux   uint64
	Flag  bool
	Cause Cause
	Res   string
}

// String renders the event for post-mortem dumps.
func (e Event) String() string {
	loc := ""
	if e.Pipe >= 0 {
		loc = fmt.Sprintf(" pipe=%d stage=%d", e.Pipe, e.Stage)
	}
	switch e.Kind {
	case KindStepBegin, KindStepEnd, KindShift:
		return fmt.Sprintf("#%d %s%s", e.Step, e.Kind, loc)
	case KindDecode:
		return fmt.Sprintf("#%d decode %s word=%#x hit=%v", e.Step, e.Name, e.Value, e.Flag)
	case KindActivate:
		return fmt.Sprintf("#%d activate %s delay=%d", e.Step, e.Name, e.Value)
	case KindExec:
		return fmt.Sprintf("#%d exec %s%s packet=%#x", e.Step, e.Name, loc, e.Aux)
	case KindBehavior:
		return fmt.Sprintf("#%d behavior %s statements=%d", e.Step, e.Name, e.Value)
	case KindRetire:
		return fmt.Sprintf("#%d retire%s packet=%#x entries=%d", e.Step, loc, e.Aux, e.Value)
	case KindWrite:
		return fmt.Sprintf("#%d write %s = %#x", e.Step, e.Name, e.Value)
	case KindMemWrite:
		return fmt.Sprintf("#%d write %s[%#x] = %#x", e.Step, e.Name, e.Aux, e.Value)
	case KindStall, KindFlush:
		s := fmt.Sprintf("#%d %s%s", e.Step, e.Kind, loc)
		if e.Cause != CauseNone {
			s += " cause=" + e.Cause.String()
			if e.Res != "" {
				s += "(" + e.Res + ")"
			}
		}
		if e.Name != "" {
			s += " by=" + e.Name
		}
		if e.Aux != 0 {
			s += fmt.Sprintf(" packet=%#x", e.Aux)
		}
		return s
	case KindDiverge:
		return fmt.Sprintf("#%d DIVERGE %s value=%#x", e.Step, e.Name, e.Value)
	default:
		return fmt.Sprintf("#%d %s %s%s value=%#x", e.Step, e.Kind, e.Name, loc, e.Value)
	}
}

// Flight is a ring-buffer flight recorder: an Observer keeping the last N
// events for post-mortem inspection when a simulation dies. It costs one
// slot write per event and never allocates after construction.
type Flight struct {
	buf  []Event
	next int
	full bool
	cur  uint64
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
func (f *Flight) Note(kind Kind, name string, value uint64) {
	f.record(Event{Kind: kind, Pipe: -1, Name: name, Value: value})
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

// Dump writes the recorded events, oldest first, one per line.
func (f *Flight) Dump(w io.Writer) error {
	ew := &errWriter{w: w}
	events := f.Events()
	fmt.Fprintf(ew, "flight recorder: last %d events\n", len(events))
	for _, e := range events {
		fmt.Fprintf(ew, "  %s\n", e.String())
	}
	return ew.err
}

// OnAttach implements Observer.
func (f *Flight) OnAttach(string, []PipeInfo) {}

// OnStepBegin implements Observer.
func (f *Flight) OnStepBegin(step uint64) {
	f.cur = step
	f.record(Event{Kind: KindStepBegin, Pipe: -1})
}

// OnStepEnd implements Observer.
func (f *Flight) OnStepEnd(step uint64) { f.record(Event{Kind: KindStepEnd, Pipe: -1}) }

// OnOccupancy implements Observer (not recorded; occupancy is derivable
// from exec/shift events).
func (f *Flight) OnOccupancy(int, []bool) {}

// OnDecode implements Observer.
func (f *Flight) OnDecode(root string, word uint64, hit bool) {
	f.record(Event{Kind: KindDecode, Pipe: -1, Name: root, Value: word, Flag: hit})
}

// OnActivate implements Observer; the ring keeps the target only.
func (f *Flight) OnActivate(_, target string, delay uint64) {
	f.record(Event{Kind: KindActivate, Pipe: -1, Name: target, Value: delay})
}

// OnExec implements Observer.
func (f *Flight) OnExec(op string, pipe, stage int, packet uint64) {
	f.record(Event{Kind: KindExec, Pipe: int32(pipe), Stage: int32(stage), Name: op, Aux: packet})
}

// OnBehavior implements Observer.
func (f *Flight) OnBehavior(op string, statements uint64) {
	f.record(Event{Kind: KindBehavior, Pipe: -1, Name: op, Value: statements})
}

// OnStall implements Observer: the ring keeps the full hazard
// attribution so post-mortem dumps show why each stall was requested.
func (f *Flight) OnStall(info StallInfo) { f.hazard(KindStall, info) }

// OnFlush implements Observer.
func (f *Flight) OnFlush(info StallInfo) { f.hazard(KindFlush, info) }

func (f *Flight) hazard(kind Kind, info StallInfo) {
	f.record(Event{Kind: kind, Pipe: int32(info.Pipe), Stage: int32(info.Stage),
		Name: info.SourceOp, Aux: info.Packet, Cause: info.Cause, Res: info.Resource})
}

// OnShift implements Observer.
func (f *Flight) OnShift(pipe int) {
	f.record(Event{Kind: KindShift, Pipe: int32(pipe), Stage: -1})
}

// OnRetire implements Observer.
func (f *Flight) OnRetire(pipe, stage int, packet uint64, entries int) {
	f.record(Event{Kind: KindRetire, Pipe: int32(pipe), Stage: int32(stage), Aux: packet, Value: uint64(entries)})
}

// OnResourceWrite implements Observer.
func (f *Flight) OnResourceWrite(resource string, value uint64) {
	f.record(Event{Kind: KindWrite, Pipe: -1, Name: resource, Value: value})
}

// OnMemWrite implements Observer.
func (f *Flight) OnMemWrite(resource string, addr, value uint64) {
	f.record(Event{Kind: KindMemWrite, Pipe: -1, Name: resource, Aux: addr, Value: value})
}
