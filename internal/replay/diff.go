package replay

import (
	"fmt"
	"io"
)

// DiffResult describes the first divergence between two recordings, plus
// the event windows leading up to it on both sides — the minimal context
// a co-simulation debugging session needs.
type DiffResult struct {
	Equal bool

	// Step is the control step of the first mismatching record.
	Step uint64
	// Reason describes the mismatch.
	Reason string
	// A and B render the first mismatching record of each recording
	// ("<end of recording>" when one side ended early).
	A, B string

	// WindowA and WindowB hold the rendered events of steps
	// [Step-window, Step] from each recording.
	WindowA, WindowB []string
}

// comparable reports whether a record takes part in the comparison.
// Checkpoints are skipped (the two recorders may use different cadences)
// and notes are out-of-band.
func diffComparable(rc Record) bool {
	return rc.Kind != recCheckpoint && rc.Kind != recNote && rc.Kind != recEnd
}

// diffNext advances to the next comparable record. ok=false at stream end.
func diffNext(c *Cursor) (Record, bool, error) {
	for {
		rc, err := c.Next()
		if err == io.EOF {
			return Record{}, false, nil
		}
		if err != nil {
			// A truncated tail ends the comparable stream.
			return Record{}, false, nil
		}
		if rc.Kind == recEnd {
			return Record{}, false, nil
		}
		if diffComparable(rc) {
			return rc, true, nil
		}
	}
}

// diffStep extracts the control step a record belongs to.
func diffStep(rc Record) uint64 {
	if rc.IsEvent {
		return rc.Event.Step
	}
	return rc.Step
}

// recordsMatch compares two records modulo replay-legitimate noise
// (packet ids, decode-cache hits).
func recordsMatch(a, b Record) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch {
	case a.IsEvent:
		return normEvent(a.Event) == normEvent(b.Event)
	case a.Kind == recOccupancy:
		if a.OccPipe != b.OccPipe || a.OccStages != b.OccStages || len(a.OccMask) != len(b.OccMask) {
			return false
		}
		for i := range a.OccMask {
			if a.OccMask[i] != b.OccMask[i] {
				return false
			}
		}
		return a.Event.Step == b.Event.Step
	case a.Kind == recInput:
		return a.Input == b.Input
	default:
		return true
	}
}

// Diff walks two recordings record-by-record and reports the first
// divergence, with the events of the window control steps before it
// extracted from both files. Recordings of different models diverge
// immediately.
func Diff(a, b *Recording, window uint64) *DiffResult {
	if a.ModelName != b.ModelName {
		return &DiffResult{
			Reason: fmt.Sprintf("different models: %q vs %q", a.ModelName, b.ModelName),
			A:      a.ModelName, B: b.ModelName,
		}
	}
	ca, cb := a.Cursor(), b.Cursor()
	for {
		ra, okA, _ := diffNext(ca)
		rb, okB, _ := diffNext(cb)
		switch {
		case !okA && !okB:
			return &DiffResult{Equal: true}
		case okA != okB:
			res := &DiffResult{Reason: "one recording ends early"}
			if okA {
				res.Step = diffStep(ra)
				res.A, res.B = a.Render(ra), "<end of recording>"
			} else {
				res.Step = diffStep(rb)
				res.A, res.B = "<end of recording>", b.Render(rb)
			}
			res.fillWindows(a, b, window)
			return res
		case !recordsMatch(ra, rb):
			res := &DiffResult{
				Step:   diffStep(ra),
				Reason: "first mismatching record",
				A:      a.Render(ra),
				B:      b.Render(rb),
			}
			if s := diffStep(rb); s < res.Step {
				res.Step = s
			}
			res.fillWindows(a, b, window)
			return res
		}
	}
}

func (r *DiffResult) fillWindows(a, b *Recording, window uint64) {
	lo := uint64(0)
	if r.Step > window {
		lo = r.Step - window
	}
	r.WindowA = a.render(a.EventsInRange(lo, r.Step))
	r.WindowB = b.render(b.EventsInRange(lo, r.Step))
}

func (r *Recording) render(rcs []Record) []string {
	out := make([]string, len(rcs))
	for i, rc := range rcs {
		out[i] = r.Render(rc)
	}
	return out
}

// Dump writes a human-readable divergence report.
func (r *DiffResult) Dump(w io.Writer) {
	if r.Equal {
		fmt.Fprintln(w, "recordings are equivalent")
		return
	}
	fmt.Fprintf(w, "recordings diverge at cycle %d (%s)\n", r.Step, r.Reason)
	fmt.Fprintf(w, "  A: %s\n", r.A)
	fmt.Fprintf(w, "  B: %s\n", r.B)
	if len(r.WindowA) > 0 || len(r.WindowB) > 0 {
		fmt.Fprintf(w, "events leading up to the divergence:\n")
		fmt.Fprintln(w, "--- A ---")
		for _, e := range r.WindowA {
			fmt.Fprintf(w, "  %s\n", e)
		}
		fmt.Fprintln(w, "--- B ---")
		for _, e := range r.WindowB {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
}
