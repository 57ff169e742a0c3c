package trace

// Cause classifies why a stall or flush was requested. LISA pipelines have
// no hardware hazard detection — every stall and flush is requested by the
// model itself (paper §3.2.4) — so the cause is derived from the request's
// context: the guarding activation/behavior conditions and the resources
// they read.
type Cause uint8

// Hazard causes, ordered by attribution priority (see Rank).
const (
	// CauseNone marks an unattributed event: a request whose context gave
	// no signal.
	CauseNone Cause = iota
	// CauseData is a stall guarded by a condition reading a machine
	// resource — an interlock on that resource (memory wait states,
	// multicycle results, busy units).
	CauseData
	// CauseControl is any flush (redirections discard wrong-path work) or
	// a stall guarded by a condition that reads no resource.
	CauseControl
	// CauseStructural is an unconditional stall from an ACTIVATION section:
	// the model holds the stage every time the operation runs, i.e. the
	// stage itself lacks capacity.
	CauseStructural
	// CauseExplicit is an unconditional stall issued from BEHAVIOR code —
	// the model said "stall" with no inspectable condition around it.
	CauseExplicit

	// NumCauses bounds arrays indexed by Cause.
	NumCauses
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseData:
		return "data"
	case CauseControl:
		return "control"
	case CauseStructural:
		return "structural"
	case CauseExplicit:
		return "explicit"
	default:
		return "none"
	}
}

// Rank orders causes for same-step attribution: when one penalty cycle saw
// several hazard events, the cycle is charged to the highest-ranked cause.
// Stall-like causes outrank control because a stall directly inserts the
// bubble being attributed, while a flush's bubbles follow on later steps.
func (c Cause) Rank() int {
	switch c {
	case CauseData:
		return 4
	case CauseStructural:
		return 3
	case CauseExplicit:
		return 2
	case CauseControl:
		return 1
	default:
		return 0
	}
}

// Causes lists the four real hazard causes in stable report order.
var Causes = [...]Cause{CauseData, CauseControl, CauseStructural, CauseExplicit}

// StallInfo carries the attribution context of one stall or flush request:
// where it landed (Pipe, Stage — stage -1 is the whole pipe), why
// (Cause, Resource for data hazards), and who asked (SourceOp, the packet
// carrying the requester). SourceOp and Resource are ids into the
// topology's tables, -1 when unknown; Packet is 0 when none.
type StallInfo struct {
	Pipe     int
	Stage    int
	Cause    Cause
	SourceOp int    // operation whose activation/behavior made the request
	Resource int    // gating resource for data hazards, -1 otherwise
	Packet   uint64 // packet id carrying the requester, 0 when none
}
