package debug

import (
	"sync"

	"golisa/internal/model"
	"golisa/internal/trace"
)

// Controller is the run-control gate between a simulation goroutine and
// the introspection server. Its Gate method is installed as sim.Simulator
// Gate and called at every control-step boundary on the simulation
// goroutine; every other goroutine talks to the simulation exclusively
// through Do, which runs a closure on the simulation goroutine at the
// next boundary (immediately when the simulation is paused there, or
// inline once Finish marks the simulation done). All simulator and
// observer state is therefore only ever touched from one goroutine at a
// time — pausing, stepping, breakpoints and state snapshots need no locks
// around the simulator itself.
type Controller struct {
	mu   sync.Mutex
	cond *sync.Cond

	paused bool
	budget uint64 // paused steps still allowed through (single-stepping)
	done   bool
	reqs   []func()

	step      uint64
	gated     bool   // Gate has been entered at least once
	stopCause string // why the simulation is paused ("", "pause", "breakpoint", ...)

	// pc, when non-nil, samples the program counter for breakpoints.
	pc          func() uint64
	breakpoints map[uint64]struct{}

	// watches holds the watched resources by the names the user gave;
	// watchIDs, by resource id, the watch a write to that resource fires
	// ("" for none). The observer half sets watchHit on the simulation
	// goroutine, the gate pauses at the next boundary.
	watches  map[string]*model.Resource
	watchIDs []string
	watchHit string
}

// NewController creates a run controller. pc, which may be nil, samples
// the program-counter resource for breakpoint matching; start indicates
// whether the simulation begins paused at its first step boundary.
func NewController(pc func() uint64, startPaused bool) *Controller {
	c := &Controller{
		pc:          pc,
		paused:      startPaused,
		breakpoints: map[uint64]struct{}{},
		watches:     map[string]*model.Resource{},
	}
	if startPaused {
		c.stopCause = "start"
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Gate implements the simulator's run-control hook; install it with
// s.Gate = ctrl.Gate. It blocks while the controller is paused and
// services pending Do closures while waiting.
func (c *Controller) Gate(step uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = step
	c.gated = true
	if c.watchHit != "" {
		c.paused = true
		c.stopCause = "watchpoint " + c.watchHit
		c.watchHit = ""
	}
	if len(c.breakpoints) > 0 && c.pc != nil {
		if _, hit := c.breakpoints[c.pc()]; hit {
			c.paused = true
			c.stopCause = "breakpoint"
		}
	}
	for {
		c.runPending()
		if c.done || !c.paused {
			return
		}
		if c.budget > 0 {
			c.budget--
			return
		}
		c.cond.Wait()
	}
}

// runPending runs queued Do closures; the caller holds mu.
func (c *Controller) runPending() {
	for len(c.reqs) > 0 {
		f := c.reqs[0]
		c.reqs = c.reqs[0:copy(c.reqs, c.reqs[1:])]
		f()
	}
}

// Do runs f with exclusive access to the simulation: on the simulation
// goroutine at its next step boundary, or inline after Finish. It blocks
// until f has run.
func (c *Controller) Do(f func()) {
	c.mu.Lock()
	if c.done {
		defer c.mu.Unlock()
		f()
		return
	}
	ch := make(chan struct{})
	c.reqs = append(c.reqs, func() { f(); close(ch) })
	c.cond.Broadcast()
	c.mu.Unlock()
	<-ch
}

// Finish marks the simulation goroutine as done: pending and future Do
// closures run inline on the caller. Call it (on the goroutine that owned
// the simulation) once Run has returned.
func (c *Controller) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	c.runPending()
	c.cond.Broadcast()
}

// Pause requests a stop at the next step boundary and returns once the
// simulation has committed to pausing (or has finished).
func (c *Controller) Pause() {
	c.Do(func() {
		c.paused = true
		c.budget = 0
		c.stopCause = "pause"
	})
}

// Resume releases a paused simulation.
func (c *Controller) Resume() {
	c.Do(func() {
		c.paused = false
		c.budget = 0
		c.stopCause = ""
	})
}

// StepN lets n control steps through a paused simulation, then pauses
// again. On a running simulation it is equivalent to Pause after n steps.
func (c *Controller) StepN(n uint64) {
	c.Do(func() {
		c.paused = true
		c.budget = n
		c.stopCause = "step"
	})
}

// Ready reports whether the simulation is serviceable: it has reached
// its first step boundary (the gate is live, so Do-based endpoints
// respond promptly) or has finished. Paused counts as ready — a paused
// simulation still services the funnel. Non-blocking: it only takes the
// status mutex, never the funnel, so /readyz cannot hang.
func (c *Controller) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gated || c.done
}

// Status reports the controller's view of the simulation.
func (c *Controller) Status() (step uint64, paused bool, cause string, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The budget is only consumed at gate entries, so paused+budget>0
	// reads as "stepping" rather than stopped.
	return c.step, c.paused && c.budget == 0, c.stopCause, c.done
}

// SetBreak adds or removes a PC breakpoint.
func (c *Controller) SetBreak(pc uint64, on bool) {
	c.Do(func() {
		if on {
			c.breakpoints[pc] = struct{}{}
		} else {
			delete(c.breakpoints, pc)
		}
	})
}

// Breakpoints returns the current breakpoint addresses, unsorted.
func (c *Controller) Breakpoints() []uint64 {
	var out []uint64
	c.Do(func() {
		for pc := range c.breakpoints {
			out = append(out, pc)
		}
	})
	return out
}

// SetWatch adds or removes a resource watchpoint; any write to a watched
// resource pauses the simulation at the next step boundary. Writes
// through an alias reach the resource it names, so a watch on an alias
// watches that resource.
func (c *Controller) SetWatch(r *model.Resource, on bool) {
	c.Do(func() {
		if on {
			c.watches[r.Name] = r
		} else {
			delete(c.watches, r.Name)
		}
		c.watchIDs = c.watchIDs[:0]
		for name, w := range c.watches {
			for w.AliasOf != nil {
				w = w.AliasOf
			}
			for len(c.watchIDs) <= w.Index {
				c.watchIDs = append(c.watchIDs, "")
			}
			// Of several watches on one resource, name the first in order.
			if c.watchIDs[w.Index] == "" || name < c.watchIDs[w.Index] {
				c.watchIDs[w.Index] = name
			}
		}
	})
}

// Watches returns the watched resource names, unsorted.
func (c *Controller) Watches() []string {
	var out []string
	c.Do(func() {
		for r := range c.watches {
			out = append(out, r)
		}
	})
	return out
}

// Observer returns the controller's trace observer implementing resource
// watchpoints; include it in the simulator's observer fanout.
func (c *Controller) Observer() trace.Observer { return &watchObserver{c: c} }

// watchObserver triggers watchpoints. Its hooks run on the simulation
// goroutine — the same goroutine that mutates the watch set through Do —
// so the map access is unsynchronized by design.
type watchObserver struct {
	trace.Nop
	c *Controller
}

func (w *watchObserver) hit(resource int) {
	c := w.c
	if c.watchHit == "" && resource >= 0 && resource < len(c.watchIDs) {
		c.watchHit = c.watchIDs[resource]
	}
}

func (w *watchObserver) OnResourceWrite(resource int, value uint64)  { w.hit(resource) }
func (w *watchObserver) OnMemWrite(resource int, addr, value uint64) { w.hit(resource) }
