// Package vcd writes IEEE-1364 value change dump (VCD) traces of a
// simulation: scalar resources and pipeline stage occupancy per control
// step. The dumps load in any waveform viewer (GTKWave etc.) and support
// the HW/SW co-simulation story the paper motivates — the processor model
// exposes cycle-accurate signals like any HDL block.
package vcd

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"golisa/internal/model"
	"golisa/internal/pipeline"
	"golisa/internal/trace"
)

// Writer emits a VCD trace. It is a trace.Observer: attached to a
// simulator (after Header), it samples every signal at the end of each
// control step.
type Writer struct {
	trace.Nop
	w     io.Writer
	state *model.State
	pipes []*pipeline.Pipe

	signals []signal
	last    []string // by signal: the value last emitted
	started bool
	err     error
}

type signal struct {
	id    string
	name  string
	width int
	read  func() string
}

// New creates a VCD writer tracing all scalar resources of the state and
// the occupancy of each pipeline stage.
func New(w io.Writer, st *model.State, pipes []*pipeline.Pipe) *Writer {
	v := &Writer{w: w, state: st, pipes: pipes}
	id := 0
	nextID := func() string {
		// VCD identifiers: printable ASCII 33..126.
		var sb strings.Builder
		n := id
		id++
		for {
			sb.WriteByte(byte(33 + n%94))
			n /= 94
			if n == 0 {
				break
			}
		}
		return sb.String()
	}
	var scalars []*model.Resource
	for _, r := range st.Model().Resources {
		if !r.IsMemory() && !r.IsAlias {
			scalars = append(scalars, r)
		}
	}
	sort.Slice(scalars, func(i, j int) bool { return scalars[i].Name < scalars[j].Name })
	for _, r := range scalars {
		res := r
		v.signals = append(v.signals, signal{
			id:    nextID(),
			name:  res.Name,
			width: res.Width,
			read: func() string {
				return fmt.Sprintf("b%s", st.Read(res).BinString())
			},
		})
	}
	for _, p := range pipes {
		for i, stName := range p.Def.Stages {
			pp, idx := p, i
			v.signals = append(v.signals, signal{
				id: nextID(),
				// Stage signals share the canonical track naming with the
				// trace-event and metrics exporters.
				name:  trace.StageTrack(p.Def.Name, stName),
				width: 1,
				read: func() string {
					if pp.Occupancy()[idx] {
						return "1"
					}
					return "0"
				},
			})
		}
	}
	v.last = make([]string, len(v.signals))
	return v
}

// Err returns the first write error, if any.
func (v *Writer) Err() error { return v.err }

func (v *Writer) printf(format string, args ...any) {
	if v.err != nil {
		return
	}
	_, v.err = fmt.Fprintf(v.w, format, args...)
}

// Header writes the VCD preamble and variable declarations.
func (v *Writer) Header(modelName string) {
	v.printf("$comment golisa trace of %s $end\n", modelName)
	v.printf("$timescale 1ns $end\n")
	v.printf("$scope module %s $end\n", sanitize(modelName))
	for _, s := range v.signals {
		kind := "wire"
		if s.width > 1 {
			kind = "reg"
		}
		v.printf("$var %s %d %s %s $end\n", kind, s.width, s.id, sanitize(s.name))
	}
	v.printf("$upscope $end\n$enddefinitions $end\n")
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

// Step samples all signals at the given control step, emitting changes only.
func (v *Writer) Step(step uint64) {
	v.printf("#%d\n", step)
	if !v.started {
		v.printf("$dumpvars\n")
	}
	for i, s := range v.signals {
		val := s.read()
		if !v.started || v.last[i] != val {
			if s.width == 1 && !strings.HasPrefix(val, "b") {
				v.printf("%s%s\n", val, s.id)
			} else {
				v.printf("%s %s\n", val, s.id)
			}
			v.last[i] = val
		}
	}
	if !v.started {
		v.printf("$end\n")
		v.started = true
	}
}

// OnStepEnd implements trace.Observer: the state after control step step
// is sampled at time step+1.
func (v *Writer) OnStepEnd(step uint64) { v.Step(step + 1) }
