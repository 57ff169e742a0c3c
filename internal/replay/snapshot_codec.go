package replay

import (
	"fmt"
	"sort"

	"golisa/internal/model"
	"golisa/internal/sim"
)

// Snapshot wire encoding. Operation names go through the header op table
// (index+1, or 0 + inline string); label/binding/pipe-op names go through
// a per-checkpoint string table. Memory arrays use sparse (gap, value)
// pair encoding: DSP data memories are mostly zero, so a checkpoint costs
// space proportional to live state, not declared state.

func encodeSnapshot(e *enc, t *strtab, m *model.Model, sn *sim.Snapshot) {
	ref := func(name string) {
		if op, ok := m.Ops[name]; ok {
			e.u(uint64(op.Index) + 1)
			return
		}
		e.u(0)
		e.str(name)
	}
	var inst func(is *sim.InstSnap)
	inst = func(is *sim.InstSnap) {
		ref(is.Op)
		e.u(uint64(len(is.Labels)))
		for _, l := range is.Labels {
			t.put(e, l.Name)
			e.u(l.Value)
			e.u(uint64(l.Width))
		}
		e.u(uint64(len(is.Bindings)))
		for _, b := range is.Bindings {
			t.put(e, b.Name)
			inst(b.Inst)
		}
	}
	pkt := func(p *sim.PacketSnap) {
		if p == nil {
			e.byte(0)
			return
		}
		e.byte(1)
		e.u(p.ID)
		e.u(uint64(len(p.Entries)))
		for _, en := range p.Entries {
			inst(en.Inst)
			e.u(uint64(en.Stage))
			e.i(int64(en.Extra))
			e.bool(en.Executed)
		}
	}

	e.u(sn.Step)
	e.u(uint64(len(sn.Scalars)))
	for _, v := range sn.Scalars {
		e.u(v)
	}
	e.u(uint64(len(sn.Arrays)))
	for _, row := range sn.Arrays {
		e.u(uint64(len(row)))
		n := 0
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
		e.u(uint64(n))
		prev := 0
		for i, v := range row {
			if v == 0 {
				continue
			}
			e.u(uint64(i - prev))
			e.u(v)
			prev = i + 1
		}
	}
	e.u(uint64(len(sn.Pipes)))
	for _, ps := range sn.Pipes {
		e.u(uint64(len(ps.Slots)))
		for _, p := range ps.Slots {
			pkt(p)
		}
		pkt(ps.Latch)
		e.u(ps.Shifts)
		e.u(ps.Stalls)
		e.u(ps.Flushes)
		e.u(ps.Retires)
		e.u(ps.RetiredEntries)
	}
	e.u(uint64(len(sn.Wheel)))
	for _, ws := range sn.Wheel {
		e.u(ws.Step)
		e.u(uint64(len(ws.Items)))
		for _, w := range ws.Items {
			if w.PipeOp != "" {
				e.byte(1)
				t.put(e, w.PipeOp)
				e.u(uint64(w.PipeOpPipe))
				e.i(int64(w.PipeOpStage))
				continue
			}
			e.byte(0)
			inst(w.Inst)
			e.i(int64(w.Pipe))
			e.u(uint64(w.Stage))
		}
	}
	e.u(sn.Steps)
	e.u(sn.Decodes)
	e.u(sn.DecodeHits)
	e.u(sn.Activations)
	e.u(sn.Retired)
	names := make([]string, 0, len(sn.Execs))
	for name := range sn.Execs {
		names = append(names, name)
	}
	sort.Strings(names)
	e.u(uint64(len(names)))
	for _, name := range names {
		ref(name)
		e.u(sn.Execs[name])
	}
}

// decodeSnapshot reads a checkpoint body. memSizes bounds each memory
// row by the element count of the model's memory in that state slot.
func decodeSnapshot(d *dec, model string, opNames []string, memSizes []uint64) *sim.Snapshot {
	t := &rstrtab{}
	ref := func() string {
		i := d.u()
		if i == 0 {
			return d.str()
		}
		if i-1 >= uint64(len(opNames)) {
			d.fail()
			return ""
		}
		return opNames[i-1]
	}
	var inst func() *sim.InstSnap
	inst = func() *sim.InstSnap {
		is := &sim.InstSnap{Op: ref()}
		nl := d.count()
		if d.err != nil {
			return is
		}
		for i := uint64(0); i < nl && d.err == nil; i++ {
			is.Labels = append(is.Labels, sim.LabelSnap{
				Name: t.get(d), Value: d.u(), Width: int(d.u()),
			})
		}
		nb := d.count()
		for i := uint64(0); i < nb && d.err == nil; i++ {
			name := t.get(d)
			is.Bindings = append(is.Bindings, sim.BindSnap{Name: name, Inst: inst()})
		}
		return is
	}
	pkt := func() *sim.PacketSnap {
		if d.byte() == 0 {
			return nil
		}
		p := &sim.PacketSnap{ID: d.u()}
		n := d.count()
		for i := uint64(0); i < n && d.err == nil; i++ {
			p.Entries = append(p.Entries, sim.EntrySnap{
				Inst: inst(), Stage: int(d.u()), Extra: int(d.i()), Executed: d.bool(),
			})
		}
		return p
	}

	sn := &sim.Snapshot{Model: model, Step: d.u()}
	ns := d.count()
	if d.err != nil {
		return sn
	}
	sn.Scalars = make([]uint64, 0, ns)
	for i := uint64(0); i < ns && d.err == nil; i++ {
		sn.Scalars = append(sn.Scalars, d.u())
	}
	na := d.count()
	for i := uint64(0); i < na && d.err == nil; i++ {
		size := d.u()
		pairs := d.count()
		if d.err != nil {
			break
		}
		limit := uint64(0)
		if i < uint64(len(memSizes)) {
			limit = memSizes[i]
		}
		if size > limit {
			d.err = fmt.Errorf("memory %d holds %d elements, which exceeds the model's %d", i, size, limit)
			break
		}
		row := make([]uint64, size)
		idx := uint64(0)
		for j := uint64(0); j < pairs && d.err == nil; j++ {
			idx += d.u()
			v := d.u()
			if idx >= size {
				d.fail()
				break
			}
			row[idx] = v
			idx++
		}
		sn.Arrays = append(sn.Arrays, row)
	}
	np := d.count()
	for i := uint64(0); i < np && d.err == nil; i++ {
		var ps sim.PipeSnap
		slots := d.count()
		for j := uint64(0); j < slots && d.err == nil; j++ {
			ps.Slots = append(ps.Slots, pkt())
		}
		ps.Latch = pkt()
		ps.Shifts = d.u()
		ps.Stalls = d.u()
		ps.Flushes = d.u()
		ps.Retires = d.u()
		ps.RetiredEntries = d.u()
		sn.Pipes = append(sn.Pipes, ps)
	}
	nw := d.count()
	for i := uint64(0); i < nw && d.err == nil; i++ {
		ws := sim.WheelSnap{Step: d.u()}
		items := d.count()
		for j := uint64(0); j < items && d.err == nil; j++ {
			if d.byte() == 1 {
				ws.Items = append(ws.Items, sim.WheelItemSnap{
					Pipe: -1, PipeOp: t.get(d), PipeOpPipe: int(d.u()), PipeOpStage: int(d.i()),
				})
				continue
			}
			it := sim.WheelItemSnap{Inst: inst()}
			it.Pipe = int(d.i())
			it.Stage = int(d.u())
			ws.Items = append(ws.Items, it)
		}
		sn.Wheel = append(sn.Wheel, ws)
	}
	sn.Steps = d.u()
	sn.Decodes = d.u()
	sn.DecodeHits = d.u()
	sn.Activations = d.u()
	sn.Retired = d.u()
	ne := d.count()
	sn.Execs = make(map[string]uint64, ne)
	for i := uint64(0); i < ne && d.err == nil; i++ {
		name := ref()
		sn.Execs[name] = d.u()
	}
	return sn
}
