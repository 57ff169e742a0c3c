package model

import (
	"fmt"

	"golisa/internal/bitvec"
)

// State is the architectural state of a machine: one bit-accurate value per
// scalar resource and one value slice per memory resource. It is the
// paper's "memory model" made executable.
type State struct {
	m       *Model
	Scalars []bitvec.Value
	// Arrays holds the memories. An element nothing wrote is the zero
	// Value; ReadElem and ReadBanked return it at the memory's width.
	Arrays [][]bitvec.Value
	// written is set once a memory may hold a nonzero element, so that
	// Reset clears memories only then.
	written bool

	// Pending non-blocking writes to latch resources, applied in order by
	// Commit at the end of each control step (last write wins).
	pendingScalars []pendingScalar
	pendingElems   []pendingElem

	// OnWrite, when non-nil, observes every scalar resource write in
	// program order (at issue time, before latch commit). Alias writes
	// report the underlying resource with the merged value. OnWriteElem
	// does the same for memory element writes, banked ones included (see
	// WriteBanked). Nil costs one comparison.
	OnWrite     func(r *Resource, v bitvec.Value)
	OnWriteElem func(r *Resource, addr uint64, v bitvec.Value)
}

type pendingScalar struct {
	r *Resource
	v bitvec.Value
}

type pendingElem struct {
	r    *Resource
	addr uint64
	v    bitvec.Value
}

// AssignSlots numbers the resources into state slots. Called once by sema
// after all resources are registered.
func (m *Model) AssignSlots() {
	scalar, array := 0, 0
	for _, r := range m.Resources {
		if r.IsAlias {
			r.Slot = -1
			continue
		}
		if r.IsMemory() {
			r.Slot = array
			array++
		} else {
			r.Slot = scalar
			scalar++
		}
	}
}

// NewState allocates zeroed state for the model. Its memories are left
// as the allocator zeroed them.
func NewState(m *Model) *State {
	s := &State{m: m}
	for _, r := range m.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			s.Arrays = append(s.Arrays, make([]bitvec.Value, r.Total()))
		} else {
			s.Scalars = append(s.Scalars, bitvec.New(0, r.Width))
		}
	}
	return s
}

// Model returns the model this state belongs to.
func (s *State) Model() *Model { return s.m }

// Reset zeroes all resources and drops pending latch writes. It clears
// the memories only if one was written since they were last zero.
func (s *State) Reset() {
	s.pendingScalars = s.pendingScalars[:0]
	s.pendingElems = s.pendingElems[:0]
	if s.written {
		for _, arr := range s.Arrays {
			clear(arr)
		}
		s.written = false
	}
	for _, r := range s.m.Resources {
		if !r.IsAlias && !r.IsMemory() {
			s.Scalars[r.Slot] = bitvec.New(0, r.Width)
		}
	}
}

// Read returns the value of a scalar resource, resolving aliases.
func (s *State) Read(r *Resource) bitvec.Value {
	if r.IsAlias {
		base := s.Read(r.AliasOf)
		return base.Slice(r.AliasHi, r.AliasLo)
	}
	return s.Scalars[r.Slot]
}

// Write stores v into a scalar resource (truncated to its width),
// resolving aliases. Writes to LATCH resources are buffered until Commit.
func (s *State) Write(r *Resource, v bitvec.Value) {
	if r.IsAlias {
		base := s.Read(r.AliasOf)
		s.Write(r.AliasOf, base.InsertSlice(r.AliasHi, r.AliasLo, v.Uint()))
		return
	}
	if s.OnWrite != nil {
		s.OnWrite(r, v.Resize(r.Width))
	}
	if r.Latch {
		s.pendingScalars = append(s.pendingScalars, pendingScalar{r, v.Resize(r.Width)})
		return
	}
	s.Scalars[r.Slot] = v.Resize(r.Width)
}

// WriteNow stores v into a scalar resource bypassing latch buffering
// (used by reset and external pokes).
func (s *State) WriteNow(r *Resource, v bitvec.Value) {
	if r.IsAlias {
		base := s.Read(r.AliasOf)
		s.WriteNow(r.AliasOf, base.InsertSlice(r.AliasHi, r.AliasLo, v.Uint()))
		return
	}
	s.Scalars[r.Slot] = v.Resize(r.Width)
}

// Commit applies pending latch writes in program order (last write wins) and
// clears the buffers. The simulator calls it at the end of every control
// step, giving LATCH resources Verilog-style non-blocking semantics.
func (s *State) Commit() {
	for _, p := range s.pendingScalars {
		s.Scalars[p.r.Slot] = p.v
	}
	s.pendingScalars = s.pendingScalars[:0]
	for _, p := range s.pendingElems {
		if i, err := p.r.elemIndex(p.addr); err == nil {
			s.Arrays[p.r.Slot][i] = p.v
			s.written = true
		}
	}
	s.pendingElems = s.pendingElems[:0]
}

// elemIndex translates an address to an element index with bounds checking.
func (r *Resource) elemIndex(addr uint64) (uint64, error) {
	if addr < r.Base {
		return 0, fmt.Errorf("%s: address %#x below base %#x", r.Name, addr, r.Base)
	}
	i := addr - r.Base
	if i >= r.Size {
		return 0, fmt.Errorf("%s: address %#x out of range (size %#x, base %#x)", r.Name, addr, r.Size, r.Base)
	}
	return i, nil
}

// CheckSpan reports the error an access to the first of the n
// addresses from addr that lies outside memory r raises, or nil when all
// of them lie inside: an image of n words loaded at addr fits.
func (r *Resource) CheckSpan(addr uint64, n int) error {
	if n == 0 {
		return nil
	}
	i, err := r.elemIndex(addr)
	if err == nil && r.Size-i < uint64(n) {
		_, err = r.elemIndex(r.Base + r.Size)
	}
	return err
}

// ReadElem reads memory element at addr (bank 0 for banked memories).
func (s *State) ReadElem(r *Resource, addr uint64) (bitvec.Value, error) {
	i, err := r.elemIndex(addr)
	if err != nil {
		return bitvec.Value{}, err
	}
	return s.Arrays[r.Slot][i].Resize(r.Width), nil
}

// WriteElem writes memory element at addr. Writes to LATCH memories are
// buffered until Commit.
func (s *State) WriteElem(r *Resource, addr uint64, v bitvec.Value) error {
	i, err := r.elemIndex(addr)
	if err != nil {
		return err
	}
	if s.OnWriteElem != nil {
		s.OnWriteElem(r, addr, v.Resize(r.Width))
	}
	if r.Latch {
		s.pendingElems = append(s.pendingElems, pendingElem{r, addr, v.Resize(r.Width)})
		return nil
	}
	s.Arrays[r.Slot][i] = v.Resize(r.Width)
	s.written = true
	return nil
}

// ReadBanked reads element addr of the given bank of a banked memory.
func (s *State) ReadBanked(r *Resource, bank, addr uint64) (bitvec.Value, error) {
	if r.Banks <= 0 {
		return bitvec.Value{}, fmt.Errorf("%s: not a banked memory", r.Name)
	}
	if bank >= uint64(r.Banks) {
		return bitvec.Value{}, fmt.Errorf("%s: bank %d out of range (%d banks)", r.Name, bank, r.Banks)
	}
	i, err := r.elemIndex(addr)
	if err != nil {
		return bitvec.Value{}, err
	}
	return s.Arrays[r.Slot][bank*r.Size+i].Resize(r.Width), nil
}

// WriteBanked writes element addr of the given bank of a banked memory.
// OnWriteElem sees the bank folded into the address: bank*Size + addr.
func (s *State) WriteBanked(r *Resource, bank, addr uint64, v bitvec.Value) error {
	if r.Banks <= 0 {
		return fmt.Errorf("%s: not a banked memory", r.Name)
	}
	if bank >= uint64(r.Banks) {
		return fmt.Errorf("%s: bank %d out of range (%d banks)", r.Name, bank, r.Banks)
	}
	i, err := r.elemIndex(addr)
	if err != nil {
		return err
	}
	if s.OnWriteElem != nil {
		s.OnWriteElem(r, bank*r.Size+addr, v.Resize(r.Width))
	}
	s.Arrays[r.Slot][bank*r.Size+i] = v.Resize(r.Width)
	s.written = true
	return nil
}

// SetMemory writes raw values into memory r at its width from its first
// element on, as far as both reach, with no latching and no OnWriteElem:
// the whole-memory write of a snapshot restore.
func (s *State) SetMemory(r *Resource, vals []uint64) {
	arr := s.Arrays[r.Slot]
	for i, v := range vals[:min(len(vals), len(arr))] {
		arr[i] = bitvec.New(v, r.Width)
	}
	s.written = true
}

// Clone deep-copies the state (used by the cross-simulator equivalence
// experiment).
func (s *State) Clone() *State {
	c := &State{m: s.m, written: s.written}
	c.Scalars = append([]bitvec.Value(nil), s.Scalars...)
	c.Arrays = make([][]bitvec.Value, len(s.Arrays))
	for i, a := range s.Arrays {
		c.Arrays[i] = append([]bitvec.Value(nil), a...)
	}
	return c
}

// Equal reports whether two states of structurally identical models hold
// identical values, returning the first differing resource name when they do
// not. States from two separately built instances of the same description
// compare fine (the cross-simulator equivalence experiment relies on this).
func (s *State) Equal(o *State) (bool, string) {
	if len(s.m.Resources) != len(o.m.Resources) {
		return false, "different models"
	}
	for i, r := range s.m.Resources {
		or := o.m.Resources[i]
		if r.Name != or.Name || r.Width != or.Width || r.Total() != or.Total() {
			return false, "different models"
		}
	}
	for _, r := range s.m.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			a, b := s.Arrays[r.Slot], o.Arrays[r.Slot]
			for i := range a {
				if a[i].Uint() != b[i].Uint() {
					return false, fmt.Sprintf("%s[%#x]", r.Name, uint64(i)+r.Base)
				}
			}
		} else if s.Scalars[r.Slot].Uint() != o.Scalars[r.Slot].Uint() {
			return false, r.Name
		}
	}
	return true, ""
}
