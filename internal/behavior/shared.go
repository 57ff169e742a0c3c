package behavior

import "golisa/internal/model"

// CompiledSet is a set of pre-compiled behavior closures and bound
// activation plans built once at artifact-construction time and then
// shared, read-only, by every execution engine created from that
// artifact. Engines consult the set before their private lazy caches, so
// simulators running concurrently off one artifact never compile (or
// write) anything the set already covers.
//
// Population (Precompile) must happen before the set is shared; after
// Freeze the set rejects further writes by panicking, which turns a
// build-order bug into a loud failure instead of a data race.
//
// The set's closures hang off its instances (model.Instance.Code), so an
// engine reaches an instance's compiled form without a lookup.
type CompiledSet struct {
	compiles uint64
	frozen   bool
}

// NewCompiledSet returns an empty, unfrozen set.
func NewCompiledSet() *CompiledSet { return &CompiledSet{} }

// Freeze marks the set read-only. Call once, before handing the set to a
// second goroutine.
func (cs *CompiledSet) Freeze() { cs.frozen = true }

// Compiles returns the number of closures (behaviors plus activation
// expressions) compiled while building the set.
func (cs *CompiledSet) Compiles() uint64 { return cs.compiles }

// Precompile compiles the behavior closure and binds the activation plan
// of in and all instances bound below it into the set.
//
// The Exec is only a compile-time context (model and the Static resolver
// for activation targets); no machine state is read.
// Instances reached here get their variant resolved eagerly, so sharing
// them later never triggers the lazy ResolveVariant write.
func (cs *CompiledSet) Precompile(x *Exec, in *model.Instance) {
	if cs.frozen {
		panic("behavior: Precompile on frozen CompiledSet")
	}
	cs.precompile(x, in)
}

func (cs *CompiledSet) precompile(x *Exec, in *model.Instance) {
	if in == nil || in.Code != nil {
		return
	}
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return
		}
	}
	cb, n := compileInstance(x, in)
	in.Code = cb
	cs.compiles += n
	for _, child := range in.Bindings {
		cs.precompile(x, child)
	}
}
