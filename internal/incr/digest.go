// Package incr implements incremental re-analysis support: stable
// per-method digests over normalized IR, method-level diff
// classification against a stored base run, digest gates for every
// reused analysis partition, and a versioned binary codec for the
// per-thread fact partitions persisted alongside the IR blob.
//
// The reuse discipline is verification-by-digest: a partition is only
// replayed when a digest over the exact inputs that produced it
// matches the current program, so a failed gate costs a cold
// recomputation but never a wrong result.
package incr

import (
	"sort"

	"nadroid/internal/apk"
	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// hasher is FNV-1a over a length-prefixed byte stream.
type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: 14695981039346656037} }

func (x *hasher) byte(b byte) {
	x.h ^= uint64(b)
	x.h *= 1099511628211
}

func (x *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		x.byte(byte(v >> (8 * i)))
	}
}

func (x *hasher) i(v int)     { x.u64(uint64(int64(v))) }
func (x *hasher) i64(v int64) { x.u64(uint64(v)) }

func (x *hasher) b(v bool) {
	if v {
		x.byte(1)
	} else {
		x.byte(0)
	}
}

func (x *hasher) str(s string) {
	x.i(len(s))
	for i := 0; i < len(s); i++ {
		x.byte(s[i])
	}
}

// MethodDigest hashes one method's normalized IR: flags, register
// shape, sorted labels, and every instruction operand — the same
// fields the cold-start blob serializes.
func MethodDigest(m *ir.Method) uint64 {
	x := newHasher()
	x.str(m.Name)
	x.i(m.NumArgs)
	x.b(m.Static)
	x.b(m.Synch)
	x.b(m.Abstract)
	x.i(m.NumRegs)
	labels := make([]string, 0, len(m.Labels))
	for l := range m.Labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	x.i(len(labels))
	for _, l := range labels {
		x.str(l)
		x.i(m.Labels[l])
	}
	x.i(len(m.Instrs))
	for _, in := range m.Instrs {
		x.i(int(in.Op))
		x.i(in.A)
		x.i(in.B)
		x.i(len(in.Args))
		for _, a := range in.Args {
			x.i(a)
		}
		x.str(in.Field().Class)
		x.str(in.Field().Name)
		x.str(in.Type())
		x.str(in.Callee().Class)
		x.str(in.Callee().Name)
		x.str(in.Target())
		x.i64(in.IntVal)
		x.str(in.StrVal())
	}
	return x.h
}

// MethodDigests computes the per-method digest table of a program,
// keyed by method ref (Class.Name).
func MethodDigests(prog *ir.Program) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			out[m.Ref()] = MethodDigest(m)
		}
	}
	return out
}

// Diff classifies the methods of a new digest table against a base
// table.
type Diff struct {
	Unchanged, Edited, Added, Removed int
}

// Changed is the number of methods whose facts the base run cannot
// vouch for: edited + added + removed.
func (d Diff) Changed() int { return d.Edited + d.Added + d.Removed }

// DiffMethods classifies cur against base by method ref.
func DiffMethods(base, cur map[string]uint64) Diff {
	var d Diff
	for ref, dig := range cur {
		bdig, ok := base[ref]
		switch {
		case !ok:
			d.Added++
		case bdig != dig:
			d.Edited++
		default:
			d.Unchanged++
		}
	}
	for ref := range base {
		if _, ok := cur[ref]; !ok {
			d.Removed++
		}
	}
	return d
}

// StructureDigest hashes everything about the program's shape that
// analyses other than method bodies depend on: the class hierarchy
// (supers, interfaces, outer classes), declared fields, method
// signatures and abstractness (what resolution sees), and the
// manifest. Classes and members are hashed in sorted order so the
// digest is content-stable across parses.
func StructureDigest(pkg *apk.Package) uint64 {
	x := newHasher()
	classes := append([]*ir.Class(nil), pkg.Program.Classes()...)
	sort.Slice(classes, func(i, j int) bool { return classes[i].Name < classes[j].Name })
	x.i(len(classes))
	for _, c := range classes {
		x.str(c.Name)
		x.str(c.Super)
		x.i(len(c.Interfaces))
		for _, iface := range c.Interfaces {
			x.str(iface)
		}
		x.str(c.Outer)
		x.b(c.IsIface)
		x.i(len(c.Fields))
		for _, f := range c.Fields {
			x.str(f.Name)
			x.str(f.Type)
			x.b(f.Static)
		}
		x.i(len(c.Methods))
		for _, m := range c.Methods {
			x.str(m.Name)
			x.i(m.NumArgs)
			x.b(m.Static)
			x.b(m.Abstract)
		}
	}
	m := pkg.Manifest
	x.str(m.Package)
	comps := m.Components()
	x.i(len(comps))
	for _, c := range comps {
		x.i(int(c.Kind))
		x.str(c.Class)
		x.b(c.Main)
		x.b(c.Reachable)
	}
	return x.h
}

// ThreadSig is one thread's reuse gate: a digest over every input its
// access partition is derived from.
type ThreadSig struct {
	// Dummy marks the dummy-main thread, which contributes no facts.
	Dummy bool
	// Acc covers each reachable method context, every register's
	// points-to set, and each context's method-body digest: the inputs
	// of access collection (field refs, access kinds and free-origin
	// analysis are all body functions; field canonicalization is gated
	// by the structure digest separately).
	Acc uint64
}

// ThreadSignature computes one thread's gate digest in a single pass
// over its reachable contexts (the same sorted enumeration access
// collection uses).
func ThreadSignature(m *threadify.Model, thread int, methodDigests map[string]uint64) ThreadSig {
	th := m.Threads[thread]
	if th.Kind == threadify.KindDummyMain {
		return ThreadSig{Dummy: true}
	}
	acc := newHasher()
	pts := m.PTS
	var objs []pointsto.ObjID
	for _, mc := range m.Reach(thread) {
		sets := pts.RegisterSets(mc.Method, mc.Recv)
		if sets == nil {
			continue // abstract or unresolvable: no body, no facts
		}
		acc.str(mc.Method)
		acc.i(int(mc.Recv))
		acc.u64(methodDigests[mc.Method])
		for _, set := range sets {
			objs = set.AppendIDs(objs[:0])
			acc.i(len(objs))
			for _, o := range objs {
				acc.i(int(o))
			}
		}
	}
	return ThreadSig{Acc: acc.h}
}
