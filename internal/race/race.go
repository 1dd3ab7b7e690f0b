// Package race implements Chord-style static data-race detection over
// the threadified program (§5), restricted to nAdroid's use-after-free
// shape: it enumerates field accesses per modeled thread, and reports
// racy pairs — a use (read) and a free (null write) of the same field of
// an aliased, thread-escaping object, from different modeled threads.
// Non-null writes are collected but never pair. Chord states the
// detector as one Datalog rule, RacyRule; it is not recursive, so Join
// evaluates it as a single hash join with the same relation.
//
// Per the paper, the detector deliberately ignores lockset analysis
// (locks do not prevent ordering violations) and MHP analysis (replaced
// by the happens-before filters of §6); both are computed elsewhere and
// applied selectively by the filters.
package race

import (
	"fmt"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// AccessKind distinguishes reads, writes and null writes.
type AccessKind int

const (
	// Read is a getfield/getstatic — the paper's "use".
	Read AccessKind = iota
	// Write is a putfield/putstatic of a non-null (or unknown) value.
	Write
	// NullWrite is a putfield/putstatic of a definitely-null value — the
	// paper's "free".
	NullWrite
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case NullWrite:
		return "free"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Access is one field access executed by one modeled thread.
type Access struct {
	ID     int
	Thread int
	MCtx   threadify.MCtx
	Instr  ir.InstrID
	Index  int // instruction index within the method
	Field  ir.FieldRef
	Kind   AccessKind
	Static bool
	// Objs are the abstract receiver objects (empty for statics).
	Objs []pointsto.ObjID
}

// Pair is one racy pair of access IDs: A is the use, B the free.
type Pair struct {
	A, B int
}

// Result bundles the accesses and racy pairs of one detection run.
type Result struct {
	Accesses []Access
	Pairs    []Pair
}

// CollectAccesses enumerates the field accesses of every modeled thread
// (Collect with a table of its own).
func CollectAccesses(m *threadify.Model) []Access { return Collect(m, ir.NewOrigins()) }

// Collect enumerates the field accesses of every modeled thread. The
// same instruction yields one access per (thread, context) executing it.
// A put asks origins for its method's value origins, to tell a free from
// a write; methods without a put are never analysed. The result is
// allocated once, at its final length.
func Collect(m *threadify.Model, origins *ir.Origins) []Access {
	sites := make(map[string]int)
	n := 0
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain {
			n += countAccesses(m, th.ID, sites)
		}
	}
	out := make([]Access, 0, n)
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain {
			out = appendAccesses(out, m, th.ID, origins)
		}
	}
	return out
}

// CollectThreadAccesses enumerates one thread's field accesses with IDs
// local to the thread (0-based, in the same deterministic order
// CollectAccesses emits). Per-thread access partitions concatenate into
// exactly the CollectAccesses result once IDs are renumbered
// sequentially, which is what lets the incremental pipeline reuse
// unchanged threads' partitions verbatim.
func CollectThreadAccesses(m *threadify.Model, thread int) []Access {
	n := countAccesses(m, thread, make(map[string]int))
	return appendAccesses(make([]Access, 0, n), m, thread, ir.NewOrigins())
}

// countAccesses counts the accesses appendAccesses emits for thread,
// memoizing each method's count in sites.
func countAccesses(m *threadify.Model, thread int, sites map[string]int) int {
	n := 0
	for _, mc := range m.Reach(thread) {
		c, ok := sites[mc.Method]
		if !ok {
			if mth, err := m.H.MethodByRef(mc.Method); err == nil && !mth.Abstract {
				for _, in := range mth.Instrs {
					switch in.Op {
					case ir.OpGetField, ir.OpPutField, ir.OpGetStatic, ir.OpPutStatic:
						c++
					}
				}
			}
			sites[mc.Method] = c
		}
		n += c
	}
	return n
}

// appendAccesses appends thread's accesses to out, in (method, receiver)
// context order then instruction order, numbering each by its index in
// out.
func appendAccesses(out []Access, m *threadify.Model, thread int, origins *ir.Origins) []Access {
	for _, mc := range m.Reach(thread) {
		mth, err := m.H.MethodByRef(mc.Method)
		if err != nil || mth.Abstract {
			continue
		}
		for i, in := range mth.Instrs {
			var acc Access
			switch in.Op {
			case ir.OpGetField:
				acc.Kind = Read
				acc.Objs = m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
			case ir.OpPutField:
				acc.Kind = putKind(origins.Of(mth), mth, i)
				acc.Objs = m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
			case ir.OpGetStatic:
				acc.Kind = Read
				acc.Static = true
			case ir.OpPutStatic:
				acc.Kind = putKind(origins.Of(mth), mth, i)
				acc.Static = true
			default:
				continue
			}
			// Accesses through a subclass name the declaring class, so
			// they meet the accesses that name it in the Racy join.
			acc.Field = m.H.CanonicalField(in.Field)
			acc.ID = len(out)
			acc.Thread = thread
			acc.MCtx = mc
			acc.Instr = ir.InstrID{Method: mc.Method, Index: i}
			acc.Index = i
			out = append(out, acc)
		}
	}
	return out
}

// putKind classifies the put at instruction i: a free when the stored
// value is definitely null, else a write.
func putKind(oi *ir.OriginInfo, mth *ir.Method, i int) AccessKind {
	if ir.IsFree(oi, mth, i) {
		return NullWrite
	}
	return Write
}

// RacyRule is the race detector as Chord states it: a use a and a free
// b of the same field f of the same thread-escaping object h, on
// different threads. Join evaluates it; evidence records cite it.
const RacyRule = "Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)"
