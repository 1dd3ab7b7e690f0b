// Package race implements Chord-style static data-race detection over
// the threadified program (§5), restricted to nAdroid's use-after-free
// shape: it enumerates field accesses per modeled thread, and reports
// racy pairs — a use (read) and a free (null write) of the same field of
// an aliased, thread-escaping object, from different modeled threads.
// Non-null writes are collected but never pair.
//
// Per the paper, the detector deliberately ignores lockset analysis
// (locks do not prevent ordering violations) and MHP analysis (replaced
// by the happens-before filters of §6); both are computed elsewhere and
// applied selectively by the filters.
package race

import (
	"context"
	"fmt"
	"sort"

	"nadroid/internal/datalog"
	"nadroid/internal/escape"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
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

// CollectAccesses enumerates the field accesses of every modeled thread.
// The same instruction yields one access per (thread, context) executing
// it. The result is allocated once, at its final length.
func CollectAccesses(m *threadify.Model) []Access {
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
			out = appendAccesses(out, m, th.ID)
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
	return appendAccesses(make([]Access, 0, n), m, thread)
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
func appendAccesses(out []Access, m *threadify.Model, thread int) []Access {
	for _, mc := range m.Reach(thread) {
		mth, err := m.H.MethodByRef(mc.Method)
		if err != nil || mth.Abstract {
			continue
		}
		oi := ir.ComputeOrigins(mth)
		for i, in := range mth.Instrs {
			acc := Access{Field: in.Field}
			switch in.Op {
			case ir.OpGetField:
				acc.Kind = Read
				acc.Field = canonicalField(m, in.Field)
				acc.Objs = m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
			case ir.OpPutField:
				acc.Kind = putKind(oi, mth, i)
				acc.Field = canonicalField(m, in.Field)
				acc.Objs = m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
			case ir.OpGetStatic:
				acc.Kind = Read
				acc.Static = true
			case ir.OpPutStatic:
				acc.Kind = putKind(oi, mth, i)
				acc.Static = true
			default:
				continue
			}
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

// canonicalField resolves a field reference to its declaring class so
// accesses through subclasses unify.
func canonicalField(m *threadify.Model, ref ir.FieldRef) ir.FieldRef {
	if f := m.H.DeclaringClassOfField(ref); f != nil {
		return ir.FieldRef{Class: f.Class, Name: f.Name}
	}
	return ref
}

// PopulateFacts loads the access and escape fact base into e: RdAcc
// tuples per (use, thread, field, object), WrAcc tuples per (free,
// thread, field, object), and the Esc relation over thread-escaping
// objects. Non-null writes contribute no access facts. Detectors that
// share one engine call this once and layer their own relations and
// rules on top.
func PopulateFacts(e *datalog.Engine, accesses []Access, esc *escape.Result) {
	thrSym := func(t int) datalog.Sym { return e.IntSym('t', t) }
	staticObj := e.Sym("h:static")

	// Make sure relations exist even when a side contributes no facts.
	e.Relation("RdAcc", 4)
	e.Relation("WrAcc", 4)
	e.Relation("Esc", 1)

	for _, a := range accesses {
		if a.Kind == Write {
			continue
		}
		fieldSym := e.Sym("f:" + a.Field.String())
		rel := "WrAcc"
		if a.Kind == Read {
			rel = "RdAcc"
		}
		if a.Static {
			e.Fact(rel, accSym(e, a.ID), thrSym(a.Thread), fieldSym, staticObj)
			continue
		}
		for _, o := range a.Objs {
			e.Fact(rel, accSym(e, a.ID), thrSym(a.Thread), fieldSym, objSym(e, o))
		}
	}
	// Escape facts; statics always escape.
	e.Fact("Esc", staticObj)
	seenObj := make(map[pointsto.ObjID]bool)
	for _, a := range accesses {
		for _, o := range a.Objs {
			if seenObj[o] {
				continue
			}
			seenObj[o] = true
			if esc.Escaped(o) {
				e.Fact("Esc", objSym(e, o))
			}
		}
	}
}

// InstallRacyRules adds the Racy derivation rule to an engine loaded by
// PopulateFacts, mirroring how Chord expresses its race detector:
//
//	Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)
//
// Install at most once per engine — the engine does not dedupe rules, so
// a second install would re-fire the same derivations on every later
// Run.
func InstallRacyRules(e *datalog.Engine) {
	e.MustRule("Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)")
}

// PairsFromEngine runs an engine loaded by PopulateFacts with the Racy
// rule installed (InstallRacyRules) and decodes the racy pairs, sorted.
// Engine telemetry (fact/derived-tuple/iteration counters) is reported
// through ctx.
func PairsFromEngine(ctx context.Context, e *datalog.Engine) []Pair {
	e.Run()
	st := e.Stats()
	obs.Add(ctx, "datalog_facts", int64(st.Facts))
	obs.Add(ctx, "datalog_derived", int64(st.Derived))
	obs.Add(ctx, "datalog_iterations", int64(st.Iterations))
	// Per-rule evaluation stats, labeled by head relation (rules sharing
	// a head accumulate into one series). The server exposes these as
	// the nadroid_datalog_rule_* metric families.
	for _, rs := range e.RuleStats() {
		obs.Add(ctx, fmt.Sprintf("datalog_rule_derived{rule=%q}", rs.Head), int64(rs.Derived))
		obs.Add(ctx, fmt.Sprintf("datalog_rule_rounds{rule=%q}", rs.Head), int64(rs.Rounds))
		obs.Add(ctx, fmt.Sprintf("datalog_rule_time_us{rule=%q}", rs.Head), rs.Time.Microseconds())
	}

	var pairs []Pair
	for _, row := range e.Query("Racy", datalog.Wild, datalog.Wild) {
		_, a, _ := e.IntSymVal(row[0])
		_, b, _ := e.IntSymVal(row[1])
		pairs = append(pairs, Pair{A: a, B: b})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// Why returns the derivation tree of a racy pair from an engine in
// provenance mode, or nil when provenance is off.
func Why(e *datalog.Engine, p Pair) *datalog.Derivation {
	return e.Why("Racy", accSym(e, p.A), accSym(e, p.B))
}

// accSym and objSym encode access IDs and abstract objects as engine
// symbols.
func accSym(e *datalog.Engine, id int) datalog.Sym { return e.IntSym('a', id) }

func objSym(e *datalog.Engine, o pointsto.ObjID) datalog.Sym { return e.IntSym('h', int(o)) }
