// Package escape implements thread-escape analysis over the threadified
// model: an abstract object escapes when two distinct modeled threads can
// reach it (through local variables, field chains, or static fields).
// Chord's race detector uses the same notion to discard thread-local
// accesses (§5).
//
// Chord states the analysis in Datalog:
//
//	Reach(t, h)  :- Root(t, h)
//	Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)
//	Reach(t, h)  :- Touches(t), StaticPT(h)   (statics are global)
//	StaticPT(h2) :- StaticPT(h1), HeapPT(h1, f, h2)
//	Escapes(h)   :- Reach(t1, h), Reach(t2, h), t1 != t2
//
// Here the same fixpoint is a graph search over points-to bitsets: the
// closed static set is one search of the heap graph from the static
// seeds, each thread's Reach row is a search from its roots on top of
// that set, and Escapes(h) holds when at least two rows contain h. The
// rules above remain as the test oracle (oracle_test.go).
package escape

import (
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// Options is the option set AnalyzeWith takes. The search has no
// tuning knobs, so it is empty.
type Options struct{}

// Result is the escape status of every abstract object: how many
// threads reach it.
type Result struct {
	// reachers[o] is the number of threads that reach object o.
	reachers []int32
}

// Escaped reports whether obj is reachable from two or more threads.
func (r *Result) Escaped(obj pointsto.ObjID) bool { return r.ReacherCount(obj) >= 2 }

// ReacherCount returns how many threads reach obj.
func (r *Result) ReacherCount(obj pointsto.ObjID) int {
	if obj < 0 || int(obj) >= len(r.reachers) {
		return 0
	}
	return int(r.reachers[obj])
}

// Snapshot flattens the result for serialization: one row per object in
// ID order, with its reacher count and escape status.
func (r *Result) Snapshot() (objs []pointsto.ObjID, reachers []int, escaped []bool) {
	n := len(r.reachers)
	objs, reachers, escaped = make([]pointsto.ObjID, n), make([]int, n), make([]bool, n)
	for o, c := range r.reachers {
		objs[o], reachers[o], escaped[o] = pointsto.ObjID(o), int(c), c >= 2
	}
	return objs, reachers, escaped
}

// FromSnapshot rebuilds a Result from Snapshot's object and reacher
// columns; escape status follows from the counts. Snapshot numbers its
// rows 0..n-1, so a row naming an object outside that range is dropped.
func FromSnapshot(objs []pointsto.ObjID, reachers []int) *Result {
	r := &Result{reachers: make([]int32, len(objs))}
	for i, o := range objs {
		if o >= 0 && int(o) < len(objs) {
			r.reachers[o] = int32(reachers[i])
		}
	}
	return r
}

// Analyze computes escape facts for every abstract object in the model.
func Analyze(m *threadify.Model) *Result {
	return countReachers(len(m.PTS.Objects()), reachRows(m))
}

// AnalyzeWith is Analyze with explicit options.
func AnalyzeWith(m *threadify.Model, _ Options) *Result { return Analyze(m) }

// reachRows returns every thread's Reach row, indexed by thread ID; the
// rows of dummy-main threads are empty.
func reachRows(m *threadify.Model) []pointsto.Bitset {
	s := &solver{succ: heapGraph(m.PTS)}
	statics := s.closure(nil, staticSeedSet(m.PTS))
	roots := rootSets{m: m, memo: make(map[threadify.MCtx]pointsto.Bitset)}
	rows := make([]pointsto.Bitset, len(m.Threads))
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain {
			rows[th.ID] = s.closure(statics, roots.thread(th.ID))
		}
	}
	return rows
}

// countReachers counts, for each of objs objects, the rows containing it.
func countReachers(objs int, rows []pointsto.Bitset) *Result {
	r := &Result{reachers: make([]int32, objs)}
	for _, row := range rows {
		row.ForEach(func(o pointsto.ObjID) { r.reachers[o]++ })
	}
	return r
}

// solver searches the heap graph: succ[o] holds every object some
// instance field of o may point to. stack is scratch space reused
// across searches.
type solver struct {
	succ  []pointsto.Bitset
	stack []pointsto.ObjID
}

// closure returns base plus every object reachable from seeds, as a new
// set. base must be closed under the heap graph, so the search never
// expands its members again.
func (s *solver) closure(base, seeds pointsto.Bitset) pointsto.Bitset {
	out := base.Clone()
	stack := s.stack[:0]
	push := func(o pointsto.ObjID) {
		if out.Add(o) {
			stack = append(stack, o)
		}
	}
	seeds.ForEach(push)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.succ[o].ForEach(push)
	}
	s.stack = stack
	return out
}

// heapGraph builds every object's successor set: succ[o] is the union
// of the points-to sets of o's instance fields.
func heapGraph(pts *pointsto.Result) []pointsto.Bitset {
	succ := make([]pointsto.Bitset, len(pts.Objects()))
	eachFieldSet(pts, func(o pointsto.ObjID, _ string, set pointsto.Bitset) {
		succ[o].Or(set)
	})
	return succ
}

// staticSeedSet is the union of every static field's points-to set:
// the seeds of StaticPT, before heap closure.
func staticSeedSet(pts *pointsto.Result) pointsto.Bitset {
	var seeds pointsto.Bitset
	for _, f := range staticFieldsOf(pts) {
		seeds.Or(pts.StaticSet(f))
	}
	return seeds
}

// rootSets enumerates thread roots: every object any register of any
// reachable method context points to. Threads share most of their
// contexts, so each context's register union is computed once.
type rootSets struct {
	m    *threadify.Model
	memo map[threadify.MCtx]pointsto.Bitset
}

// thread returns the root set of thread t.
func (r *rootSets) thread(t int) pointsto.Bitset {
	var out pointsto.Bitset
	for _, mc := range r.m.Reach(t) {
		set, ok := r.memo[mc]
		if !ok {
			set = r.context(mc)
			r.memo[mc] = set
		}
		out.Or(set)
	}
	return out
}

// context unions the register points-to sets of one method context;
// abstract and unresolvable methods contribute nothing.
func (r *rootSets) context(mc threadify.MCtx) pointsto.Bitset {
	var set pointsto.Bitset
	for _, s := range r.m.PTS.RegisterSets(mc.Method, mc.Recv) {
		set.Or(s)
	}
	return set
}

// eachFieldSet visits the points-to set of every (object, instance
// field) pair in object-ID order, then declared-field order up the
// class hierarchy. The points-to result has no per-object field index,
// so the declared fields are probed; they are listed once per class.
func eachFieldSet(pts *pointsto.Result, fn func(o pointsto.ObjID, field string, set pointsto.Bitset)) {
	fields := make(map[string][]string)
	for id, obj := range pts.Objects() {
		names, ok := fields[obj.Class]
		if !ok {
			names = fieldsOf(pts, obj.Class)
			fields[obj.Class] = names
		}
		o := pointsto.ObjID(id)
		for _, f := range names {
			fn(o, f, pts.FieldSet(o, f))
		}
	}
}

// fieldsOf lists the instance fields declared by class and its supers.
func fieldsOf(pts *pointsto.Result, class string) []string {
	var names []string
	prog := pts.Hierarchy().Program()
	for cur := class; cur != ""; {
		c := prog.Class(cur)
		if c == nil {
			break
		}
		for _, f := range c.Fields {
			if !f.Static {
				names = append(names, f.Name)
			}
		}
		cur = c.Super
	}
	return names
}

// staticFieldsOf enumerates static field refs declared in the program.
func staticFieldsOf(pts *pointsto.Result) []string {
	var out []string
	for _, c := range pts.Hierarchy().Program().Classes() {
		for _, f := range c.Fields {
			if f.Static {
				out = append(out, f.Ref())
			}
		}
	}
	return out
}
