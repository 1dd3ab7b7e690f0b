package escape

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nadroid/internal/corpus"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// The Datalog program the bitset solver replaced is kept here as its
// reference: every test below evaluates its rules over the same inputs
// (ruleOracle) and requires identical reach rows, static sets, reacher
// counts and escape verdicts.

// escapeInput is one escape problem in fact form: per-thread roots
// (threads absent from the map, like dummy mains, get no row), heap
// edges, and static-field seeds.
type escapeInput struct {
	objs  int
	roots map[int][]pointsto.ObjID
	edges []heapEdge
	seeds []pointsto.ObjID
}

// heapEdge is one points-to heap edge: Src.Field may point to Dst.
type heapEdge struct {
	Src   pointsto.ObjID
	Field string
	Dst   pointsto.ObjID
}

// heapEdges enumerates every heap points-to edge of pts.
func heapEdges(pts *pointsto.Result) []heapEdge {
	var out []heapEdge
	eachFieldSet(pts, func(o pointsto.ObjID, f string, set pointsto.Bitset) {
		set.ForEach(func(dst pointsto.ObjID) {
			out = append(out, heapEdge{Src: o, Field: f, Dst: dst})
		})
	})
	return out
}

// staticSeeds enumerates the objects held by static fields: the seeds
// of StaticPT, before heap closure.
func staticSeeds(pts *pointsto.Result) []pointsto.ObjID {
	var out []pointsto.ObjID
	for _, f := range staticFieldsOf(pts) {
		out = append(out, pts.StaticPointsTo(f)...)
	}
	return out
}

// oracleResult is the rules' fixpoint: sorted reach rows per thread,
// the sorted closed static set, and the objects Escapes derives.
type oracleResult struct {
	reach   map[int][]pointsto.ObjID
	statics []pointsto.ObjID
	escapes map[pointsto.ObjID]bool
}

// ruleOracle evaluates the Datalog program the bitset solver replaced,
// Chord's five escape rules, by naive fixpoint iteration: every round
// applies the recursive rules to the whole database, until a round adds
// nothing. Escapes reads only Reach, so it is evaluated once Reach is
// complete.
//
//	Reach(t, h)   :- Root(t, h)
//	Reach(t, h2)  :- Reach(t, h1), HeapPT(h1, f, h2)
//	Reach(t, h)   :- Touches(t), StaticPT(h)
//	StaticPT(h2)  :- StaticPT(h1), HeapPT(h1, f, h2)
//	Escapes(h)    :- Reach(t1, h), Reach(t2, h), t1 != t2
//
// Touches holds every thread with a row; StaticPT starts from the seeds.
func ruleOracle(in escapeInput) oracleResult {
	type reachT struct {
		t int
		h pointsto.ObjID
	}
	succ := make(map[pointsto.ObjID][]pointsto.ObjID) // HeapPT by h1
	for _, e := range in.edges {
		succ[e.Src] = append(succ[e.Src], e.Dst)
	}
	reach := make(map[reachT]bool)
	static := make(map[pointsto.ObjID]bool)
	for t, roots := range in.roots {
		for _, h := range roots {
			reach[reachT{t, h}] = true
		}
	}
	for _, h := range in.seeds {
		static[h] = true
	}
	for changed := true; changed; {
		changed = false
		var newReach []reachT
		var newStatic []pointsto.ObjID
		for r := range reach {
			for _, h2 := range succ[r.h] {
				newReach = append(newReach, reachT{r.t, h2})
			}
		}
		for h := range static {
			for t := range in.roots {
				newReach = append(newReach, reachT{t, h})
			}
			newStatic = append(newStatic, succ[h]...)
		}
		for _, r := range newReach {
			if !reach[r] {
				reach[r], changed = true, true
			}
		}
		for _, h := range newStatic {
			if !static[h] {
				static[h], changed = true, true
			}
		}
	}

	res := oracleResult{reach: make(map[int][]pointsto.ObjID), escapes: make(map[pointsto.ObjID]bool)}
	firstReacher := make(map[pointsto.ObjID]int)
	for r := range reach {
		res.reach[r.t] = append(res.reach[r.t], r.h)
		if t, ok := firstReacher[r.h]; !ok {
			firstReacher[r.h] = r.t
		} else if t != r.t {
			res.escapes[r.h] = true
		}
	}
	for t := range in.roots {
		res.reach[t] = sortedIDs(res.reach[t])
	}
	var statics []pointsto.ObjID
	for h := range static {
		statics = append(statics, h)
	}
	res.statics = sortedIDs(statics)
	return res
}

func sortedIDs(ids []pointsto.ObjID) []pointsto.ObjID {
	var set pointsto.Bitset
	for _, o := range ids {
		set.Add(o)
	}
	return set.AppendIDs([]pointsto.ObjID{})
}

// checkAgainstOracle compares the solver's reach rows and the Result
// counted from them with the oracle on every thread row and every
// object's reacher count and escape verdict.
func checkAgainstOracle(t *testing.T, in escapeInput, rows []pointsto.Bitset, res *Result, want oracleResult) {
	t.Helper()
	reachers := make([]int, in.objs)
	for th, row := range want.reach {
		if got := rows[th].AppendIDs([]pointsto.ObjID{}); !reflect.DeepEqual(got, row) {
			t.Fatalf("thread %d reach row:\n got %v\nwant %v", th, got, row)
		}
		for _, o := range row {
			reachers[o]++
		}
	}
	for o := 0; o < in.objs; o++ {
		id := pointsto.ObjID(o)
		if res.ReacherCount(id) != reachers[o] {
			t.Fatalf("object %d: %d reachers, oracle rows give %d", o, res.ReacherCount(id), reachers[o])
		}
		if res.Escaped(id) != want.escapes[id] {
			t.Fatalf("object %d: escaped=%v, Datalog Escapes=%v", o, res.Escaped(id), want.escapes[id])
		}
	}
}

// randomInput draws an escape problem with cycles, self-loops,
// duplicate edges, rootless threads and unreachable objects. threads
// counts the thread rows, dummy mains included.
func randomInput(seed int64) (in escapeInput, threads int) {
	rng := rand.New(rand.NewSource(seed))
	in = escapeInput{objs: 1 + rng.Intn(150), roots: make(map[int][]pointsto.ObjID)}
	obj := func() pointsto.ObjID { return pointsto.ObjID(rng.Intn(in.objs)) }
	threads = 1 + rng.Intn(8)
	for th := 0; th < threads; th++ {
		if rng.Intn(5) == 0 {
			continue // a dummy main: no row
		}
		in.roots[th] = []pointsto.ObjID{}
		for i := rng.Intn(6); i > 0; i-- {
			in.roots[th] = append(in.roots[th], obj())
		}
	}
	for i := rng.Intn(3 * in.objs); i > 0; i-- {
		in.edges = append(in.edges, heapEdge{Src: obj(), Field: fmt.Sprint(rng.Intn(3)), Dst: obj()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		in.seeds = append(in.seeds, obj())
	}
	return in, threads
}

// TestSolverMatchesDatalogOnRandomGraphs runs the search over random
// heap graphs against the fixpoint of the Datalog rules.
func TestSolverMatchesDatalogOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		in, threads := randomInput(seed)
		want := ruleOracle(in)

		s := &solver{succ: make([]pointsto.Bitset, in.objs)}
		for _, edge := range in.edges {
			s.succ[edge.Src].Add(edge.Dst)
		}
		var seeds pointsto.Bitset
		for _, o := range in.seeds {
			seeds.Add(o)
		}
		statics := s.closure(nil, seeds)
		if got := statics.AppendIDs([]pointsto.ObjID{}); !reflect.DeepEqual(got, want.statics) {
			t.Fatalf("seed %d: statics %v, want %v", seed, got, want.statics)
		}
		rows := make([]pointsto.Bitset, threads)
		for th, roots := range in.roots {
			var set pointsto.Bitset
			for _, o := range roots {
				set.Add(o)
			}
			rows[th] = s.closure(statics, set)
		}
		res := countReachers(in.objs, rows)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkAgainstOracle(t, in, rows, res, want) })
	}
}

// modelInput extracts a model's escape problem the way the Datalog
// analysis did: one Root fact per register pointee of every reachable
// context of every non-dummy thread.
func modelInput(m *threadify.Model) escapeInput {
	in := escapeInput{
		objs:  len(m.PTS.Objects()),
		roots: make(map[int][]pointsto.ObjID),
		edges: heapEdges(m.PTS),
		seeds: staticSeeds(m.PTS),
	}
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		roots := []pointsto.ObjID{}
		for _, mc := range m.Reach(th.ID) {
			mth, err := m.H.MethodByRef(mc.Method)
			if err != nil || mth.Abstract {
				continue
			}
			for reg := 0; reg < mth.NumRegs; reg++ {
				roots = append(roots, m.PTS.PointsTo(mc.Method, mc.Recv, reg)...)
			}
		}
		in.roots[th.ID] = roots
	}
	return in
}

// TestAnalyzeMatchesDatalogOnCorpus checks Analyze end to end — root
// enumeration, heap graph, search and counting — against the Datalog
// program on every corpus app.
func TestAnalyzeMatchesDatalogOnCorpus(t *testing.T) {
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	if testing.Short() {
		apps = apps[:4]
	}
	for _, app := range apps {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			m, err := threadify.Build(app.Build(), threadify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in := modelInput(m)
			checkAgainstOracle(t, in, reachRows(m), Analyze(m), ruleOracle(in))
		})
	}
}
