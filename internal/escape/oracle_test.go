package escape

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nadroid/internal/corpus"
	"nadroid/internal/datalog"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// The Datalog program the bitset solver replaced is kept here as its
// reference: every test below loads the same inputs into a Datalog
// engine and requires identical reach rows, static sets, reacher counts
// and escape verdicts.

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

// oracleResult is the Datalog fixpoint: sorted reach rows per thread,
// the sorted closed static set, and the objects Escapes derives.
type oracleResult struct {
	reach   map[int][]pointsto.ObjID
	statics []pointsto.ObjID
	escapes map[pointsto.ObjID]bool
}

func datalogOracle(in escapeInput) oracleResult {
	e := datalog.NewEngine()
	obj := func(o pointsto.ObjID) datalog.Sym { return e.IntSym('h', int(o)) }
	thr := func(t int) datalog.Sym { return e.IntSym('t', t) }
	e.Relation("Root", 2)
	e.Relation("HeapPT", 3)
	e.Relation("StaticPT", 1)
	for t, roots := range in.roots {
		for _, o := range roots {
			e.Fact("Root", thr(t), obj(o))
		}
		e.Fact("Touches", thr(t))
	}
	for _, edge := range in.edges {
		e.Fact("HeapPT", obj(edge.Src), e.Sym("f:"+edge.Field), obj(edge.Dst))
	}
	for _, o := range in.seeds {
		e.Fact("StaticPT", obj(o))
	}
	e.MustRule("Reach(t, h) :- Root(t, h)")
	e.MustRule("Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)")
	e.MustRule("Reach(t, h) :- Touches(t), StaticPT(h)")
	e.MustRule("StaticPT(h2) :- StaticPT(h1), HeapPT(h1, f, h2)")
	e.MustRule("Escapes(h) :- Reach(t1, h), Reach(t2, h), t1 != t2")
	e.Run()

	objsOf := func(rows [][]datalog.Sym, col int) []pointsto.ObjID {
		out := make([]pointsto.ObjID, 0, len(rows))
		for _, row := range rows {
			_, v, _ := e.IntSymVal(row[col])
			out = append(out, pointsto.ObjID(v))
		}
		return sortedIDs(out)
	}
	res := oracleResult{reach: make(map[int][]pointsto.ObjID), escapes: make(map[pointsto.ObjID]bool)}
	for t := range in.roots {
		res.reach[t] = objsOf(e.Query("Reach", thr(t), datalog.Wild), 1)
	}
	res.statics = objsOf(e.Query("StaticPT", datalog.Wild), 0)
	for _, o := range objsOf(e.Query("Escapes", datalog.Wild), 0) {
		res.escapes[o] = true
	}
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

// TestSolverMatchesDatalogOnRandomGraphs runs the search over random
// heap graphs (cycles, self-loops, duplicate edges, rootless threads,
// unreachable objects) against the Datalog fixpoint.
func TestSolverMatchesDatalogOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := escapeInput{objs: 1 + rng.Intn(150), roots: make(map[int][]pointsto.ObjID)}
		obj := func() pointsto.ObjID { return pointsto.ObjID(rng.Intn(in.objs)) }
		threads := 1 + rng.Intn(8)
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
		want := datalogOracle(in)

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
			checkAgainstOracle(t, in, reachRows(m), Analyze(m), datalogOracle(in))
		})
	}
}
