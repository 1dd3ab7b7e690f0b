package datalog

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTransitiveClosure(t *testing.T) {
	e := NewEngine()
	e.FactStrings("Edge", "a", "b")
	e.FactStrings("Edge", "b", "c")
	e.FactStrings("Edge", "c", "d")
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	e.Run()
	if got := e.Count("Path"); got != 6 {
		t.Fatalf("Path count = %d, want 6", got)
	}
	if !e.Has("Path", e.Sym("a"), e.Sym("d")) {
		t.Error("missing Path(a,d)")
	}
	if e.Has("Path", e.Sym("d"), e.Sym("a")) {
		t.Error("unexpected Path(d,a)")
	}
}

func TestCyclicClosureTerminates(t *testing.T) {
	e := NewEngine()
	e.FactStrings("Edge", "a", "b")
	e.FactStrings("Edge", "b", "a")
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	e.Run()
	if got := e.Count("Path"); got != 4 {
		t.Fatalf("Path count = %d, want 4 (a-a, a-b, b-a, b-b)", got)
	}
}

func TestNeqBuiltin(t *testing.T) {
	e := NewEngine()
	for _, n := range []string{"t1", "t2", "t3"} {
		e.FactStrings("Thread", n)
	}
	e.MustRule("Pair(x, y) :- Thread(x), Thread(y), x != y")
	e.Run()
	if got := e.Count("Pair"); got != 6 {
		t.Fatalf("Pair count = %d, want 6", got)
	}
	if e.Has("Pair", e.Sym("t1"), e.Sym("t1")) {
		t.Error("x != y must exclude the diagonal")
	}
}

func TestEqBuiltinBinds(t *testing.T) {
	e := NewEngine()
	e.FactStrings("A", "x1")
	e.MustRule("B(u, v) :- A(u), v = u")
	e.Run()
	if !e.Has("B", e.Sym("x1"), e.Sym("x1")) {
		t.Fatal("= builtin should bind v to u")
	}
}

func TestWildcardVariable(t *testing.T) {
	e := NewEngine()
	e.FactStrings("R", "a", "b")
	e.FactStrings("R", "a", "c")
	e.MustRule("Left(x) :- R(x, _)")
	e.Run()
	if got := e.Count("Left"); got != 1 {
		t.Fatalf("Left count = %d, want 1", got)
	}
}

func TestQueryPattern(t *testing.T) {
	e := NewEngine()
	e.FactStrings("R", "a", "b")
	e.FactStrings("R", "a", "c")
	e.FactStrings("R", "b", "c")
	got := e.Query("R", e.Sym("a"), Wild)
	if len(got) != 2 {
		t.Fatalf("Query returned %d rows, want 2", len(got))
	}
	for _, row := range got {
		if row[0] != e.Sym("a") {
			t.Errorf("row %v does not match pattern", row)
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := NewEngine()
	e.FactStrings("P", "v1", "h1")
	e.FactStrings("P", "v2", "h1")
	e.FactStrings("Use", "u1", "v1")
	e.FactStrings("Free", "f1", "v2")
	e.MustRule("Race(u, f) :- Use(u, uv), Free(f, fv), P(uv, h), P(fv, h)")
	e.Run()
	if !e.Has("Race", e.Sym("u1"), e.Sym("f1")) {
		t.Fatal("expected Race(u1,f1) via shared heap object")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"NoBody(x)",
		"lower(x) :- Edge(x, y)",
		"Head(x) :- x != y",         // no positive literal
		"Head(z) :- Edge(x, y)",     // unbound head var
		"Head(x) :- Edge(x, 'lit')", // constants in rule text
		"A(x, _) :- B(x, _)",        // wildcard in head
		"A(_) :- C(_)",              // wildcard in head
		"A(x) :- C(x), y != x",      // unbound builtin operand
		"A(x) :- C(x), _ != x",      // wildcard builtin operand
		"A(x) :- C(x), y = z",       // neither side of = bound
	}
	for _, src := range bad {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) should fail", src)
		}
	}
}

func TestRunIsIdempotent(t *testing.T) {
	e := NewEngine()
	e.FactStrings("Edge", "a", "b")
	e.FactStrings("Edge", "b", "c")
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	e.Run()
	n := e.Count("Path")
	it := e.Stats().Iterations
	e.Run()
	if e.Count("Path") != n {
		t.Fatalf("second Run changed Path: %d -> %d", n, e.Count("Path"))
	}
	// With no new rules and no new facts, the second Run must find an
	// empty delta immediately instead of re-deriving the fixpoint.
	if got := e.Stats().Iterations - it; got != 1 {
		t.Fatalf("no-op Run took %d iterations, want 1", got)
	}
}

// Rules added between Runs must see every fact already in the engine,
// and facts added between Runs must flow through every rule — and the
// result must match a fresh engine given everything up front.
func TestIncrementalRunMatchesFresh(t *testing.T) {
	inc := NewEngine()
	inc.FactStrings("Edge", "a", "b")
	inc.FactStrings("Edge", "b", "c")
	inc.MustRule("Path(x, y) :- Edge(x, y)")
	inc.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	inc.Run()

	// Layer a new rule family over the existing database, plus a fact
	// extending the chain; the late rule must fire over the pre-existing
	// Path tuples and the old rules over the new edge.
	inc.FactStrings("Edge", "c", "d")
	inc.FactStrings("Mark", "a")
	inc.MustRule("Reach(y) :- Mark(x), Path(x, y)")
	inc.Run()

	fresh := NewEngine()
	fresh.FactStrings("Edge", "a", "b")
	fresh.FactStrings("Edge", "b", "c")
	fresh.FactStrings("Edge", "c", "d")
	fresh.FactStrings("Mark", "a")
	fresh.MustRule("Path(x, y) :- Edge(x, y)")
	fresh.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	fresh.MustRule("Reach(y) :- Mark(x), Path(x, y)")
	fresh.Run()

	for _, rel := range []string{"Path", "Reach"} {
		got, want := inc.Query(rel, Wild, Wild), fresh.Query(rel, Wild, Wild)
		if len(got) != len(want) {
			t.Fatalf("%s: incremental %d tuples, fresh %d", rel, len(got), len(want))
		}
		for i := range got {
			for c := range got[i] {
				if inc.SymName(got[i][c]) != fresh.SymName(want[i][c]) {
					t.Fatalf("%s row %d: incremental %v, fresh %v", rel, i, got[i], want[i])
				}
			}
		}
	}
	// Derived counts only first-time insertions, so the incremental
	// engine's lifetime total must equal the fresh engine's single run.
	if inc.Stats().Derived != fresh.Stats().Derived {
		t.Fatalf("derived: incremental %d, fresh %d", inc.Stats().Derived, fresh.Stats().Derived)
	}
}

// Property: for random DAG edge sets, semi-naive closure equals a naive
// reachability computation.
func TestClosureMatchesNaive(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		if len(edges) > 24 {
			edges = edges[:24]
		}
		e := NewEngine()
		adj := make(map[int][]int)
		for _, ed := range edges {
			a, b := int(ed[0])%12, int(ed[1])%12
			e.FactStrings("Edge", fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))
			adj[a] = append(adj[a], b)
		}
		e.MustRule("Path(x, y) :- Edge(x, y)")
		e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
		e.Run()
		// Naive reachability (one or more steps).
		want := 0
		for src := 0; src < 12; src++ {
			seen := make(map[int]bool)
			var stack []int
			stack = append(stack, adj[src]...)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[n] {
					continue
				}
				seen[n] = true
				stack = append(stack, adj[n]...)
			}
			want += len(seen)
		}
		return e.Count("Path") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSymInterning(t *testing.T) {
	e := NewEngine()
	a1, a2 := e.Sym("x"), e.Sym("x")
	if a1 != a2 {
		t.Error("interning must be stable")
	}
	if e.SymName(a1) != "x" {
		t.Errorf("SymName = %q, want x", e.SymName(a1))
	}
}

// Indexes must stay consistent when facts arrive after the index was
// built (lookup -> insert -> lookup).
func TestIndexMaintainedAcrossInserts(t *testing.T) {
	e := NewEngine()
	e.FactStrings("Edge", "a", "b")
	e.MustRule("Out(x) :- Node(x), Edge(x, _)")
	e.FactStrings("Node", "a")
	e.Run() // builds the Edge index during the join
	if !e.Has("Out", e.Sym("a")) {
		t.Fatal("missing Out(a)")
	}
	// New facts after the first Run must land in the existing index.
	e.FactStrings("Edge", "c", "d")
	e.FactStrings("Node", "c")
	e.Run()
	if !e.Has("Out", e.Sym("c")) {
		t.Fatal("index not maintained for post-Run inserts")
	}
}

func TestDuplicateFactsIdempotent(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.FactStrings("R", "a", "b")
	}
	if e.Count("R") != 1 {
		t.Errorf("R count = %d, want 1", e.Count("R"))
	}
}

func TestRuleStats(t *testing.T) {
	e := NewEngine()
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	e.FactStrings("Edge", "a", "b")
	e.FactStrings("Edge", "b", "c")
	e.FactStrings("Edge", "c", "d")
	e.Run()
	stats := e.RuleStats()
	if len(stats) != 2 {
		t.Fatalf("want 2 rule stats, got %d", len(stats))
	}
	if stats[0].Head != "Path" || stats[1].Head != "Path" {
		t.Fatalf("unexpected heads: %+v", stats)
	}
	// Edge->Path copies 3 tuples; the transitive rule derives Path(a,c),
	// Path(b,d), Path(a,d).
	if stats[0].Derived != 3 {
		t.Fatalf("rule 0 derived = %d, want 3", stats[0].Derived)
	}
	if stats[1].Derived != 3 {
		t.Fatalf("rule 1 derived = %d, want 3", stats[1].Derived)
	}
	for _, s := range stats {
		if s.Rounds == 0 {
			t.Fatalf("rule %q fired but has 0 rounds", s.Rule)
		}
	}
}
