package datalog

import (
	"reflect"
	"testing"
)

// buildProvEngine asserts a tiny transitive-reachability program:
// Edge(a,b), Edge(b,c), Edge(c,d); Path(x,y) :- Edge(x,y);
// Path(x,z) :- Path(x,y), Edge(y,z).
func buildProvEngine() *Engine {
	e := NewEngine()
	e.EnableProvenance()
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	e.FactStrings("Edge", "a", "b")
	e.FactStrings("Edge", "b", "c")
	e.FactStrings("Edge", "c", "d")
	e.Run()
	return e
}

func TestWhyBaseFact(t *testing.T) {
	e := buildProvEngine()
	d := e.Why("Edge", e.Sym("a"), e.Sym("b"))
	if d == nil {
		t.Fatal("Why returned nil for asserted fact")
	}
	if !d.IsBase() || d.Rule != "" {
		t.Fatalf("asserted fact should be a base node, got rule %q", d.Rule)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(d.Tuple, want) {
		t.Fatalf("tuple = %v, want %v", d.Tuple, want)
	}
}

func TestWhyDerived(t *testing.T) {
	e := buildProvEngine()
	d := e.Why("Path", e.Sym("a"), e.Sym("d"))
	if d == nil {
		t.Fatal("Why returned nil for derived tuple")
	}
	if d.IsBase() {
		t.Fatal("Path(a,d) should be derived, got base node")
	}
	if d.Rule != "Path(x, z) :- Path(x, y), Edge(y, z)" {
		t.Fatalf("unexpected rule: %q", d.Rule)
	}
	// Every leaf must be an Edge base fact, and every cited tuple must
	// exist in the database — the derivation is checkable mechanically.
	leaves := d.Leaves()
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	var checkNode func(n *Derivation)
	checkNode = func(n *Derivation) {
		syms := make([]Sym, len(n.Tuple))
		for i, s := range n.Tuple {
			syms[i] = e.Sym(s)
		}
		if !e.Has(n.Rel, syms...) {
			t.Fatalf("derivation cites %s%v which is not in the database", n.Rel, n.Tuple)
		}
		for _, p := range n.Premises {
			checkNode(p)
		}
	}
	checkNode(d)
	for _, l := range leaves {
		if l.Rel != "Edge" {
			t.Fatalf("leaf %s%v is not a base Edge fact", l.Rel, l.Tuple)
		}
	}
}

func TestWhyMissingTupleAndDisabled(t *testing.T) {
	e := buildProvEngine()
	if d := e.Why("Path", e.Sym("d"), e.Sym("a")); d != nil {
		t.Fatalf("Why for absent tuple should be nil, got %+v", d)
	}
	if d := e.Why("Nope", e.Sym("a")); d != nil {
		t.Fatal("Why for unknown relation should be nil")
	}
	off := NewEngine()
	off.MustRule("Path(x, y) :- Edge(x, y)")
	off.FactStrings("Edge", "a", "b")
	off.Run()
	if d := off.Why("Path", off.Sym("a"), off.Sym("b")); d != nil {
		t.Fatal("Why with provenance off should be nil")
	}
}

// TestProvenanceSameDatabase: enabling provenance must not change the
// derived database or the engine's public stats.
func TestProvenanceSameDatabase(t *testing.T) {
	off := NewEngine()
	on := NewEngine()
	on.EnableProvenance()
	for _, e := range []*Engine{off, on} {
		e.MustRule("Path(x, y) :- Edge(x, y)")
		e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
		e.FactStrings("Edge", "a", "b")
		e.FactStrings("Edge", "b", "c")
		e.FactStrings("Edge", "b", "a")
		e.Run()
	}
	if off.Count("Path") != on.Count("Path") {
		t.Fatalf("Path counts differ: off=%d on=%d", off.Count("Path"), on.Count("Path"))
	}
	if off.Stats().Derived != on.Stats().Derived {
		t.Fatalf("derived counts differ: off=%d on=%d", off.Stats().Derived, on.Stats().Derived)
	}
	gotOff := off.Query("Path", Wild, Wild)
	gotOn := on.Query("Path", Wild, Wild)
	if !reflect.DeepEqual(gotOff, gotOn) {
		t.Fatalf("databases differ:\n  off %v\n  on  %v", gotOff, gotOn)
	}
}

// TestProvenanceIncrementalRun: rules added after a Run still record
// provenance for what their seeding round derives.
func TestProvenanceIncrementalRun(t *testing.T) {
	e := NewEngine()
	e.EnableProvenance()
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.FactStrings("Edge", "a", "b")
	e.Run()

	e.MustRule("Sym2(y, x) :- Path(x, y)")
	e.FactStrings("Edge", "b", "c")
	e.Run()

	d := e.Why("Sym2", e.Sym("c"), e.Sym("b"))
	if d == nil || d.IsBase() {
		t.Fatalf("Sym2(c,b) should have a derivation, got %+v", d)
	}
	leaves := d.Leaves()
	if len(leaves) != 1 || leaves[0].Rel != "Edge" || leaves[0].Tuple[0] != "b" {
		t.Fatalf("unexpected leaves %+v", leaves)
	}
}

// TestEnableProvenanceBackfill: tuples present before enabling are
// treated as base facts, and later derivations still explain.
func TestEnableProvenanceBackfill(t *testing.T) {
	e := NewEngine()
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.FactStrings("Edge", "a", "b")
	e.Run()

	e.EnableProvenance()
	e.MustRule("Rev(y, x) :- Path(x, y)")
	e.Run()

	if d := e.Why("Path", e.Sym("a"), e.Sym("b")); d == nil || !d.IsBase() {
		t.Fatalf("pre-provenance tuple should read as base fact, got %+v", d)
	}
	d := e.Why("Rev", e.Sym("b"), e.Sym("a"))
	if d == nil || d.IsBase() {
		t.Fatalf("Rev(b,a) should be derived, got %+v", d)
	}
}

func TestWhyTruncation(t *testing.T) {
	e := NewEngine()
	e.EnableProvenance()
	e.MustRule("Path(x, y) :- Edge(x, y)")
	e.MustRule("Path(x, z) :- Path(x, y), Edge(y, z)")
	// A chain far longer than whyMaxDepth.
	for i := 0; i < 40; i++ {
		e.Fact("Edge", e.IntSym('n', i), e.IntSym('n', i+1))
	}
	e.Run()
	d := e.Why("Path", e.IntSym('n', 0), e.IntSym('n', 40))
	if d == nil {
		t.Fatal("no derivation for long chain")
	}
	truncated := false
	var walk func(n *Derivation) int
	walk = func(n *Derivation) int {
		if n.Truncated {
			truncated = true
		}
		depth := 0
		for _, p := range n.Premises {
			if d := walk(p); d > depth {
				depth = d
			}
		}
		return depth + 1
	}
	depth := walk(d)
	if !truncated {
		t.Fatal("long chain should be truncated")
	}
	if depth > whyMaxDepth+2 {
		t.Fatalf("tree depth %d exceeds bound", depth)
	}
}

func TestRuleStats(t *testing.T) {
	e := buildProvEngine()
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
