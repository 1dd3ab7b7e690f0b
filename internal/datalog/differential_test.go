package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// dump renders every relation of an engine as sorted tuple lists — the
// full externally observable fixpoint.
func dump(e *Engine) map[string][][]Sym {
	out := make(map[string][][]Sym)
	for name, r := range e.rels {
		pattern := make([]Sym, r.arity)
		for i := range pattern {
			pattern[i] = Wild
		}
		out[name] = e.Query(name, pattern...)
	}
	return out
}

// dumpNames is dump with symbols rendered by name, so engines that
// interned the same constants in a different order compare equal.
func dumpNames(e *Engine) map[string][]string {
	out := make(map[string][]string)
	for name, rows := range dump(e) {
		keys := make([]string, 0, len(rows))
		for _, row := range rows {
			parts := make([]string, len(row))
			for i, s := range row {
				parts[i] = e.SymName(s)
			}
			keys = append(keys, strings.Join(parts, "|"))
		}
		sort.Strings(keys)
		out[name] = keys
	}
	return out
}

// TestDeltaRunMatchesColdRun checks incremental Run: load facts and
// rules, Run, then assert more facts plus late rules that read both old
// and new rows, and Run again. The result must match one cold Run of the final
// program, over randomized reach-shaped programs.
func TestDeltaRunMatchesColdRun(t *testing.T) {
	early := []string{
		"Reach(t, h) :- Root(t, h)",
		"Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)",
		"Reach(t, h) :- Touches(t), StaticPT(h)",
		"StaticPT(h2) :- StaticPT(h1), HeapPT(h1, f, h2)",
	}
	late := []string{
		"Esc(h) :- Reach(t1, h), Reach(t2, h), t1 != t2",
		"Owned(t, h) :- Root(t, h), Esc(h)",
	}
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nThreads := 2 + rng.Intn(6)
			nObjs := 4 + rng.Intn(20)

			// Each batch of facts is a list of closures over an engine, so
			// the cold engine can replay both batches in one go.
			type batch []func(e *Engine)
			gen := func() batch {
				var b batch
				for i := rng.Intn(3 * nThreads); i > 0; i-- {
					th, h := rng.Intn(nThreads), rng.Intn(nObjs)
					b = append(b, func(e *Engine) { e.Fact("Root", e.IntSym('t', th), e.IntSym('h', h)) })
				}
				for i := rng.Intn(2 * nObjs); i > 0; i-- {
					h1, f, h2 := rng.Intn(nObjs), rng.Intn(3), rng.Intn(nObjs)
					b = append(b, func(e *Engine) {
						e.Fact("HeapPT", e.IntSym('h', h1), e.IntSym('f', f), e.IntSym('h', h2))
					})
				}
				for i := rng.Intn(3); i > 0; i-- {
					h := rng.Intn(nObjs)
					b = append(b, func(e *Engine) { e.Fact("StaticPT", e.IntSym('h', h)) })
				}
				for i := rng.Intn(nThreads); i > 0; i-- {
					th := rng.Intn(nThreads)
					b = append(b, func(e *Engine) { e.Fact("Touches", e.IntSym('t', th)) })
				}
				return b
			}
			first, second := gen(), gen()
			load := func(e *Engine, bs ...batch) {
				for _, b := range bs {
					for _, f := range b {
						f(e)
					}
				}
			}
			install := func(e *Engine, rules []string) {
				for _, r := range rules {
					e.MustRule(r)
				}
			}

			inc := NewEngine()
			load(inc, first)
			install(inc, early)
			inc.Run()
			load(inc, second)
			install(inc, late)
			inc.Run()

			cold := NewEngine()
			load(cold, first, second)
			install(cold, early)
			install(cold, late)
			cold.Run()

			want, got := dumpNames(cold), dumpNames(inc)
			if len(got) != len(want) {
				t.Fatalf("incremental run declares %d relations, cold run %d", len(got), len(want))
			}
			for rel := range want {
				if !reflect.DeepEqual(got[rel], want[rel]) {
					t.Fatalf("%s: incremental run %v, cold run %v", rel, got[rel], want[rel])
				}
			}
		})
	}
}

// TestIntSymRoundTrip pins the IntSym fast path to the Sym("h3")-style
// names the analyses previously formatted by hand.
func TestIntSymRoundTrip(t *testing.T) {
	e := NewEngine()
	s := e.IntSym('h', 42)
	if e.SymName(s) != "h42" {
		t.Fatalf("SymName = %q, want h42", e.SymName(s))
	}
	if s2 := e.Sym("h42"); s2 != s {
		t.Fatalf("Sym(\"h42\") = %d, want %d", s2, s)
	}
	tag, val, ok := e.IntSymVal(s)
	if !ok || tag != 'h' || val != 42 {
		t.Fatalf("IntSymVal = (%c, %d, %v), want (h, 42, true)", tag, val, ok)
	}
	if _, _, ok := e.IntSymVal(e.Sym("plain")); ok {
		t.Error("plain symbol must not decode as an IntSym")
	}
}

// TestQueryUsesIndex pins the constant-pattern fast path: a query with a
// bound column must return the same rows as a full scan.
func TestQueryUsesIndex(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		e.Fact("R", e.IntSym('a', rng.Intn(10)), e.IntSym('b', rng.Intn(10)), e.IntSym('c', rng.Intn(10)))
	}
	for a := 0; a < 10; a++ {
		want := 0
		for _, row := range e.Query("R", Wild, Wild, Wild) {
			if row[0] == e.IntSym('a', a) {
				want++
			}
		}
		got := e.Query("R", e.IntSym('a', a), Wild, Wild)
		if len(got) != want {
			t.Fatalf("indexed query for a%d returned %d rows, want %d", a, len(got), want)
		}
		for _, row := range got {
			if row[0] != e.IntSym('a', a) {
				t.Fatalf("indexed query returned non-matching row %v", row)
			}
		}
	}
}
