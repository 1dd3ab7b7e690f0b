package datalog

import (
	"fmt"
	"maps"
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

// program is a buildable rule-and-fact set, applied to fresh engines so
// evaluation modes can be compared on identical inputs.
type program struct {
	rules []string
	facts func(e *Engine)
}

func (p program) build(provenance bool) *Engine {
	e := NewEngine()
	if provenance {
		e.EnableProvenance()
	}
	p.facts(e)
	for _, r := range p.rules {
		e.MustRule(r)
	}
	e.Run()
	return e
}

// requireProvenanceTransparent builds p with provenance off and on and
// requires the same fixpoint, the same engine and per-rule stats, and a
// checkable derivation for every derived tuple: each node of its Why
// tree is a tuple Has confirms, each derived node's premises derive it
// under its rule, and the tree bottoms out in asserted facts (or a node
// Why's size bound cut off).
func requireProvenanceTransparent(t *testing.T, p program) {
	t.Helper()
	off, on := p.build(false), p.build(true)
	if got, want := dump(on), dump(off); !reflect.DeepEqual(got, want) {
		t.Fatalf("provenance-on fixpoint differs from provenance-off:\n got %v\nwant %v", got, want)
	}
	if got, want := on.Stats(), off.Stats(); got != want {
		t.Fatalf("stats differ: provenance on %+v, off %+v", got, want)
	}
	offRules, onRules := off.RuleStats(), on.RuleStats()
	for i := range offRules {
		if onRules[i].Derived != offRules[i].Derived || onRules[i].Rounds != offRules[i].Rounds {
			t.Fatalf("rule %q: provenance on derived %d in %d rounds, off %d in %d",
				offRules[i].Rule, onRules[i].Derived, onRules[i].Rounds, offRules[i].Derived, offRules[i].Rounds)
		}
	}

	facts := NewEngine()
	p.facts(facts)
	asserted := dumpNames(facts)
	isAsserted := func(rel string, tuple []string) bool {
		key := strings.Join(tuple, "|")
		i := sort.SearchStrings(asserted[rel], key)
		return i < len(asserted[rel]) && asserted[rel][i] == key
	}
	var check func(n *Derivation)
	check = func(n *Derivation) {
		syms := make([]Sym, len(n.Tuple))
		for i, s := range n.Tuple {
			syms[i] = on.Sym(s)
		}
		if !on.Has(n.Rel, syms...) {
			t.Fatalf("derivation cites %s%v, which is not in the database", n.Rel, n.Tuple)
		}
		switch {
		case n.IsBase():
			if !isAsserted(n.Rel, n.Tuple) {
				t.Fatalf("base leaf %s%v was never asserted", n.Rel, n.Tuple)
			}
		case !n.Truncated && !derives(t, n):
			t.Fatalf("premises %v do not derive %s%v under rule %q", n.Premises, n.Rel, n.Tuple, n.Rule)
		}
		for _, pr := range n.Premises {
			check(pr)
		}
	}
	for rel, rows := range dump(on) {
		for _, row := range rows {
			d := on.Why(rel, row...)
			if d == nil {
				t.Fatalf("no derivation for %s%v", rel, row)
			}
			if !isAsserted(rel, d.Tuple) && d.IsBase() {
				t.Fatalf("derived tuple %s%v reads as a base fact", rel, d.Tuple)
			}
			check(d)
		}
	}
}

// derives reports whether a derived node's premises, matched to its
// rule's positive body literals in some order, bind the rule's variables
// consistently, pass its builtins, and yield the node's tuple.
func derives(t *testing.T, n *Derivation) bool {
	r, err := ParseRule(n.Rule)
	if err != nil {
		t.Fatal(err)
	}
	var pos []Literal
	for _, l := range r.Body {
		if l.Builtin == BuiltinNone {
			pos = append(pos, l)
		}
	}
	if len(pos) != len(n.Premises) {
		return false
	}
	used := make([]bool, len(n.Premises))
	var try func(i int, env map[string]string) bool
	try = func(i int, env map[string]string) bool {
		if i == len(pos) {
			return builtinsHold(r, env) && bindTerms(r.Head.Terms, n.Tuple, env)
		}
		for j, p := range n.Premises {
			if used[j] || p.Rel != pos[i].Pred {
				continue
			}
			next := maps.Clone(env)
			if bindTerms(pos[i].Terms, p.Tuple, next) {
				used[j] = true
				if try(i+1, next) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	return try(0, map[string]string{})
}

// bindTerms unifies terms with tuple under env, extending env.
func bindTerms(terms []Term, tuple []string, env map[string]string) bool {
	if len(terms) != len(tuple) {
		return false
	}
	for i, term := range terms {
		if term.Var == "_" {
			continue
		}
		if v, ok := env[term.Var]; ok && v != tuple[i] {
			return false
		}
		env[term.Var] = tuple[i]
	}
	return true
}

// builtinsHold binds r's `=` chains in env and checks every builtin.
func builtinsHold(r *Rule, env map[string]string) bool {
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Builtin != BuiltinEq {
				continue
			}
			a, b := l.Terms[0].Var, l.Terms[1].Var
			va, aok := env[a]
			vb, bok := env[b]
			switch {
			case aok && !bok && b != "_":
				env[b], changed = va, true
			case bok && !aok && a != "_":
				env[a], changed = vb, true
			}
		}
	}
	for _, l := range r.Body {
		if l.Builtin == BuiltinNone {
			continue
		}
		va, vb := env[l.Terms[0].Var], env[l.Terms[1].Var]
		if l.Builtin == BuiltinNeq && va == vb {
			return false
		}
		if l.Builtin == BuiltinEq && l.Terms[0].Var != "_" && l.Terms[1].Var != "_" && va != vb {
			return false
		}
	}
	return true
}

// TestProvenanceMatchesPlainFixed runs a diverse fixed rule set —
// recursion, multi-way joins, builtins, wildcards, self-joins — with
// provenance off and on.
func TestProvenanceMatchesPlainFixed(t *testing.T) {
	p := program{
		rules: []string{
			"Path(x, y) :- Edge(x, y)",
			"Path(x, z) :- Path(x, y), Edge(y, z)",
			"Sym2(x, y) :- Edge(x, y), Edge(y, x)",
			"Tri(x, y, z) :- Edge(x, y), Edge(y, z), Edge(z, x), x != y",
			"Eq2(x, y) :- Edge(x, _), y = x",
			"Pair(x, y) :- Node(x), Node(y), x != y",
			"Node(x) :- Edge(x, _)",
			"Node(y) :- Edge(_, y)",
		},
		facts: func(e *Engine) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 400; i++ {
				a, b := rng.Intn(40), rng.Intn(40)
				e.Fact("Edge", e.IntSym('n', a), e.IntSym('n', b))
			}
		},
	}
	requireProvenanceTransparent(t, p)
}

// TestProvenanceMatchesPlainRandom generates random small rule programs
// over random fact sets — rule heads may also hold asserted facts — and
// runs each with provenance off and on.
func TestProvenanceMatchesPlainRandom(t *testing.T) {
	preds := []string{"A", "B", "C", "D"}
	vars := []string{"x", "y", "z"}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 131))
		var rules []string
		for ri := 0; ri < 2+rng.Intn(4); ri++ {
			head := preds[rng.Intn(len(preds))]
			hv := []string{vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]}
			var body []string
			used := map[string]bool{}
			nBody := 1 + rng.Intn(3)
			for bi := 0; bi < nBody; bi++ {
				p := preds[rng.Intn(len(preds))]
				v1, v2 := vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]
				body = append(body, fmt.Sprintf("%s(%s, %s)", p, v1, v2))
				used[v1], used[v2] = true, true
			}
			// Ensure head vars are bound: substitute unbound ones.
			for i, v := range hv {
				if !used[v] {
					for u := range used {
						hv[i] = u
						break
					}
				}
			}
			if rng.Intn(3) == 0 && used["x"] && used["y"] {
				body = append(body, "x != y")
			}
			rules = append(rules, fmt.Sprintf("%s(%s, %s) :- %s", head, hv[0], hv[1], strings.Join(body, ", ")))
		}
		seed := rng.Int63()
		p := program{
			rules: rules,
			facts: func(e *Engine) {
				frng := rand.New(rand.NewSource(seed))
				for i := 0; i < 120; i++ {
					e.Fact(preds[frng.Intn(len(preds))], e.IntSym('s', frng.Intn(12)), e.IntSym('s', frng.Intn(12)))
				}
			},
		}
		requireProvenanceTransparent(t, p)
	}
}

// TestDeltaRunMatchesColdRun checks incremental Run — the path the uaf
// and async families take on the shared engine: load facts and rules,
// Run, then assert more facts plus late rules that read both old and new
// rows, and Run again. The result must match one cold Run of the final
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
