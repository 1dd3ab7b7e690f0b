// Package datalog implements a small in-memory Datalog engine with
// semi-naive bottom-up evaluation. It is the stand-in for the
// Datalog/bddbddb layer the paper's Chord build runs on: the race
// detector's Racy rule and the async-error families' candidate rules
// are written as Datalog rules over relations extracted from the IR.
//
// Syntax accepted by ParseRule:
//
//	PointsTo(v, h) :- Alloc(v, h)
//	Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)
//	Race(a, b) :- Acc(a, t1), Acc(b, t2), t1 != t2
//
// Identifiers starting with an upper-case letter are predicates; terms
// starting with a lower-case letter are variables, and `_` is a
// wildcard (body only). `x != y` and `x = y` body literals are the
// only builtins. There is no negation.
//
// The engine is an engineered evaluation backend in the spirit of
// bddbddb: tuples live in flat arenas keyed by integer hashes, rules are
// compiled once into dense variable slots, and each semi-naive round
// runs one join per (rule, delta plan) and then merges the results in a
// fixed order, so results, stats and derivation trees are
// deterministic. An Engine is not safe for concurrent use by multiple
// goroutines.
package datalog

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// Sym is an interned constant.
type Sym int32

// maxArity bounds relation arity so per-tuple scratch space can live on
// the stack during evaluation.
const maxArity = 16

// Engine holds the symbol table, relations and rules of one program.
type Engine struct {
	symNames []string
	symTags  []byte // 0 for plain string symbols
	symVals  []int32
	symIdx   map[string]Sym
	intIdx   map[intSymKey]Sym
	rels     map[string]*Relation
	relList  []*Relation
	rules    []*Rule
	compiled []*crule
	// ranRules counts the compiled rules already evaluated to fixpoint
	// by a previous Run; rules beyond it get a seeding round over the
	// full database on the next Run.
	ranRules int
	stats    Stats
	// provOn records derivation provenance per tuple (see provenance.go).
	provOn bool
	// Per-compiled-rule evaluation stats, indexed by crule.idx.
	ruleDerived []int
	ruleRounds  []int
	ruleTime    []time.Duration
}

type intSymKey struct {
	tag byte
	val int32
}

// Stats counts the work one engine did, for the telemetry layer: how
// many base facts were asserted, how many tuples the rules derived, and
// how many semi-naive iterations Run took to reach fixpoint.
type Stats struct {
	Facts      int // base tuples asserted via Fact/FactStrings
	Derived    int // tuples emitted by rule evaluation
	Iterations int // Run fixpoint rounds
}

// Stats returns the engine's work counters.
func (e *Engine) Stats() Stats { return e.stats }

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		symIdx: make(map[string]Sym),
		rels:   make(map[string]*Relation),
	}
}

// Sym interns a string constant.
func (e *Engine) Sym(s string) Sym { return e.intern(s, 0, 0) }

func (e *Engine) intern(s string, tag byte, val int32) Sym {
	if i, ok := e.symIdx[s]; ok {
		if tag != 0 && e.symTags[i] == 0 {
			e.symTags[i] = tag
			e.symVals[i] = val
		}
		return i
	}
	i := Sym(len(e.symNames))
	e.symNames = append(e.symNames, s)
	e.symTags = append(e.symTags, tag)
	e.symVals = append(e.symVals, val)
	e.symIdx[s] = i
	return i
}

// IntSym interns the symbol a single-letter tag plus integer would
// produce (e.g. IntSym('h', 3) ≡ Sym("h3")) without formatting a string
// on the hot path, and records the (tag, value) pair so IntSymVal can
// decode it without parsing.
func (e *Engine) IntSym(tag byte, val int) Sym {
	k := intSymKey{tag, int32(val)}
	if i, ok := e.intIdx[k]; ok {
		return i
	}
	i := e.intern(string(tag)+strconv.Itoa(val), tag, int32(val))
	if e.intIdx == nil {
		e.intIdx = make(map[intSymKey]Sym)
	}
	e.intIdx[k] = i
	return i
}

// IntSymVal decodes a symbol interned via IntSym (or a plain Sym whose
// name was later claimed by IntSym). ok is false for plain symbols.
func (e *Engine) IntSymVal(s Sym) (tag byte, val int, ok bool) {
	if int(s) < 0 || int(s) >= len(e.symTags) || e.symTags[s] == 0 {
		return 0, 0, false
	}
	return e.symTags[s], int(e.symVals[s]), true
}

// SymName returns the string for an interned symbol.
func (e *Engine) SymName(s Sym) string {
	if int(s) < 0 || int(s) >= len(e.symNames) {
		return fmt.Sprintf("?sym(%d)", int(s))
	}
	return e.symNames[s]
}

// Relation declares (or returns) a relation with the given arity.
func (e *Engine) Relation(name string, arity int) *Relation {
	if r, ok := e.rels[name]; ok {
		if r.arity != arity {
			panic(fmt.Sprintf("datalog: relation %s redeclared with arity %d (was %d)", name, arity, r.arity))
		}
		return r
	}
	if arity > maxArity {
		panic(fmt.Sprintf("datalog: relation %s arity %d exceeds max %d", name, arity, maxArity))
	}
	r := &Relation{name: name, arity: arity, id: len(e.relList), provOn: e.provOn}
	e.rels[name] = r
	e.relList = append(e.relList, r)
	return r
}

// Fact asserts a tuple into a relation, declaring it on first use.
func (e *Engine) Fact(rel string, terms ...Sym) {
	r := e.Relation(rel, len(terms))
	if r.insert(terms) {
		e.stats.Facts++
	}
}

// FactStrings asserts a tuple of string constants.
func (e *Engine) FactStrings(rel string, terms ...string) {
	syms := make([]Sym, len(terms))
	for i, t := range terms {
		syms[i] = e.Sym(t)
	}
	e.Fact(rel, syms...)
}

// MustRule parses and installs a rule, panicking on syntax errors (rules
// are compiled into the analyses, so a bad rule is a programming error).
func (e *Engine) MustRule(src string) {
	r, err := ParseRule(src)
	if err != nil {
		panic(err)
	}
	e.AddRule(r)
}

// AddRule installs a parsed rule, declaring any relations it mentions.
func (e *Engine) AddRule(r *Rule) {
	e.Relation(r.Head.Pred, len(r.Head.Terms))
	for _, l := range r.Body {
		if l.Builtin == BuiltinNone {
			e.Relation(l.Pred, len(l.Terms))
		}
	}
	e.rules = append(e.rules, r)
}

// Count returns the number of tuples in a relation (0 if undeclared).
func (e *Engine) Count(rel string) int {
	if r, ok := e.rels[rel]; ok {
		return r.rows
	}
	return 0
}

// Has reports whether the exact tuple is present.
func (e *Engine) Has(rel string, terms ...Sym) bool {
	r, ok := e.rels[rel]
	if !ok || len(terms) != r.arity {
		return false
	}
	return r.has(terms)
}

// Query returns all tuples of rel matching the pattern, where a negative
// term is a wildcard. Results are sorted for determinism. Patterns with
// at least one constant column are answered through the column index
// instead of a full scan.
func (e *Engine) Query(rel string, pattern ...Sym) [][]Sym {
	r, ok := e.rels[rel]
	if !ok {
		return nil
	}
	col := -1
	for i, p := range pattern {
		if p >= 0 && i < r.arity {
			col = i
			break
		}
	}
	var out [][]Sym
	if col >= 0 {
		r.buildIndex(col)
		for _, id := range r.index[col][pattern[col]] {
			t := r.row(int(id))
			if matchPattern(t, pattern) {
				out = append(out, t)
			}
		}
	} else {
		for id := 0; id < r.rows; id++ {
			t := r.row(id)
			if matchPattern(t, pattern) {
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessTuple(out[i], out[j]) })
	return out
}

func matchPattern(t []Sym, pattern []Sym) bool {
	for i, p := range pattern {
		if p >= 0 && t[i] != p {
			return false
		}
	}
	return true
}

// Wild is the wildcard pattern term for Query.
const Wild = Sym(-1)

// Relation is a set of same-arity tuples stored row-major in a flat
// arena, deduplicated by an open-addressing table of integer hashes,
// with per-column row-ID indexes built on demand for the engine's joins.
type Relation struct {
	name  string
	arity int
	// id is the relation's index in the engine's relList; it addresses
	// the relation inside packed provenance tuple IDs.
	id int
	// data holds rows back to back (row i at data[i*arity:]).
	data []Sym
	rows int
	// table is open-addressing: entries are rowID+1, 0 = empty.
	table []int32
	mask  uint32
	// index[col][sym] lists row IDs whose col-th term is sym; built on
	// first use and maintained by insert.
	index map[int]map[Sym][]int32
	// deltaLo/deltaHi mark the current semi-naive delta as a row range.
	deltaLo, deltaHi int
	// evalMark is the row count at the end of the last Run: rows below
	// it have reached fixpoint under every rule Run has already seen.
	evalMark int
	// provOn mirrors Engine.provOn; when set, prov holds one cell per
	// row recording how the tuple was first derived.
	provOn bool
	prov   []provCell
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the tuple count.
func (r *Relation) Len() int { return r.rows }

func (r *Relation) row(i int) []Sym {
	base := i * r.arity
	return r.data[base : base+r.arity]
}

func hashTuple(t []Sym) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range t {
		h ^= uint64(uint32(s))
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (r *Relation) equalRow(id int, t []Sym) bool {
	row := r.row(id)
	for i, s := range t {
		if row[i] != s {
			return false
		}
	}
	return true
}

// insert adds t if absent, returning whether it was new.
func (r *Relation) insert(t []Sym) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("datalog: %s expects arity %d, got %d", r.name, r.arity, len(t)))
	}
	if r.arity == 0 {
		if r.rows > 0 {
			return false
		}
		r.rows = 1
		if r.provOn {
			r.prov = append(r.prov, provCell{rule: baseFact})
		}
		return true
	}
	if len(r.table) == 0 || uint32(r.rows+1)*4 >= uint32(len(r.table))*3 {
		r.grow()
	}
	i := uint32(hashTuple(t)) & r.mask
	for {
		id := r.table[i]
		if id == 0 {
			r.data = append(r.data, t...)
			r.table[i] = int32(r.rows) + 1
			for col, idx := range r.index {
				idx[t[col]] = append(idx[t[col]], int32(r.rows))
			}
			r.rows++
			if r.provOn {
				// Every insert starts as a base fact; merge overwrites
				// the cell when the tuple was derived by a rule.
				r.prov = append(r.prov, provCell{rule: baseFact})
			}
			return true
		}
		if r.equalRow(int(id-1), t) {
			return false
		}
		i = (i + 1) & r.mask
	}
}

func (r *Relation) has(t []Sym) bool {
	if r.arity == 0 {
		return r.rows > 0
	}
	if len(r.table) == 0 {
		return false
	}
	i := uint32(hashTuple(t)) & r.mask
	for {
		id := r.table[i]
		if id == 0 {
			return false
		}
		if r.equalRow(int(id-1), t) {
			return true
		}
		i = (i + 1) & r.mask
	}
}

// grow (re)builds the open-addressing table at under 75% load.
func (r *Relation) grow() {
	n := 2 * len(r.table)
	if n < 16 {
		n = 16
	}
	for n*3 <= (r.rows+1)*4 {
		n *= 2
	}
	r.table = make([]int32, n)
	r.mask = uint32(n - 1)
	for id := 0; id < r.rows; id++ {
		i := uint32(hashTuple(r.row(id))) & r.mask
		for r.table[i] != 0 {
			i = (i + 1) & r.mask
		}
		r.table[i] = int32(id) + 1
	}
}

// buildIndex materializes the column index for col if missing.
func (r *Relation) buildIndex(col int) {
	if col < 0 || col >= r.arity {
		return
	}
	if _, ok := r.index[col]; ok {
		return
	}
	if r.index == nil {
		r.index = make(map[int]map[Sym][]int32)
	}
	m := make(map[Sym][]int32, r.rows)
	for id := 0; id < r.rows; id++ {
		v := r.row(id)[col]
		m[v] = append(m[v], int32(id))
	}
	r.index[col] = m
}

func lessTuple(a, b []Sym) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
