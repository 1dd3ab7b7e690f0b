package datalog

import (
	"fmt"
	"time"
)

// Provenance: opt-in derivation recording. When enabled, every tuple
// carries a provCell naming the compiled rule that first produced it
// and the packed (relation, row) IDs of that derivation's body
// premises; base facts carry a sentinel. Engine.Why walks the cells
// into a bounded derivation tree.
//
// Recording rides on the one join (eval.go) through a recorder that is
// nil when provenance is off. Premise rows are always rows visible at
// round start — inserted strictly before the derived tuple — so the
// provenance graph is acyclic by construction, and merge resolves
// "first derivation" in item order, so the recorded trees are
// deterministic.

// baseFact marks a tuple asserted directly rather than derived.
const baseFact = int32(-1)

// provCell records how one tuple entered its relation.
type provCell struct {
	rule     int32 // index into Engine.compiled; baseFact for asserted tuples
	premises []int64
}

// packTID packs a (relation id, row id) pair into one premise ID.
func packTID(relID, row int) int64 { return int64(relID)<<32 | int64(uint32(row)) }

func unpackTID(id int64) (relID, row int) { return int(id >> 32), int(uint32(id)) }

// recorder is the join's provenance side: prem is the stack of packed
// tuple IDs of the positive literals matched so far, and cells holds one
// cell per emitted head tuple, aligned with the round's output buffer.
// Every method is a no-op on a nil recorder, which is how the join runs
// with provenance off.
type recorder struct {
	prem  []int64
	cells []provCell
}

func (r *recorder) push(relID, row int) {
	if r != nil {
		r.prem = append(r.prem, packTID(relID, row))
	}
}

func (r *recorder) pop() {
	if r != nil {
		r.prem = r.prem[:len(r.prem)-1]
	}
}

// emit records the current premise stack as rule's derivation of the
// tuple just appended to the output buffer.
func (r *recorder) emit(rule int) {
	if r != nil {
		r.cells = append(r.cells, provCell{rule: int32(rule), premises: append([]int64(nil), r.prem...)})
	}
}

// reset drops the previous round's cells.
func (r *recorder) reset() {
	if r != nil {
		r.cells = r.cells[:0]
	}
}

// EnableProvenance switches the engine into provenance-recording mode.
// Tuples already present (asserted or derived by an earlier Run) are
// backfilled as base facts; call it before asserting facts and running
// rules to get full derivation trees. Enabling is one-way and costs
// one cell per tuple plus a premise slice per derived tuple.
func (e *Engine) EnableProvenance() {
	if e.provOn {
		return
	}
	e.provOn = true
	for _, r := range e.relList {
		r.provOn = true
		for len(r.prov) < r.rows {
			r.prov = append(r.prov, provCell{rule: baseFact})
		}
	}
}

// ProvenanceEnabled reports whether EnableProvenance was called.
func (e *Engine) ProvenanceEnabled() bool { return e.provOn }

// Derivation is one node of a derivation tree: a tuple, the rule that
// first derived it (empty for base facts), and the premises of that
// derivation. Trees are bounded in depth and node count; a node whose
// expansion was cut off is marked Truncated.
type Derivation struct {
	Rel       string        `json:"rel"`
	Tuple     []string      `json:"tuple,omitempty"`
	Rule      string        `json:"rule,omitempty"`
	Premises  []*Derivation `json:"premises,omitempty"`
	Truncated bool          `json:"truncated,omitempty"`
}

// IsBase reports whether the node is an asserted fact.
func (d *Derivation) IsBase() bool { return d.Rule == "" }

// Leaves returns the base-fact leaves of the tree in visit order.
func (d *Derivation) Leaves() []*Derivation {
	var out []*Derivation
	var walk func(n *Derivation)
	walk = func(n *Derivation) {
		if n.IsBase() {
			out = append(out, n)
			return
		}
		for _, p := range n.Premises {
			walk(p)
		}
	}
	walk(d)
	return out
}

// whyMaxDepth / whyMaxNodes bound Why's derivation trees: transitive
// rules can have derivation chains as long as the database, and a
// human-readable explanation only needs the first few layers.
const (
	whyMaxDepth = 12
	whyMaxNodes = 512
)

// Why returns the bounded derivation tree of the given tuple, or nil
// when provenance is off or the tuple is not in the database.
func (e *Engine) Why(rel string, terms ...Sym) *Derivation {
	if !e.provOn {
		return nil
	}
	r, ok := e.rels[rel]
	if !ok || len(terms) != r.arity {
		return nil
	}
	row := r.lookup(terms)
	if row < 0 {
		return nil
	}
	budget := whyMaxNodes
	return e.explain(r, row, whyMaxDepth, &budget)
}

func (e *Engine) explain(r *Relation, row, depth int, budget *int) *Derivation {
	*budget--
	d := &Derivation{Rel: r.name}
	t := r.row(row)
	d.Tuple = make([]string, len(t))
	for i, s := range t {
		d.Tuple[i] = e.SymName(s)
	}
	if row >= len(r.prov) {
		return d // pre-provenance row: nothing recorded, treat as base
	}
	c := r.prov[row]
	if c.rule == baseFact {
		return d
	}
	if int(c.rule) < len(e.compiled) {
		d.Rule = e.compiled[c.rule].src
	} else {
		d.Rule = fmt.Sprintf("rule(%d)", c.rule)
	}
	if depth <= 0 {
		d.Truncated = true
		return d
	}
	for _, p := range c.premises {
		if *budget <= 0 {
			d.Truncated = true
			break
		}
		relID, prow := unpackTID(p)
		if relID < 0 || relID >= len(e.relList) {
			continue
		}
		pr := e.relList[relID]
		if prow >= pr.rows {
			continue
		}
		d.Premises = append(d.Premises, e.explain(pr, prow, depth-1, budget))
	}
	return d
}

// lookup returns the row ID of the exact tuple, or -1.
func (r *Relation) lookup(t []Sym) int {
	if r.arity == 0 {
		if r.rows > 0 {
			return 0
		}
		return -1
	}
	if len(r.table) == 0 {
		return -1
	}
	i := uint32(hashTuple(t)) & r.mask
	for {
		id := r.table[i]
		if id == 0 {
			return -1
		}
		if r.equalRow(int(id-1), t) {
			return int(id - 1)
		}
		i = (i + 1) & r.mask
	}
}

// RuleStat is one rule's cumulative evaluation cost across every Run
// of the engine.
type RuleStat struct {
	Rule    string        // rule source text
	Head    string        // head relation name
	Derived int           // new tuples this rule inserted
	Rounds  int           // semi-naive rounds the rule had work in
	Time    time.Duration // wall time spent evaluating its work items
}

// RuleStats returns per-rule evaluation stats in rule-definition order.
// Available whether or not provenance is enabled.
func (e *Engine) RuleStats() []RuleStat {
	out := make([]RuleStat, 0, len(e.compiled))
	for i, cr := range e.compiled {
		out = append(out, RuleStat{
			Rule:    cr.src,
			Head:    cr.headRel.name,
			Derived: e.ruleDerived[i],
			Rounds:  e.ruleRounds[i],
			Time:    e.ruleTime[i],
		})
	}
	return out
}
