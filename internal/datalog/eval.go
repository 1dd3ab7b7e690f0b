package datalog

import "time"

// Semi-naive evaluation. Each round snapshots every relation's new rows
// as a delta range and evaluates one item per (rule, delta plan) over
// that whole range against the relations as they stood at round start;
// it then inserts the emitted tuples into the head relations in item
// order. Joins bind into a reusable flat environment, so the per-tuple
// hot path performs no allocation.

// unboundSym marks an empty environment slot. Interned symbols are
// always >= 0.
const unboundSym = Sym(-1)

// item is one (rule, plan) unit of a round: its emitted tuples end at
// offset end of the round's output buffer.
type item struct {
	cr  *crule
	end int
}

// scratch is the evaluation state one Run reuses across its rounds.
type scratch struct {
	env []Sym
	// out holds the round's emitted head tuples back to back, item after
	// item; start is where the current item's tuples begin.
	out   []Sym
	start int
	items []item
}

func newScratch(e *Engine) *scratch {
	n := 0
	for _, cr := range e.compiled {
		if cr.nvars > n {
			n = cr.nvars
		}
	}
	env := make([]Sym, n)
	for i := range env {
		env[i] = unboundSym
	}
	return &scratch{env: env}
}

// Run evaluates all rules to fixpoint using semi-naive iteration.
//
// Run is incremental across calls on one engine: the first call
// evaluates everything, and a later call only re-derives what changed —
// rules added since the previous Run get one seeding round over the
// whole existing database, and every rule then iterates over the rows
// appended since the previous fixpoint (new base facts plus what the
// seeding round derived). A Run with no new rules and no new facts is a
// no-op. This is what lets detectors layer rule families onto one
// shared engine without re-paying the earlier families' joins.
func (e *Engine) Run() {
	e.compile()

	// Materialize every index the join plans probe; the join reads them
	// directly, and insert keeps them current.
	for _, cr := range e.compiled {
		for pi := range cr.plans {
			for li := range cr.plans[pi].body {
				if l := &cr.plans[pi].body[li]; l.rel != nil && l.lookupCol >= 0 {
					l.rel.buildIndex(l.lookupCol)
				}
			}
		}
	}
	defer func() {
		for _, r := range e.relList {
			r.evalMark = r.rows
		}
		e.ranRules = len(e.compiled)
	}()
	sc := newScratch(e)

	if e.ranRules == 0 {
		// First evaluation: the first delta is everything currently in
		// each relation.
		for _, r := range e.relList {
			r.deltaLo, r.deltaHi = 0, r.rows
		}
		e.fixpoint(sc)
		return
	}

	// Incremental re-run. New rules have never seen the database: give
	// them one round where the delta is every existing row. Their
	// derivations land above each relation's evalMark, so the fixpoint
	// below picks them up.
	if fresh := e.compiled[e.ranRules:]; len(fresh) > 0 {
		for _, r := range e.relList {
			r.deltaLo, r.deltaHi = 0, r.rows
		}
		if e.evalRound(sc, fresh) {
			e.stats.Iterations++
			e.stats.Derived += e.merge(sc)
		}
	}
	// Old rules already reached fixpoint over rows below evalMark; only
	// the appended rows can produce new joins (each delta plan probes
	// the full relations for its other literals).
	for _, r := range e.relList {
		r.deltaLo, r.deltaHi = r.evalMark, r.rows
	}
	e.fixpoint(sc)
}

// fixpoint iterates every rule's delta plans from the currently seeded
// per-relation deltas until no relation grows.
func (e *Engine) fixpoint(sc *scratch) {
	for {
		e.stats.Iterations++
		if !e.evalRound(sc, e.compiled) {
			return
		}

		// Merge: new rows become the next delta.
		for _, r := range e.relList {
			r.deltaLo = r.rows
		}
		e.stats.Derived += e.merge(sc)
		grew := false
		for _, r := range e.relList {
			r.deltaHi = r.rows
			if r.deltaHi > r.deltaLo {
				grew = true
			}
		}
		if !grew {
			return
		}
	}
}

// evalRound evaluates one item per (rule, plan) whose delta is
// non-empty, collecting the emitted tuples in sc; nothing is inserted
// until merge, so every item joins against the round-start relations.
// It reports whether any item ran.
func (e *Engine) evalRound(sc *scratch, rules []*crule) bool {
	sc.out, sc.items = sc.out[:0], sc.items[:0]
	for _, cr := range rules {
		fired := false
		for pi := range cr.plans {
			p := &cr.plans[pi]
			d := p.delta.rel
			if d.deltaHi <= d.deltaLo {
				continue
			}
			fired = true
			start := time.Now()
			sc.start = len(sc.out)
			for rowID := d.deltaLo; rowID < d.deltaHi; rowID++ {
				sc.joinRow(cr, p, -1, &p.delta, rowID)
			}
			sc.items = append(sc.items, item{cr: cr, end: len(sc.out)})
			e.ruleTime[cr.idx] += time.Since(start)
		}
		if fired {
			e.ruleRounds[cr.idx]++
		}
	}
	return len(sc.items) > 0
}

// merge inserts the round's emitted tuples into their head relations in
// item order and returns the number of new tuples.
func (e *Engine) merge(sc *scratch) int {
	derived, off := 0, 0
	for _, it := range sc.items {
		r := it.cr.headRel
		// An arity-0 head leaves a one-symbol marker.
		width := r.arity
		if width == 0 {
			width = 1
		}
		itemNew := 0
		for ; off < it.end; off += width {
			if r.insert(sc.out[off : off+r.arity]) {
				itemNew++
			}
		}
		e.ruleDerived[it.cr.idx] += itemNew
		derived += itemNew
	}
	return derived
}

// joinBody extends the environment over plan.body[i:], emitting the head
// tuple when the body is exhausted.
func (sc *scratch) joinBody(cr *crule, p *cplan, i int) {
	if i == len(p.body) {
		sc.emitHead(cr)
		return
	}
	env := sc.env
	l := &p.body[i]
	switch l.builtin {
	case BuiltinNeq:
		a, b := termVal(&l.terms[0], env), termVal(&l.terms[1], env)
		if a != b {
			sc.joinBody(cr, p, i+1)
		}
		return
	case BuiltinEq:
		ta, tb := &l.terms[0], &l.terms[1]
		av, abound := termBound(ta, env)
		bv, bbound := termBound(tb, env)
		switch {
		case abound && bbound:
			if av == bv {
				sc.joinBody(cr, p, i+1)
			}
		case abound:
			if tb.slot < 0 { // binding a wildcard is a no-op
				sc.joinBody(cr, p, i+1)
				return
			}
			env[tb.slot] = av
			sc.joinBody(cr, p, i+1)
			env[tb.slot] = unboundSym
		case bbound:
			if ta.slot < 0 {
				sc.joinBody(cr, p, i+1)
				return
			}
			env[ta.slot] = bv
			sc.joinBody(cr, p, i+1)
			env[ta.slot] = unboundSym
		}
		return
	}
	r := l.rel
	if r.arity == 0 {
		if r.rows > 0 {
			sc.joinBody(cr, p, i+1)
		}
		return
	}
	if l.lookupCol >= 0 {
		kt := &l.terms[l.lookupCol]
		key := kt.val
		if !kt.isConst {
			key = env[kt.slot]
		}
		for _, id := range r.index[l.lookupCol][key] {
			sc.joinRow(cr, p, i, l, int(id))
		}
		return
	}
	for id := 0; id < r.rows; id++ {
		sc.joinRow(cr, p, i, l, id)
	}
}

// joinRow unifies row rowID of literal l's relation against l,
// recursing into the rest of the plan (from body index i+1) on success.
// The delta literal is joined as i = -1.
func (sc *scratch) joinRow(cr *crule, p *cplan, i int, l *clit, rowID int) {
	env := sc.env
	t := l.rel.row(rowID)
	var boundSlots [maxArity]int
	nb := 0
	ok := true
	for ci := range l.terms {
		ct := &l.terms[ci]
		v := t[ci]
		switch {
		case ct.isConst:
			if ct.val != v {
				ok = false
			}
		case ct.slot >= 0:
			if env[ct.slot] == unboundSym {
				env[ct.slot] = v
				boundSlots[nb] = ct.slot
				nb++
			} else if env[ct.slot] != v {
				ok = false
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		sc.joinBody(cr, p, i+1)
	}
	for k := 0; k < nb; k++ {
		env[boundSlots[k]] = unboundSym
	}
}

// emitHead resolves the head tuple and appends it to sc.out, skipping an
// immediate duplicate within the current item (full dedup happens at
// merge). Arity-0 heads leave a single marker per item so the merge
// knows the rule fired.
func (sc *scratch) emitHead(cr *crule) {
	ha := len(cr.head)
	if ha == 0 {
		if len(sc.out) == sc.start {
			sc.out = append(sc.out, 0)
		}
		return
	}
	var tup [maxArity]Sym
	for hi := range cr.head {
		ct := &cr.head[hi]
		if ct.isConst {
			tup[hi] = ct.val
		} else {
			tup[hi] = sc.env[ct.slot]
		}
	}
	if n := len(sc.out); n-ha >= sc.start {
		same := true
		for k := 0; k < ha; k++ {
			if sc.out[n-ha+k] != tup[k] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	sc.out = append(sc.out, tup[:ha]...)
}

// termVal resolves a term the planner guaranteed is bound.
func termVal(t *cterm, env []Sym) Sym {
	if t.isConst {
		return t.val
	}
	return env[t.slot]
}

// termBound resolves a term that may still be unbound (Eq operands).
func termBound(t *cterm, env []Sym) (Sym, bool) {
	if t.isConst {
		return t.val, true
	}
	if t.slot < 0 {
		return 0, false
	}
	v := env[t.slot]
	return v, v != unboundSym
}
