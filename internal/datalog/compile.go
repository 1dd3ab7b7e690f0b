package datalog

import "fmt"

// Rule compilation: each rule's variables are numbered into dense slots
// so evaluation binds into a flat []Sym environment instead of a
// map[string]Sym per delta tuple, and each (rule, delta position) pair
// gets a static join plan that orders the remaining body literals by
// bound-column availability instead of left-to-right source order.

// cterm is a compiled term: a constant, a variable slot, or a wildcard.
type cterm struct {
	isConst bool
	slot    int // variable slot; -1 for wildcards and constants
	val     Sym // constant value when isConst
}

// clit is a compiled body literal.
type clit struct {
	rel     *Relation // nil for builtins
	builtin BuiltinKind
	terms   []cterm
	// lookupCol is the column probed through the relation's index when
	// this literal is joined (-1 = full scan). Chosen per plan, so clit
	// values are copied into plans rather than shared.
	lookupCol int
}

// cplan is the join order for one choice of delta literal.
type cplan struct {
	delta clit
	body  []clit // remaining literals, in join order
}

// crule is a compiled rule.
type crule struct {
	src     string
	headRel *Relation
	head    []cterm
	nvars   int
	plans   []cplan
	// idx is the rule's position in e.compiled; it keys the per-rule stat
	// counters.
	idx int
}

// compile extends e.compiled to cover rules added since the last Run.
func (e *Engine) compile() {
	for i := len(e.compiled); i < len(e.rules); i++ {
		cr := e.compileRule(e.rules[i])
		cr.idx = i
		e.compiled = append(e.compiled, cr)
	}
	for len(e.ruleDerived) < len(e.compiled) {
		e.ruleDerived = append(e.ruleDerived, 0)
		e.ruleRounds = append(e.ruleRounds, 0)
		e.ruleTime = append(e.ruleTime, 0)
	}
}

func (e *Engine) compileRule(r *Rule) *crule {
	slots := make(map[string]int)
	compileTerm := func(t Term) cterm {
		if !t.IsVar {
			return cterm{isConst: true, slot: -1, val: t.Const}
		}
		if t.Var == "_" {
			return cterm{slot: -1}
		}
		s, ok := slots[t.Var]
		if !ok {
			s = len(slots)
			slots[t.Var] = s
		}
		return cterm{slot: s}
	}
	compileLit := func(l Literal) clit {
		cl := clit{builtin: l.Builtin, lookupCol: -1}
		if l.Builtin == BuiltinNone {
			cl.rel = e.rels[l.Pred]
		}
		cl.terms = make([]cterm, len(l.Terms))
		for i, t := range l.Terms {
			cl.terms[i] = compileTerm(t)
		}
		return cl
	}

	body := make([]clit, len(r.Body))
	for i, l := range r.Body {
		body[i] = compileLit(l)
	}
	cr := &crule{
		src:     r.src,
		headRel: e.rels[r.Head.Pred],
		head:    make([]cterm, len(r.Head.Terms)),
	}
	for i, t := range r.Head.Terms {
		cr.head[i] = compileTerm(t)
	}
	cr.nvars = len(slots)

	for _, dpos := range r.positiveIdx {
		cr.plans = append(cr.plans, planJoin(r, body, dpos, cr.nvars))
	}
	return cr
}

// planJoin orders the body literals other than dpos: builtins run as
// soon as their operands are resolvable, and among positive literals the
// one with the most bound columns joins next (ties break on source
// order, keeping plans deterministic).
func planJoin(r *Rule, body []clit, dpos, nvars int) cplan {
	bound := make([]bool, nvars)
	markBound := func(l clit) {
		for _, t := range l.terms {
			if !t.isConst && t.slot >= 0 {
				bound[t.slot] = true
			}
		}
	}
	resolvable := func(t cterm) bool {
		return t.isConst || (t.slot >= 0 && bound[t.slot])
	}

	plan := cplan{delta: body[dpos]}
	markBound(plan.delta)

	remaining := make([]int, 0, len(body)-1)
	for i := range body {
		if i != dpos {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		pick := -1
		// Builtins first, as soon as they are ready: they only narrow.
		for j, bi := range remaining {
			l := body[bi]
			switch l.builtin {
			case BuiltinNeq:
				if resolvable(l.terms[0]) && resolvable(l.terms[1]) {
					pick = j
				}
			case BuiltinEq:
				if resolvable(l.terms[0]) || resolvable(l.terms[1]) {
					pick = j
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			best := -1
			for j, bi := range remaining {
				l := body[bi]
				if l.builtin != BuiltinNone {
					continue
				}
				score := 0
				for _, t := range l.terms {
					if resolvable(t) {
						score++
					}
				}
				if best < 0 || score > best {
					best, pick = score, j
				}
			}
			if pick < 0 {
				panic(fmt.Sprintf("datalog: unbound variable in builtin of rule %s", r.src))
			}
		}
		l := body[remaining[pick]]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		switch l.builtin {
		case BuiltinNone:
			for col, t := range l.terms {
				if resolvable(t) {
					l.lookupCol = col
					break
				}
			}
			markBound(l)
		case BuiltinEq:
			markBound(l)
		}
		plan.body = append(plan.body, l)
	}
	return plan
}
