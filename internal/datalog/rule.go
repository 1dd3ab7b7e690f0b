package datalog

import (
	"fmt"
	"strings"
	"unicode"
)

// BuiltinKind marks special body literals.
type BuiltinKind int

const (
	// BuiltinNone is an ordinary positive literal.
	BuiltinNone BuiltinKind = iota
	// BuiltinNeq is `x != y`.
	BuiltinNeq
	// BuiltinEq is `x = y` (binds one side if the other is bound).
	BuiltinEq
)

// Term is a variable or constant inside a literal.
type Term struct {
	IsVar bool
	Var   string
	Const Sym
}

// Literal is one body or head atom.
type Literal struct {
	Pred    string
	Terms   []Term
	Builtin BuiltinKind
}

// Rule is head :- body.
type Rule struct {
	Head Literal
	Body []Literal
	src  string
	// positiveIdx are the indices of non-builtin body literals.
	positiveIdx []int
}

// String returns the original source of the rule.
func (r *Rule) String() string { return r.src }

// ParseRule parses one rule. Rule text holds variables and the body
// wildcard `_` only; analyses assert constants as facts. It rejects any
// rule Run could not evaluate: no positive body literal, a `_` in the
// head, or a head variable or builtin operand that no positive literal
// (or `=` chain from one) binds.
func ParseRule(src string) (*Rule, error) {
	head, body, ok := strings.Cut(src, ":-")
	if !ok {
		return nil, fmt.Errorf("datalog: rule %q missing ':-'", src)
	}
	h, err := parseAtom(strings.TrimSpace(head))
	if err != nil {
		return nil, fmt.Errorf("datalog: rule %q: %v", src, err)
	}
	if h.Builtin != BuiltinNone {
		return nil, fmt.Errorf("datalog: rule %q: builtin in head", src)
	}
	r := &Rule{Head: h, src: strings.TrimSpace(src)}
	for _, part := range splitTopLevel(body) {
		lit, err := parseAtom(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("datalog: rule %q: %v", src, err)
		}
		if lit.Builtin == BuiltinNone {
			r.positiveIdx = append(r.positiveIdx, len(r.Body))
		}
		r.Body = append(r.Body, lit)
	}
	if len(r.positiveIdx) == 0 {
		return nil, fmt.Errorf("datalog: rule %q has no positive body literal", src)
	}
	// Every variable the head or a builtin reads must be bound by a
	// positive body literal, or through an `=` chain from one; the
	// wildcard `_` never binds.
	bound := map[string]bool{}
	resolvable := func(t Term) bool { return !t.IsVar || bound[t.Var] }
	bind := func(t Term) bool { // reports whether t became bound
		if !t.IsVar || t.Var == "_" || bound[t.Var] {
			return false
		}
		bound[t.Var] = true
		return true
	}
	for _, i := range r.positiveIdx {
		for _, t := range r.Body[i].Terms {
			bind(t)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Builtin != BuiltinEq {
				continue
			}
			a, b := l.Terms[0], l.Terms[1]
			if resolvable(a) && bind(b) {
				changed = true
			}
			if resolvable(b) && bind(a) {
				changed = true
			}
		}
	}
	for _, t := range r.Head.Terms {
		if t.IsVar && t.Var == "_" {
			return nil, fmt.Errorf("datalog: rule %q: wildcard in head", src)
		}
		if !resolvable(t) {
			return nil, fmt.Errorf("datalog: rule %q: head variable %q unbound", src, t.Var)
		}
	}
	for _, l := range r.Body {
		if l.Builtin == BuiltinNone {
			continue
		}
		a, b := l.Terms[0], l.Terms[1]
		ok := resolvable(a) && resolvable(b)
		if l.Builtin == BuiltinEq {
			ok = resolvable(a) || resolvable(b)
		}
		if !ok {
			v := a.Var
			if resolvable(a) {
				v = b.Var
			}
			return nil, fmt.Errorf("datalog: rule %q: builtin operand %q unbound", src, v)
		}
	}
	return r, nil
}

// splitTopLevel splits on commas not inside parentheses.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseAtom(s string) (Literal, error) {
	if i := strings.Index(s, "!="); i >= 0 {
		a, b := strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+2:])
		ta, err := parseTerm(a)
		if err != nil {
			return Literal{}, err
		}
		tb, err := parseTerm(b)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Builtin: BuiltinNeq, Terms: []Term{ta, tb}}, nil
	}
	if i := strings.Index(s, "="); i >= 0 && !strings.Contains(s, "(") {
		a, b := strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:])
		ta, err := parseTerm(a)
		if err != nil {
			return Literal{}, err
		}
		tb, err := parseTerm(b)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Builtin: BuiltinEq, Terms: []Term{ta, tb}}, nil
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Literal{}, fmt.Errorf("malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	if pred == "" || !unicode.IsUpper(rune(pred[0])) {
		return Literal{}, fmt.Errorf("predicate %q must start upper-case", pred)
	}
	var terms []Term
	inner := s[open+1 : len(s)-1]
	if strings.TrimSpace(inner) != "" {
		for _, part := range strings.Split(inner, ",") {
			t, err := parseTerm(strings.TrimSpace(part))
			if err != nil {
				return Literal{}, err
			}
			terms = append(terms, t)
		}
	}
	return Literal{Pred: pred, Terms: terms}, nil
}

func parseTerm(s string) (Term, error) {
	if s == "" {
		return Term{}, fmt.Errorf("empty term")
	}
	if s == "_" {
		return Term{IsVar: true, Var: "_"}, nil
	}
	r := rune(s[0])
	if unicode.IsLower(r) {
		return Term{IsVar: true, Var: s}, nil
	}
	return Term{}, fmt.Errorf("term %q: constants are not supported in rule text; assert them as facts", s)
}
