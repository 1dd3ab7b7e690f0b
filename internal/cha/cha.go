// Package cha implements class-hierarchy analysis: subtype queries and
// method and field resolution. Call edges come from the points-to solver
// (internal/pointsto), which resolves calls through this hierarchy.
package cha

import (
	"fmt"

	"nadroid/internal/ir"
)

// Hierarchy caches subtype relations and method resolution over a sealed
// program. It satisfies framework.Hierarchy.
type Hierarchy struct {
	prog *ir.Program
	// supers[c] is the transitive set of superclasses and implemented
	// interfaces of c, including c itself.
	supers map[string]map[string]bool
}

// New builds the hierarchy. Unknown supertype names are tolerated (they
// behave as opaque externals); analyses only need what is declared. New
// panics on a cyclic hierarchy, which dexasm.Parse rejects up front.
func New(prog *ir.Program) *Hierarchy {
	h := &Hierarchy{
		prog:   prog,
		supers: make(map[string]map[string]bool),
	}
	for _, c := range prog.Classes() {
		h.supers[c.Name] = h.computeSupers(c.Name, make(map[string]bool))
	}
	return h
}

func (h *Hierarchy) computeSupers(name string, guard map[string]bool) map[string]bool {
	if s, ok := h.supers[name]; ok {
		return s
	}
	if guard[name] {
		panic("cha: cyclic class hierarchy at " + name)
	}
	guard[name] = true
	set := map[string]bool{name: true}
	c := h.prog.Class(name)
	if c == nil {
		h.supers[name] = set
		return set
	}
	if c.Super != "" {
		for s := range h.computeSupers(c.Super, guard) {
			set[s] = true
		}
	}
	for _, i := range c.Interfaces {
		for s := range h.computeSupers(i, guard) {
			set[s] = true
		}
	}
	h.supers[name] = set
	return set
}

// IsSubtypeOf reports whether sub is super or transitively extends or
// implements it.
func (h *Hierarchy) IsSubtypeOf(sub, super string) bool {
	s, ok := h.supers[sub]
	if !ok {
		return sub == super
	}
	return s[super]
}

// Program returns the underlying program.
func (h *Hierarchy) Program() *ir.Program { return h.prog }

// Resolve finds the implementation of method name on class cls by
// walking the superclass chain (Java virtual dispatch). It returns nil
// if no implementation exists (abstract or unknown).
func (h *Hierarchy) Resolve(cls, name string) *ir.Method {
	for cur := cls; cur != ""; {
		c := h.prog.Class(cur)
		if c == nil {
			return nil
		}
		if m := c.Method(name); m != nil {
			if m.Abstract {
				return nil
			}
			return m
		}
		cur = c.Super
	}
	return nil
}

// MethodByRef finds a method from its "Class.Name" spelling.
func (h *Hierarchy) MethodByRef(ref string) (*ir.Method, error) {
	cls, name, ok := ir.SplitRef(ref)
	if !ok {
		return nil, fmt.Errorf("cha: malformed method ref %q", ref)
	}
	c := h.prog.Class(cls)
	if c == nil {
		return nil, fmt.Errorf("cha: unknown class in ref %q", ref)
	}
	m := c.Method(name)
	if m == nil {
		return nil, fmt.Errorf("cha: unknown method in ref %q", ref)
	}
	return m, nil
}

// DeclaringClassOfField resolves a field reference against the hierarchy:
// a reference to C.f may denote a field declared on a superclass of C.
func (h *Hierarchy) DeclaringClassOfField(ref ir.FieldRef) *ir.Field {
	for cur := ref.Class; cur != ""; {
		c := h.prog.Class(cur)
		if c == nil {
			return nil
		}
		if f := c.Field(ref.Name); f != nil {
			return f
		}
		cur = c.Super
	}
	return nil
}
