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
	// id numbers every class name the program declares or names as a
	// supertype. Names that some class names as a supertype come first:
	// only they can be a proper ancestor, so an ancestor bitset needs
	// one bit for each of the first nsup numbers and no more.
	id   map[string]int32
	nsup int
	// anc holds, for the class numbered i, the bitset of its ancestors
	// (itself included when it is a supertype) in words [i*words,
	// (i+1)*words).
	anc   []uint64
	words int
}

// New builds the hierarchy. Unknown supertype names are tolerated (they
// behave as opaque externals); analyses only need what is declared. New
// panics on a cyclic hierarchy, which dexasm.Parse rejects up front.
func New(prog *ir.Program) *Hierarchy {
	classes := prog.Classes()
	h := &Hierarchy{prog: prog, id: make(map[string]int32, len(classes))}
	number := func(name string) {
		if _, ok := h.id[name]; !ok {
			h.id[name] = int32(len(h.id))
		}
	}
	for _, c := range classes {
		if c.Super != "" {
			number(c.Super)
		}
		for _, i := range c.Interfaces {
			number(i)
		}
	}
	h.nsup = len(h.id)
	for _, c := range classes {
		number(c.Name)
	}
	h.words = (h.nsup + 63) / 64
	h.anc = make([]uint64, len(h.id)*h.words)

	// state[i] is 0 until fill reaches class i, active while it fills
	// the class's supertypes, and done after.
	const (
		active = iota + 1
		done
	)
	state := make([]uint8, len(h.id))
	var fill func(name string) []uint64
	fill = func(name string) []uint64 {
		i := h.id[name]
		row := h.row(i)
		switch state[i] {
		case done:
			return row
		case active:
			panic("cha: cyclic class hierarchy at " + name)
		}
		state[i] = active
		if int(i) < h.nsup {
			row[i/64] |= 1 << (i % 64)
		}
		if c := prog.Class(name); c != nil {
			if c.Super != "" {
				orInto(row, fill(c.Super))
			}
			for _, s := range c.Interfaces {
				orInto(row, fill(s))
			}
		}
		state[i] = done
		return row
	}
	for _, c := range classes {
		fill(c.Name)
	}
	return h
}

func (h *Hierarchy) row(i int32) []uint64 {
	return h.anc[int(i)*h.words : (int(i)+1)*h.words]
}

func orInto(dst, src []uint64) {
	for k, w := range src {
		dst[k] |= w
	}
}

// IsSubtypeOf reports whether sub is super or transitively extends or
// implements it.
func (h *Hierarchy) IsSubtypeOf(sub, super string) bool {
	if sub == super {
		return true
	}
	s, ok := h.id[sub]
	if !ok {
		return false
	}
	p, ok := h.id[super]
	if !ok || int(p) >= h.nsup {
		return false
	}
	return h.row(s)[p/64]&(1<<(p%64)) != 0
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

// CanonicalField resolves a field reference against the hierarchy: a
// reference to C.f may denote a field declared on a superclass of C. It
// names the field by its declaring class, so references through
// subclasses, static or instance, key one storage location. A ref no
// class on the chain declares is returned as is.
func (h *Hierarchy) CanonicalField(ref ir.FieldRef) ir.FieldRef {
	for cur := ref.Class; cur != ""; {
		c := h.prog.Class(cur)
		if c == nil {
			break
		}
		if f := c.Field(ref.Name); f != nil {
			return ir.FieldRef{Class: f.Class, Name: f.Name}
		}
		cur = c.Super
	}
	return ref
}
