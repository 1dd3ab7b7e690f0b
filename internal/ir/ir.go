// Package ir defines the register-based intermediate representation that
// nAdroid-Go analyzes. It plays the role Soot's Jimple plays in the paper:
// a typed, class-structured program with explicit field accesses,
// allocations, calls, branches and monitor regions.
//
// A Program is a set of Classes. Each Class has Fields and Methods; each
// Method is a flat list of Instrs over an infinite register file. Branch
// targets are symbolic labels resolved by Method.Index. The cfg.go and
// dom.go files derive basic blocks and dominator trees on demand; analyses
// never mutate a Method after it is sealed.
package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Program is a closed world of classes, keyed by fully qualified name
// (e.g. "com/connectbot/ConsoleActivity").
type Program struct {
	classes map[string]*Class
	order   []*Class // insertion order, for deterministic iteration
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// Grow reserves room for n more classes, so adding them does not grow
// the program's index.
func (p *Program) Grow(n int) {
	if n <= 0 {
		return
	}
	classes := make(map[string]*Class, len(p.classes)+n)
	for name, c := range p.classes {
		classes[name] = c
	}
	p.classes = classes
	p.order = slices.Grow(p.order, n)
}

// AddClass inserts c. It panics if a class with the same name exists:
// duplicate class definitions indicate a corrupted package.
func (p *Program) AddClass(c *Class) {
	if c.Name == "" {
		panic("ir: class with empty name")
	}
	if _, dup := p.classes[c.Name]; dup {
		panic("ir: duplicate class " + c.Name)
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c)
}

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes in insertion order.
func (p *Program) Classes() []*Class { return slices.Clone(p.order) }

// SortedClassNames returns class names sorted lexicographically.
func (p *Program) SortedClassNames() []string {
	out := make([]string, len(p.order))
	for i, c := range p.order {
		out[i] = c.Name
	}
	sort.Strings(out)
	return out
}

// Size returns the total instruction count across all methods; the corpus
// uses it as the stand-in for an app's LOC.
func (p *Program) Size() int {
	n := 0
	for _, c := range p.order {
		for _, m := range c.Methods {
			n += len(m.Instrs)
		}
	}
	return n
}

// Class is a Java-like class: single superclass, interface list, fields
// and methods. Outer names the enclosing class for inner classes; DEvA's
// intra-class analysis scope is a class plus its inner classes.
type Class struct {
	Name       string
	Super      string // "" only for the root object class
	Interfaces []string
	Outer      string // enclosing class name, "" if top-level
	IsIface    bool
	Fields     []*Field
	Methods    []*Method

	// fieldIdx and methodIdx index Fields and Methods by name once the
	// class declares more than smallClass of them; until then they are
	// nil and lookups scan the slice, so a small class has no maps.
	fieldIdx  map[string]*Field
	methodIdx map[string]*Method
}

// smallClass is the member count up to which lookups scan in
// declaration order. A scan of that many names costs about what one
// small-map lookup does.
const smallClass = 8

// NewClass returns a class extending super (use framework.Object for the
// root) with no members.
func NewClass(name, super string) *Class {
	return &Class{Name: name, Super: super}
}

// AddField appends a field and indexes it by name.
func (c *Class) AddField(f *Field) *Field {
	if f.Class == "" {
		f.Class = c.Name
	}
	if c.Field(f.Name) != nil {
		panic(fmt.Sprintf("ir: duplicate field %s.%s", c.Name, f.Name))
	}
	c.Fields = append(c.Fields, f)
	switch {
	case c.fieldIdx != nil:
		c.fieldIdx[f.Name] = f
	case len(c.Fields) > smallClass:
		c.fieldIdx = make(map[string]*Field, 2*len(c.Fields))
		for _, f := range c.Fields {
			c.fieldIdx[f.Name] = f
		}
	}
	return f
}

// Field returns the named field declared on this class (not inherited).
func (c *Class) Field(name string) *Field {
	if c.fieldIdx != nil {
		return c.fieldIdx[name]
	}
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddMethod appends a method and indexes it by name. Method overloading
// is not modeled: one method per name per class.
func (c *Class) AddMethod(m *Method) *Method {
	if m.Class == "" {
		m.Class = c.Name
		m.ref = m.Class + "." + m.Name
	}
	if c.Method(m.Name) != nil {
		panic(fmt.Sprintf("ir: duplicate method %s.%s", c.Name, m.Name))
	}
	c.Methods = append(c.Methods, m)
	switch {
	case c.methodIdx != nil:
		c.methodIdx[m.Name] = m
	case len(c.Methods) > smallClass:
		c.methodIdx = make(map[string]*Method, 2*len(c.Methods))
		for _, m := range c.Methods {
			c.methodIdx[m.Name] = m
		}
	}
	return m
}

// Method returns the named method declared on this class (not inherited).
func (c *Class) Method(name string) *Method {
	if c.methodIdx != nil {
		return c.methodIdx[name]
	}
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Field is a named, typed member. Type is a class name or a primitive
// ("int", "string"); only reference-typed fields can participate in UAFs.
type Field struct {
	Class  string
	Name   string
	Type   string
	Static bool
}

// Ref returns the canonical "Class.Name" spelling.
func (f *Field) Ref() string { return f.Class + "." + f.Name }

// FieldRef names a field symbolically inside an instruction. Resolution
// against the class hierarchy happens in package cha.
type FieldRef struct {
	Class string
	Name  string
}

func (r FieldRef) String() string { return r.Class + "." + r.Name }

// MethodRef names a method symbolically inside an invoke instruction.
type MethodRef struct {
	Class string
	Name  string
}

func (r MethodRef) String() string { return r.Class + "." + r.Name }

// Method is a single method body. Registers are dense ints starting at 0;
// register 0 is `this` for instance methods, parameters follow. Class and
// Name are fixed once NewMethod (or AddMethod, for a method created
// without a class) has run: Ref spells them from a copy made then.
type Method struct {
	Class    string
	Name     string
	NumArgs  int // excluding receiver
	Static   bool
	Synch    bool // synchronized method: body runs holding the receiver lock
	Abstract bool
	Instrs   []Instr
	// Labels maps each label to the index of the instruction it labels.
	// It is nil until a builder adds the method's first label.
	Labels map[string]int

	NumRegs int // 1 + NumArgs + locals; maintained by the builder

	ref string // Class + "." + Name
}

// NewMethod returns an empty method. Callers normally use appbuilder
// rather than constructing methods by hand.
func NewMethod(class, name string, numArgs int) *Method {
	m := &Method{Class: class, Name: name, NumArgs: numArgs}
	m.NumRegs = 1 + numArgs
	m.ref = class + "." + name
	return m
}

// Ref returns the canonical "Class.Name" spelling. It is stored, not
// built, so callers on hot paths may call it freely.
func (m *Method) Ref() string { return m.ref }

// ThisReg returns the register holding the receiver (instance methods only).
func (m *Method) ThisReg() int { return 0 }

// ArgReg returns the register holding the i-th parameter (0-based).
func (m *Method) ArgReg(i int) int { return 1 + i }

// Index resolves a label to an instruction index. It panics on unknown
// labels because sealed methods are validated before analysis.
func (m *Method) Index(label string) int {
	i, ok := m.Labels[label]
	if !ok {
		panic(fmt.Sprintf("ir: unknown label %q in %s", label, m.Ref()))
	}
	return i
}

// Validate checks structural invariants: labels resolve, registers are in
// range, field/method refs are well formed. It returns the first problem.
func (m *Method) Validate() error {
	for i, in := range m.Instrs {
		if r, bad := in.regOutside(m.NumRegs); bad {
			return fmt.Errorf("%s: instr %d (%s): register %d out of range [0,%d)", m.Ref(), i, in.Op, r, m.NumRegs)
		}
		switch in.Op {
		case OpGoto, OpIfNull, OpIfNonNull, OpIfCond:
			if _, ok := m.Labels[in.Target()]; !ok {
				return fmt.Errorf("%s: instr %d: unresolved label %q", m.Ref(), i, in.Target())
			}
		case OpGetField, OpPutField, OpGetStatic, OpPutStatic:
			if in.Field().Name == "" {
				return fmt.Errorf("%s: instr %d: missing field ref", m.Ref(), i)
			}
		case OpInvoke, OpInvokeStatic:
			if in.Callee().Name == "" {
				return fmt.Errorf("%s: instr %d: missing callee", m.Ref(), i)
			}
		}
	}
	for lbl, idx := range m.Labels {
		if idx < 0 || idx > len(m.Instrs) {
			return fmt.Errorf("%s: label %q out of range", m.Ref(), lbl)
		}
	}
	return nil
}

// Validate checks every method in the program.
func (p *Program) Validate() error {
	var errs []string
	for _, c := range p.order {
		for _, m := range c.Methods {
			if m.Abstract {
				continue
			}
			if err := m.Validate(); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("ir: %s", strings.Join(errs, "; "))
	}
	return nil
}

// InstrID identifies one instruction site in a program.
type InstrID struct {
	Method string // canonical method ref "Class.Name"
	Index  int
}

func (id InstrID) String() string { return fmt.Sprintf("%s:%d", id.Method, id.Index) }

// Less orders InstrIDs for deterministic reporting.
func (id InstrID) Less(o InstrID) bool {
	if id.Method != o.Method {
		return id.Method < o.Method
	}
	return id.Index < o.Index
}
