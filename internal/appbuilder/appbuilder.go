// Package appbuilder provides a fluent API for constructing application
// packages in Go. The synthetic corpus, the unit-test fixtures and the
// examples all author apps through it rather than writing raw IR.
package appbuilder

import (
	"nadroid/internal/apk"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
)

// Builder accumulates one application package.
type Builder struct {
	name string
	prog *ir.Program
	man  *manifest.Manifest
}

// New starts an application named name with the framework classes
// pre-declared.
func New(name string) *Builder {
	prog := ir.NewProgram()
	framework.Declare(prog)
	return &Builder{name: name, prog: prog, man: manifest.New(name)}
}

// Program exposes the program under construction (tests use this).
func (b *Builder) Program() *ir.Program { return b.prog }

// Activity declares an Activity component class and registers it in the
// manifest as reachable.
func (b *Builder) Activity(name string) *ClassBuilder {
	cb := b.Class(name, framework.Activity)
	b.man.Add(&manifest.Component{Kind: manifest.ActivityComponent, Class: name, Reachable: true})
	return cb
}

// MainActivity declares the launcher activity.
func (b *Builder) MainActivity(name string) *ClassBuilder {
	cb := b.Class(name, framework.Activity)
	b.man.Add(&manifest.Component{Kind: manifest.ActivityComponent, Class: name, Main: true, Reachable: true})
	return cb
}

// UnreachableActivity declares an activity no intent can reach (a
// false-positive source in §8.5).
func (b *Builder) UnreachableActivity(name string) *ClassBuilder {
	cb := b.Class(name, framework.Activity)
	b.man.Add(&manifest.Component{Kind: manifest.ActivityComponent, Class: name, Reachable: false})
	return cb
}

// Service declares a Service component.
func (b *Builder) Service(name string) *ClassBuilder {
	cb := b.Class(name, framework.Service)
	b.man.Add(&manifest.Component{Kind: manifest.ServiceComponent, Class: name, Reachable: true})
	return cb
}

// Receiver declares a BroadcastReceiver component.
func (b *Builder) Receiver(name string) *ClassBuilder {
	cb := b.Class(name, framework.BroadcastReceiver)
	b.man.Add(&manifest.Component{Kind: manifest.ReceiverComponent, Class: name, Reachable: true})
	return cb
}

// Class declares a plain class extending super and implementing ifaces.
func (b *Builder) Class(name, super string, ifaces ...string) *ClassBuilder {
	c := ir.NewClass(name, super)
	c.Interfaces = append(c.Interfaces, ifaces...)
	b.prog.AddClass(c)
	return &ClassBuilder{b: b, c: c}
}

// Runnable declares a class implementing Runnable.
func (b *Builder) Runnable(name string) *ClassBuilder {
	return b.Class(name, framework.Object, framework.Runnable)
}

// HandlerClass declares a Handler subclass.
func (b *Builder) HandlerClass(name string) *ClassBuilder {
	return b.Class(name, framework.Handler)
}

// AsyncTaskClass declares an AsyncTask subclass.
func (b *Builder) AsyncTaskClass(name string) *ClassBuilder {
	return b.Class(name, framework.AsyncTask)
}

// ThreadClass declares a Thread subclass.
func (b *Builder) ThreadClass(name string) *ClassBuilder {
	return b.Class(name, framework.Thread)
}

// ServiceConn declares a ServiceConnection implementation.
func (b *Builder) ServiceConn(name string) *ClassBuilder {
	return b.Class(name, framework.Object, framework.ServiceConnection)
}

// Build seals and validates the package.
func (b *Builder) Build() (*apk.Package, error) {
	pkg := &apk.Package{Name: b.name, Program: b.prog, Manifest: b.man}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	return pkg, nil
}

// MustBuild is Build that panics on error; corpus construction uses it
// because a malformed corpus app is a programming error.
func (b *Builder) MustBuild() *apk.Package {
	pkg, err := b.Build()
	if err != nil {
		panic(err)
	}
	return pkg
}

// ClassBuilder adds members to one class.
type ClassBuilder struct {
	b *Builder
	c *ir.Class
}

// Name returns the class name.
func (cb *ClassBuilder) Name() string { return cb.c.Name }

// Class returns the underlying IR class.
func (cb *ClassBuilder) Class() *ir.Class { return cb.c }

// Outer marks this class as an inner class of outer (affects DEvA's
// intra-class analysis scope).
func (cb *ClassBuilder) Outer(outer string) *ClassBuilder {
	cb.c.Outer = outer
	return cb
}

// Field declares a reference-typed instance field.
func (cb *ClassBuilder) Field(name, typ string) *ClassBuilder {
	cb.c.AddField(&ir.Field{Name: name, Type: typ})
	return cb
}

// StaticField declares a static field.
func (cb *ClassBuilder) StaticField(name, typ string) *ClassBuilder {
	cb.c.AddField(&ir.Field{Name: name, Type: typ, Static: true})
	return cb
}

// Method starts a method body with nargs parameters.
func (cb *ClassBuilder) Method(name string, nargs int) *MethodBuilder {
	m := ir.NewMethod(cb.c.Name, name, nargs)
	cb.c.AddMethod(m)
	return &MethodBuilder{cb: cb, m: m, next: m.NumRegs}
}

// SyncMethod starts a synchronized method.
func (cb *ClassBuilder) SyncMethod(name string, nargs int) *MethodBuilder {
	mb := cb.Method(name, nargs)
	mb.m.Synch = true
	return mb
}

// MethodBuilder emits instructions into one method. All emitters return
// the builder (or a result register) so bodies read top to bottom.
type MethodBuilder struct {
	cb   *ClassBuilder
	m    *ir.Method
	next int // next fresh register
}

// Method returns the method under construction.
func (mb *MethodBuilder) Method() *ir.Method { return mb.m }

// Reg allocates a fresh register.
func (mb *MethodBuilder) Reg() int {
	r := mb.next
	mb.next++
	if mb.next > mb.m.NumRegs {
		mb.m.NumRegs = mb.next
	}
	return r
}

// This returns the receiver register.
func (mb *MethodBuilder) This() int { return mb.m.ThisReg() }

// Arg returns the i-th parameter register.
func (mb *MethodBuilder) Arg(i int) int { return mb.m.ArgReg(i) }

func (mb *MethodBuilder) emit(in ir.Instr) *MethodBuilder {
	mb.m.Instrs = append(mb.m.Instrs, in)
	return mb
}

// Null sets register r to null.
func (mb *MethodBuilder) Null(r int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpConstNull, A: r})
}

// NullReg allocates a register holding null.
func (mb *MethodBuilder) NullReg() int {
	r := mb.Reg()
	mb.Null(r)
	return r
}

// Int sets register r to an int constant.
func (mb *MethodBuilder) Int(r int, v int64) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpConstInt, A: r, IntVal: v})
}

// Str sets register r to a string constant.
func (mb *MethodBuilder) Str(r int, s string) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpConstStr, A: r}.WithStrVal(s))
}

// New allocates an instance of cls into a fresh register.
func (mb *MethodBuilder) New(cls string) int {
	r := mb.Reg()
	mb.emit(ir.Instr{Op: ir.OpNew, A: r}.WithType(cls))
	return r
}

// NewInto allocates an instance of cls into r.
func (mb *MethodBuilder) NewInto(r int, cls string) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpNew, A: r}.WithType(cls))
}

// Move copies src into dst.
func (mb *MethodBuilder) Move(dst, src int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpMove, A: dst, B: src})
}

// GetField loads base.cls.fld into a fresh register.
func (mb *MethodBuilder) GetField(base int, cls, fld string) int {
	r := mb.Reg()
	mb.emit(ir.Instr{Op: ir.OpGetField, A: r, B: base}.WithField(ir.FieldRef{Class: cls, Name: fld}))
	return r
}

// GetThis loads this.fld (field resolved on the declaring class chain).
func (mb *MethodBuilder) GetThis(fld string) int {
	return mb.GetField(mb.This(), mb.cb.c.Name, fld)
}

// PutField stores src into base.cls.fld.
func (mb *MethodBuilder) PutField(base int, cls, fld string, src int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpPutField, B: base, A: src}.WithField(ir.FieldRef{Class: cls, Name: fld}))
}

// PutThis stores src into this.fld.
func (mb *MethodBuilder) PutThis(fld string, src int) *MethodBuilder {
	return mb.PutField(mb.This(), mb.cb.c.Name, fld, src)
}

// FreeThis stores null into this.fld — the paper's "free" operation.
func (mb *MethodBuilder) FreeThis(fld string) *MethodBuilder {
	return mb.PutThis(fld, mb.NullReg())
}

// Free stores null into base.cls.fld.
func (mb *MethodBuilder) Free(base int, cls, fld string) *MethodBuilder {
	return mb.PutField(base, cls, fld, mb.NullReg())
}

// GetStatic loads a static field into a fresh register.
func (mb *MethodBuilder) GetStatic(cls, fld string) int {
	r := mb.Reg()
	mb.emit(ir.Instr{Op: ir.OpGetStatic, A: r}.WithField(ir.FieldRef{Class: cls, Name: fld}))
	return r
}

// PutStatic stores src into a static field.
func (mb *MethodBuilder) PutStatic(cls, fld string, src int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpPutStatic, A: src}.WithField(ir.FieldRef{Class: cls, Name: fld}))
}

// Invoke calls recv.cls.name(args...) returning a fresh result register.
func (mb *MethodBuilder) Invoke(recv int, cls, name string, args ...int) int {
	r := mb.Reg()
	mb.emit(ir.Instr{Op: ir.OpInvoke, A: r, B: recv, Args: args}.WithCallee(ir.MethodRef{Class: cls, Name: name}))
	return r
}

// InvokeVoid calls recv.cls.name(args...) discarding the result.
func (mb *MethodBuilder) InvokeVoid(recv int, cls, name string, args ...int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpInvoke, A: ir.NoReg, B: recv, Args: args}.WithCallee(ir.MethodRef{Class: cls, Name: name}))
}

// InvokeThis calls this.name(args...) on the declaring class.
func (mb *MethodBuilder) InvokeThis(name string, args ...int) int {
	return mb.Invoke(mb.This(), mb.cb.c.Name, name, args...)
}

// InvokeStatic calls cls.name(args...).
func (mb *MethodBuilder) InvokeStatic(cls, name string, args ...int) int {
	r := mb.Reg()
	mb.emit(ir.Instr{Op: ir.OpInvokeStatic, A: r, Args: args}.WithCallee(ir.MethodRef{Class: cls, Name: name}))
	return r
}

// Use dereferences the object in r by invoking a method on it; it is the
// canonical "f.use()" from the paper's examples. The callee class is the
// object's static type.
func (mb *MethodBuilder) Use(r int, cls string) *MethodBuilder {
	return mb.InvokeVoid(r, cls, "use")
}

// Label defines a label at the next instruction index.
func (mb *MethodBuilder) Label(name string) *MethodBuilder {
	if mb.m.Labels == nil {
		mb.m.Labels = make(map[string]int)
	}
	mb.m.Labels[name] = len(mb.m.Instrs)
	return mb
}

// Goto jumps to label.
func (mb *MethodBuilder) Goto(label string) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpGoto}.WithTarget(label))
}

// IfNull branches to label when r is null.
func (mb *MethodBuilder) IfNull(r int, label string) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpIfNull, B: r}.WithTarget(label))
}

// IfNonNull branches to label when r is non-null.
func (mb *MethodBuilder) IfNonNull(r int, label string) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpIfNonNull, B: r}.WithTarget(label))
}

// IfCond emits an opaque conditional branch (path-insensitive to the
// static analysis; the interpreter treats it per interp.Options).
func (mb *MethodBuilder) IfCond(label string) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpIfCond}.WithTarget(label))
}

// Return emits a void return.
func (mb *MethodBuilder) Return() *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpReturn, A: ir.NoReg})
}

// ReturnReg returns the value in r.
func (mb *MethodBuilder) ReturnReg(r int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpReturn, A: r})
}

// Lock acquires the monitor of the object in r.
func (mb *MethodBuilder) Lock(r int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpMonitorEnter, B: r})
}

// Unlock releases the monitor of the object in r.
func (mb *MethodBuilder) Unlock(r int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpMonitorExit, B: r})
}

// Throw throws the object in r.
func (mb *MethodBuilder) Throw(r int) *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpThrow, B: r})
}

// Nop emits a no-op (used by injection to keep indices stable).
func (mb *MethodBuilder) Nop() *MethodBuilder {
	return mb.emit(ir.Instr{Op: ir.OpNop})
}

// MethodOn adds a method to a class that was declared earlier; it panics
// on unknown classes (a fixture programming error).
func (b *Builder) MethodOn(cls, name string, nargs int) *MethodBuilder {
	c := b.prog.Class(cls)
	if c == nil {
		panic("appbuilder: MethodOn unknown class " + cls)
	}
	m := ir.NewMethod(cls, name, nargs)
	c.AddMethod(m)
	return &MethodBuilder{cb: &ClassBuilder{b: b, c: c}, m: m, next: m.NumRegs}
}
