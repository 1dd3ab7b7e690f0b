package ir

import (
	"fmt"
	"strings"
)

// Op enumerates instruction opcodes. The set mirrors the slice of Dalvik
// the paper's analyses consume: allocations, field accesses, calls,
// null-conditional branches, opaque branches (for path-insensitivity
// studies) and monitor regions.
type Op int

const (
	OpNop Op = iota
	// OpConstNull: A = null
	OpConstNull
	// OpConstInt: A = IntVal
	OpConstInt
	// OpConstStr: A = StrVal
	OpConstStr
	// OpNew: A = new Type; the allocation site is (method, index).
	OpNew
	// OpMove: A = B
	OpMove
	// OpGetField: A = B.Field — the paper's "use" bytecode (getfield).
	OpGetField
	// OpPutField: B.Field = A — a "free" when A holds null (putfield null).
	OpPutField
	// OpGetStatic: A = Field (static)
	OpGetStatic
	// OpPutStatic: Field = A (static)
	OpPutStatic
	// OpInvoke: A = B.Callee(Args...) — virtual dispatch on B's runtime class.
	OpInvoke
	// OpInvokeStatic: A = Callee(Args...)
	OpInvokeStatic
	// OpReturn: return A (A == NoReg for void returns).
	OpReturn
	// OpIfNull: if B == null goto Target
	OpIfNull
	// OpIfNonNull: if B != null goto Target
	OpIfNonNull
	// OpIfCond: opaque conditional branch to Target. Models branches on
	// flags/state the analysis cannot evaluate (path insensitivity).
	OpIfCond
	// OpGoto: unconditional jump to Target.
	OpGoto
	// OpMonitorEnter: acquire lock on object in B.
	OpMonitorEnter
	// OpMonitorExit: release lock on object in B.
	OpMonitorExit
	// OpThrow: throw the object in B (interp terminates the task).
	OpThrow
)

// NoReg marks an unused register operand (e.g. void return).
const NoReg = -1

var opNames = [...]string{
	OpNop:          "nop",
	OpConstNull:    "const-null",
	OpConstInt:     "const-int",
	OpConstStr:     "const-str",
	OpNew:          "new",
	OpMove:         "move",
	OpGetField:     "getfield",
	OpPutField:     "putfield",
	OpGetStatic:    "getstatic",
	OpPutStatic:    "putstatic",
	OpInvoke:       "invoke",
	OpInvokeStatic: "invoke-static",
	OpReturn:       "return",
	OpIfNull:       "if-null",
	OpIfNonNull:    "if-nonnull",
	OpIfCond:       "if-cond",
	OpGoto:         "goto",
	OpMonitorEnter: "monitor-enter",
	OpMonitorExit:  "monitor-exit",
	OpThrow:        "throw",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction. Operand meaning depends on Op; unused operands
// are zero values (registers: NoReg by convention in printers, but 0 is
// also accepted when the op ignores the operand).
//
// No instruction has more than one symbolic operand, so one pair of
// strings holds it: a field op's field and an invoke's callee are a
// (class, name) pair, and the class of a new, the label of a branch and
// the value of a const-str are one string. Set it with WithField,
// WithCallee, WithType, WithTarget or WithStrVal, and read it with the
// accessor of the same name, which returns the zero value for an op
// that has no such operand.
type Instr struct {
	Op     Op
	A      int   // destination register (or source for Return/Put*)
	B      int   // base/source register
	Args   []int // call argument registers (excluding receiver)
	IntVal int64 // for OpConstInt
	sym    FieldRef
}

// isFieldOp reports whether op names a field.
func isFieldOp(op Op) bool { return op >= OpGetField && op <= OpPutStatic }

// isInvoke reports whether op names a callee.
func isInvoke(op Op) bool { return op == OpInvoke || op == OpInvokeStatic }

// Field returns the field of a field op (getfield, putfield, getstatic,
// putstatic).
func (in Instr) Field() FieldRef {
	if !isFieldOp(in.Op) {
		return FieldRef{}
	}
	return in.sym
}

// Callee returns the static callee of an invoke.
func (in Instr) Callee() MethodRef {
	if !isInvoke(in.Op) {
		return MethodRef{}
	}
	return MethodRef(in.sym)
}

// Type returns the class a new allocates.
func (in Instr) Type() string {
	if in.Op != OpNew {
		return ""
	}
	return in.sym.Name
}

// Target returns the label a branch may jump to.
func (in Instr) Target() string {
	if !in.IsBranch() {
		return ""
	}
	return in.sym.Name
}

// StrVal returns the value of a const-str.
func (in Instr) StrVal() string {
	if in.Op != OpConstStr {
		return ""
	}
	return in.sym.Name
}

// WithField returns in naming field f.
func (in Instr) WithField(f FieldRef) Instr {
	in.sym = f
	return in
}

// WithCallee returns in calling callee.
func (in Instr) WithCallee(callee MethodRef) Instr {
	in.sym = FieldRef(callee)
	return in
}

// WithType returns in allocating class.
func (in Instr) WithType(class string) Instr {
	in.sym = FieldRef{Name: class}
	return in
}

// WithTarget returns in branching to label.
func (in Instr) WithTarget(label string) Instr {
	in.sym = FieldRef{Name: label}
	return in
}

// WithStrVal returns in loading the string s.
func (in Instr) WithStrVal(s string) Instr {
	in.sym = FieldRef{Name: s}
	return in
}

// defsReg reports whether the instruction writes register A.
func (in Instr) defsReg() bool {
	switch in.Op {
	case OpConstNull, OpConstInt, OpConstStr, OpNew, OpMove, OpGetField, OpGetStatic:
		return true
	case OpInvoke, OpInvokeStatic:
		return in.A != NoReg
	}
	return false
}

// DefReg returns the register defined by this instruction and true, or
// (NoReg, false) if it defines none.
func (in Instr) DefReg() (int, bool) {
	if in.defsReg() {
		return in.A, true
	}
	return NoReg, false
}

// operands returns the registers the instruction reads, in Uses order:
// up to two fixed operands (base, then value), then the call arguments.
// It allocates nothing.
func (in Instr) operands() (fixed [2]int, n int, args []int) {
	switch in.Op {
	case OpMove, OpGetField, OpIfNull, OpIfNonNull, OpMonitorEnter, OpMonitorExit, OpThrow:
		return [2]int{in.B}, 1, nil
	case OpPutField:
		return [2]int{in.B, in.A}, 2, nil
	case OpPutStatic:
		return [2]int{in.A}, 1, nil
	case OpInvoke:
		return [2]int{in.B}, 1, in.Args
	case OpInvokeStatic:
		return fixed, 0, in.Args
	case OpReturn:
		if in.A != NoReg {
			return [2]int{in.A}, 1, nil
		}
	}
	return fixed, 0, nil
}

// Uses returns the registers read by this instruction, or nil when it
// reads none.
func (in Instr) Uses() []int {
	fixed, n, args := in.operands()
	if n+len(args) == 0 {
		return nil
	}
	return append(append(make([]int, 0, n+len(args)), fixed[:n]...), args...)
}

// MaxReg returns the highest register the instruction reads or writes,
// or NoReg when it names none. Unlike Uses it allocates nothing.
func (in Instr) MaxReg() int {
	top, _ := in.DefReg()
	fixed, n, args := in.operands()
	for _, r := range fixed[:n] {
		top = max(top, r)
	}
	for _, r := range args {
		top = max(top, r)
	}
	return top
}

// EachReg calls fn for every register the instruction names: those it
// reads, in Uses order, then the one it defines. It allocates nothing.
func (in Instr) EachReg(fn func(r int)) {
	fixed, n, args := in.operands()
	for _, r := range fixed[:n] {
		fn(r)
	}
	for _, r := range args {
		fn(r)
	}
	if in.defsReg() {
		fn(in.A)
	}
}

// regOutside returns the first register the instruction names outside
// [0, numRegs): those it reads, in Uses order, then the one it defines.
func (in Instr) regOutside(numRegs int) (int, bool) {
	out := func(r int) bool { return r < 0 || r >= numRegs }
	fixed, n, args := in.operands()
	for _, r := range fixed[:n] {
		if out(r) {
			return r, true
		}
	}
	for _, r := range args {
		if out(r) {
			return r, true
		}
	}
	if in.defsReg() && out(in.A) {
		return in.A, true
	}
	return 0, false
}

// IsBranch reports whether the instruction may transfer control to Target.
func (in Instr) IsBranch() bool {
	switch in.Op {
	case OpGoto, OpIfNull, OpIfNonNull, OpIfCond:
		return true
	}
	return false
}

// IsTerminator reports whether control never falls through.
func (in Instr) IsTerminator() bool {
	switch in.Op {
	case OpGoto, OpReturn, OpThrow:
		return true
	}
	return false
}

// String renders the instruction in dexasm syntax; void invokes use the
// `call` mnemonic so every line parses unambiguously.
func (in Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConstNull:
		return fmt.Sprintf("r%d = null", in.A)
	case OpConstInt:
		return fmt.Sprintf("r%d = %d", in.A, in.IntVal)
	case OpConstStr:
		return fmt.Sprintf("r%d = %q", in.A, in.StrVal())
	case OpNew:
		return fmt.Sprintf("r%d = new %s", in.A, in.Type())
	case OpMove:
		return fmt.Sprintf("r%d = r%d", in.A, in.B)
	case OpGetField:
		return fmt.Sprintf("r%d = r%d.%s", in.A, in.B, in.Field())
	case OpPutField:
		return fmt.Sprintf("r%d.%s = r%d", in.B, in.Field(), in.A)
	case OpGetStatic:
		return fmt.Sprintf("r%d = static %s", in.A, in.Field())
	case OpPutStatic:
		return fmt.Sprintf("static %s = r%d", in.Field(), in.A)
	case OpInvoke:
		if in.A == NoReg {
			return fmt.Sprintf("call r%d.%s(%s)", in.B, in.Callee(), regList(in.Args))
		}
		return fmt.Sprintf("r%d = r%d.%s(%s)", in.A, in.B, in.Callee(), regList(in.Args))
	case OpInvokeStatic:
		if in.A == NoReg {
			return fmt.Sprintf("call %s(%s)", in.Callee(), regList(in.Args))
		}
		return fmt.Sprintf("r%d = %s(%s)", in.A, in.Callee(), regList(in.Args))
	case OpReturn:
		if in.A == NoReg {
			return "return"
		}
		return fmt.Sprintf("return r%d", in.A)
	case OpIfNull:
		return fmt.Sprintf("if r%d == null goto %s", in.B, in.Target())
	case OpIfNonNull:
		return fmt.Sprintf("if r%d != null goto %s", in.B, in.Target())
	case OpIfCond:
		return fmt.Sprintf("if ? goto %s", in.Target())
	case OpGoto:
		return fmt.Sprintf("goto %s", in.Target())
	case OpMonitorEnter:
		return fmt.Sprintf("lock r%d", in.B)
	case OpMonitorExit:
		return fmt.Sprintf("unlock r%d", in.B)
	case OpThrow:
		return fmt.Sprintf("throw r%d", in.B)
	}
	return in.Op.String()
}

func regList(regs []int) string {
	parts := make([]string, len(regs))
	for i, r := range regs {
		parts[i] = fmt.Sprintf("r%d", r)
	}
	return strings.Join(parts, ", ")
}
