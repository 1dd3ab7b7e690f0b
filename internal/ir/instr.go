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
type Instr struct {
	Op     Op
	A      int       // destination register (or source for Return/Put*)
	B      int       // base/source register
	Args   []int     // call argument registers (excluding receiver)
	Field  FieldRef  // for field ops
	Type   string    // for OpNew: class name
	Callee MethodRef // for invokes: static callee
	Target string    // for branches: label
	IntVal int64
	StrVal string
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

// readRegs returns the registers read by this instruction.
func (in Instr) readRegs() []int {
	switch in.Op {
	case OpMove:
		return []int{in.B}
	case OpGetField:
		return []int{in.B}
	case OpPutField:
		return []int{in.B, in.A}
	case OpPutStatic:
		return []int{in.A}
	case OpInvoke:
		return append([]int{in.B}, in.Args...)
	case OpInvokeStatic:
		return append([]int(nil), in.Args...)
	case OpReturn:
		if in.A != NoReg {
			return []int{in.A}
		}
		return nil
	case OpIfNull, OpIfNonNull:
		return []int{in.B}
	case OpMonitorEnter, OpMonitorExit, OpThrow:
		return []int{in.B}
	}
	return nil
}

// Uses returns the registers read by this instruction (public wrapper).
func (in Instr) Uses() []int { return in.readRegs() }

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
		return fmt.Sprintf("r%d = %q", in.A, in.StrVal)
	case OpNew:
		return fmt.Sprintf("r%d = new %s", in.A, in.Type)
	case OpMove:
		return fmt.Sprintf("r%d = r%d", in.A, in.B)
	case OpGetField:
		return fmt.Sprintf("r%d = r%d.%s", in.A, in.B, in.Field)
	case OpPutField:
		return fmt.Sprintf("r%d.%s = r%d", in.B, in.Field, in.A)
	case OpGetStatic:
		return fmt.Sprintf("r%d = static %s", in.A, in.Field)
	case OpPutStatic:
		return fmt.Sprintf("static %s = r%d", in.Field, in.A)
	case OpInvoke:
		if in.A == NoReg {
			return fmt.Sprintf("call r%d.%s(%s)", in.B, in.Callee, regList(in.Args))
		}
		return fmt.Sprintf("r%d = r%d.%s(%s)", in.A, in.B, in.Callee, regList(in.Args))
	case OpInvokeStatic:
		if in.A == NoReg {
			return fmt.Sprintf("call %s(%s)", in.Callee, regList(in.Args))
		}
		return fmt.Sprintf("r%d = %s(%s)", in.A, in.Callee, regList(in.Args))
	case OpReturn:
		if in.A == NoReg {
			return "return"
		}
		return fmt.Sprintf("return r%d", in.A)
	case OpIfNull:
		return fmt.Sprintf("if r%d == null goto %s", in.B, in.Target)
	case OpIfNonNull:
		return fmt.Sprintf("if r%d != null goto %s", in.B, in.Target)
	case OpIfCond:
		return fmt.Sprintf("if ? goto %s", in.Target)
	case OpGoto:
		return fmt.Sprintf("goto %s", in.Target)
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
