package ir

import (
	"math/bits"
	"slices"
)

// NumberRegs returns the registers m names — this, its arguments and
// every register an instruction reads or writes — in register order, or
// nil when they are exactly the registers [0, m.NumRegs) it declares,
// so that each register is its own slot. A block of one slot per named
// register is what the points-to solve gives a method context and the
// interpreter a frame. mark is scratch space for a register bitset;
// NumberRegs returns it, grown, for the next call.
func NumberRegs(m *Method, mark []uint64) ([]int32, []uint64) {
	top := max(m.NumRegs-1, m.NumArgs)
	for _, in := range m.Instrs {
		top = max(top, in.MaxReg())
	}
	words := top/64 + 1
	mark = slices.Grow(mark[:0], words)[:words]
	clear(mark)
	set := func(r int) {
		if r >= 0 {
			mark[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	for r := 0; r <= m.NumArgs; r++ {
		set(r)
	}
	for _, in := range m.Instrs {
		in.EachReg(set)
	}
	named := 0
	for _, w := range mark {
		named += bits.OnesCount64(w)
	}
	if named == m.NumRegs && top < m.NumRegs {
		return nil, mark
	}
	regs := make([]int32, 0, named)
	for wi, w := range mark {
		for ; w != 0; w &= w - 1 {
			regs = append(regs, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return regs, mark
}

// SlotOf returns register reg's slot in a block of n slots numbered by
// regs (NumberRegs): reg itself when regs is nil, else reg's rank in
// regs. ok is false when the block has no slot for reg.
func SlotOf(regs []int32, n int, reg int) (int, bool) {
	if regs == nil {
		return reg, reg >= 0 && reg < n
	}
	i, ok := slices.BinarySearch(regs, int32(reg))
	return i, ok && i < n
}
