package filters

import "nadroid/internal/ir"

// This file holds the intra-procedural pattern analyses behind the IG,
// IA, MA, RHB and UR filters: if-guard detection, dominating
// allocation-store detection, and benign-use classification.

// methodFacts holds the intra-procedural facts the dominance-based
// patterns read: value origins, the CFG the origin dataflow ran over,
// and its immediate dominators.
type methodFacts struct {
	oi   *ir.OriginInfo
	cfg  *ir.CFG
	idom []int
}

func newMethodFacts(oi *ir.OriginInfo) *methodFacts {
	g := oi.CFG()
	return &methodFacts{oi: oi, cfg: g, idom: g.Dominators()}
}

// sameBase reports whether the base registers of two field accesses in
// the same method definitely denote the same object: identical origin
// (receiver parameter, same load site, or same allocation site).
func sameBase(oi *ir.OriginInfo, i1, r1, i2, r2 int) bool {
	o1, o2 := oi.At(i1, r1), oi.At(i2, r2)
	if o1.Kind != o2.Kind {
		return false
	}
	switch o1.Kind {
	case ir.OriginParam:
		return r1 == r2
	case ir.OriginLoad, ir.OriginNew:
		return o1.Site == o2.Site
	}
	return false
}

// isGuardedUse reports whether the use (a getfield/getstatic) at idx is
// dominated by a null check of the same field on the same base, with no
// intervening store to that field — the §6.1.2 "if-guard" pattern.
func isGuardedUse(ctx *Context, mth *ir.Method, idx int) bool {
	use := mth.Instrs[idx]
	if use.Op != ir.OpGetField && use.Op != ir.OpGetStatic {
		return false
	}
	if !hasOp(mth, ir.OpIfNull, ir.OpIfNonNull) {
		return false
	}
	f := ctx.facts(mth)
	oi, g, idom := f.oi, f.cfg, f.idom
	for j, in := range mth.Instrs {
		if in.Op != ir.OpIfNull && in.Op != ir.OpIfNonNull {
			continue
		}
		// The checked register must hold a load of the same field/base.
		chk := oi.At(j, in.B)
		if chk.Kind != ir.OriginLoad {
			continue
		}
		ld := mth.Instrs[chk.Site]
		if ld.Field() != use.Field() {
			continue
		}
		if use.Op == ir.OpGetField {
			if ld.Op != ir.OpGetField || !sameBase(oi, chk.Site, ld.B, idx, use.B) {
				continue
			}
		} else if ld.Op != ir.OpGetStatic {
			continue
		}
		// Find the entry instruction of the non-null branch.
		var nonNull int
		if in.Op == ir.OpIfNull {
			nonNull = j + 1 // fall through when non-null
		} else {
			nonNull = mth.Index(in.Target())
		}
		if nonNull >= len(mth.Instrs) {
			continue
		}
		if !g.Dominates(idom, nonNull, idx) {
			continue
		}
		if storeBetween(mth, use.Field(), min(j, idx), max(j, idx)) {
			continue
		}
		return true
	}
	return false
}

// isGuardLoad reports whether the value loaded at idx flows only into
// null checks — the load *is* the guard, so dereference never happens
// through it.
func isGuardLoad(mth *ir.Method, idx int) bool {
	in := mth.Instrs[idx]
	if in.Op != ir.OpGetField && in.Op != ir.OpGetStatic {
		return false
	}
	uses := ir.UsesOfDef(mth, idx)
	if len(uses) == 0 {
		return false
	}
	for _, u := range uses {
		switch mth.Instrs[u].Op {
		case ir.OpIfNull, ir.OpIfNonNull, ir.OpMove:
		default:
			return false
		}
	}
	return true
}

// hasDominatingStoreOf reports whether a store to the use's field (same
// base) whose value has one of the given origins dominates the use —
// the IA pattern with OriginNew, the MA pattern with OriginCall.
func hasDominatingStoreOf(ctx *Context, mth *ir.Method, idx int, kinds ...ir.OriginKind) bool {
	use := mth.Instrs[idx]
	if use.Op != ir.OpGetField && use.Op != ir.OpGetStatic {
		return false
	}
	isStore := func(in ir.Instr) bool {
		return in.Field() == use.Field() && ((use.Op == ir.OpGetField && in.Op == ir.OpPutField) ||
			(use.Op == ir.OpGetStatic && in.Op == ir.OpPutStatic))
	}
	for j, in := range mth.Instrs[:idx] {
		if !isStore(in) {
			continue
		}
		f := ctx.facts(mth)
		oi, g, idom := f.oi, f.cfg, f.idom
		if use.Op == ir.OpGetField && !sameBase(oi, j, in.B, idx, use.B) {
			continue
		}
		stored := oi.At(j, in.A)
		match := false
		for _, k := range kinds {
			if stored.Kind == k {
				match = true
			}
		}
		if !match {
			continue
		}
		if !g.Dominates(idom, j, idx) {
			continue
		}
		if storeBetween(mth, use.Field(), j+1, idx) {
			continue
		}
		return true
	}
	return false
}

// methodMayAllocateField reports whether any path through mth stores a
// fresh allocation (or getter result) into the named field — the RHB
// filter's may-analysis over onResume.
func methodMayAllocateField(ctx *Context, mth *ir.Method, field ir.FieldRef) bool {
	if mth == nil || mth.Abstract {
		return false
	}
	for j, in := range mth.Instrs {
		if in.Op != ir.OpPutField && in.Op != ir.OpPutStatic {
			continue
		}
		if in.Field().Name != field.Name {
			continue
		}
		switch ctx.origins.Of(mth).At(j, in.A).Kind {
		case ir.OriginNew, ir.OriginCall:
			return true
		}
	}
	return false
}

// isBenignUse reports whether the loaded value is only returned, null
// checked, or passed as a call argument (never dereferenced as a
// receiver) — the UR filter (§6.2.3).
func isBenignUse(ctx *Context, mth *ir.Method, idx int) bool {
	in := mth.Instrs[idx]
	if in.Op != ir.OpGetField && in.Op != ir.OpGetStatic {
		return false
	}
	def, ok := in.DefReg()
	if !ok {
		return false
	}
	uses := ir.UsesOfDef(mth, idx)
	if len(uses) == 0 {
		return true // dead load cannot fault
	}
	for _, u := range uses {
		ui := mth.Instrs[u]
		switch ui.Op {
		case ir.OpReturn, ir.OpIfNull, ir.OpIfNonNull, ir.OpMove:
			continue
		case ir.OpInvoke:
			// Receiver dereference faults; argument passing does not.
			if regFeedsReceiver(ctx.origins.Of(mth), mth, idx, def, u) {
				return false
			}
			continue
		case ir.OpInvokeStatic:
			continue
		case ir.OpPutField, ir.OpPutStatic:
			// Stored elsewhere: the value may be dereferenced later.
			return false
		default:
			return false
		}
	}
	return true
}

// regFeedsReceiver reports whether the value defined at def reaches the
// receiver operand of the invoke at u (directly or through moves).
func regFeedsReceiver(oi *ir.OriginInfo, mth *ir.Method, defIdx, defReg, u int) bool {
	in := mth.Instrs[u]
	o := oi.At(u, in.B)
	switch o.Kind {
	case ir.OriginLoad:
		return o.Site == defIdx
	}
	return in.B == defReg
}

// hasOp reports whether mth contains an instruction with one of ops.
func hasOp(mth *ir.Method, ops ...ir.Op) bool {
	for _, in := range mth.Instrs {
		for _, op := range ops {
			if in.Op == op {
				return true
			}
		}
	}
	return false
}

// storeBetween reports a putfield/putstatic of the field in (lo, hi).
// The check is index-range based (path insensitive, conservative).
func storeBetween(mth *ir.Method, f ir.FieldRef, lo, hi int) bool {
	for j := lo + 1; j < hi; j++ {
		in := mth.Instrs[j]
		if (in.Op == ir.OpPutField || in.Op == ir.OpPutStatic) && in.Field() == f {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
