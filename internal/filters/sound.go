package filters

import (
	"nadroid/internal/ir"
	"nadroid/internal/uaf"
)

// mhbFilter prunes pairs where the use must happen before the free
// (§6.1.1): the dereference always completes before the field is
// nulled, so no UAF order exists.
type mhbFilter struct{}

func (mhbFilter) Name() string { return NameMHB }
func (mhbFilter) Sound() bool  { return true }

func (mhbFilter) Apply(ctx *Context, w *uaf.Warning) int {
	return w.RemovePairs(NameMHB, func(p uaf.ThreadPair) bool {
		return ctx.MHB.HB(p.Use, p.Free)
	})
}

// igFilter prunes pairs whose use is protected by an if-guard AND whose
// two sides are atomic with respect to each other — same looper, or a
// common lock (§6.1.2). The guard may be a dominating null check, or the
// use may itself be the guard load (its value flows only into the check).
type igFilter struct{}

func (igFilter) Name() string { return NameIG }
func (igFilter) Sound() bool  { return true }

func (igFilter) Apply(ctx *Context, w *uaf.Warning) int {
	mth := ctx.method(w.Use.Method)
	if mth == nil {
		return 0
	}
	guarded := isGuardedUse(ctx, mth, w.Use.Index) || isGuardLoad(mth, w.Use.Index)
	if !guarded {
		return 0
	}
	return w.RemovePairs(NameIG, func(p uaf.ThreadPair) bool {
		return ctx.atomicPair(w, p)
	})
}

// iaFilter prunes pairs whose use is dominated by a store of a fresh
// allocation into the same field (intra-allocation, §6.1.3), under the
// same atomicity condition as IG. Allocation via getter methods is NOT
// handled here — that is the unsound MA filter.
type iaFilter struct{}

func (iaFilter) Name() string { return NameIA }
func (iaFilter) Sound() bool  { return true }

func (iaFilter) Apply(ctx *Context, w *uaf.Warning) int {
	mth := ctx.method(w.Use.Method)
	if mth == nil {
		return 0
	}
	if !hasDominatingStoreOf(ctx, mth, w.Use.Index, ir.OriginNew) {
		return 0
	}
	return w.RemovePairs(NameIA, func(p uaf.ThreadPair) bool {
		return ctx.atomicPair(w, p)
	})
}
