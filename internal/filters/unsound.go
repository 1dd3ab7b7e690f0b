package filters

import (
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// rhbFilter — Resume-Happens-Before (§6.2.1). An activity is often
// paused and resumed; careful programs re-allocate state in onResume.
// RHB prunes a pair whose free sits in onPause and whose use sits in a
// UI callback of the same component when some path through onResume
// re-allocates the field. Unsound: the allocation is a may-analysis.
type rhbFilter struct{}

func (rhbFilter) Name() string { return NameRHB }
func (rhbFilter) Sound() bool  { return false }

func (rhbFilter) Apply(ctx *Context, w *uaf.Warning) int {
	return w.RemovePairs(NameRHB, func(p uaf.ThreadPair) bool {
		tu, tf := ctx.Model.Threads[p.Use], ctx.Model.Threads[p.Free]
		if entryName(tf) != "onPause" {
			return false
		}
		if tu.Kind != threadify.KindEntryCallback || tu.Component == "" || tu.Component != tf.Component {
			return false
		}
		un := entryName(tu)
		if un == "onPause" || un == "onDestroy" {
			return false
		}
		resume := ctx.Model.H.Resolve(tu.Component, "onResume")
		return methodMayAllocateField(ctx, resume, w.Field)
	})
}

// chbFilter — Cancel-Happens-Before (§6.2.1). After an event callback
// invokes finish / unbindService / unregisterReceiver /
// removeCallbacksAndMessages / AsyncTask.cancel, the corresponding
// callback family no longer runs, so a use in that family must precede
// the canceller's free. Unsound: reaching the cancel call is a
// may-analysis (the paper's Browser/Puzzles false negatives come from
// error-path finish() calls).
type chbFilter struct{}

func (chbFilter) Name() string { return NameCHB }
func (chbFilter) Sound() bool  { return false }

func (chbFilter) Apply(ctx *Context, w *uaf.Warning) int {
	return w.RemovePairs(NameCHB, func(p uaf.ThreadPair) bool {
		ops := ctx.cancelsOf(p.Free)
		if len(ops) == 0 {
			return false
		}
		tu := ctx.Model.Threads[p.Use]
		for _, op := range ops {
			if cancelCovers(ctx, op, tu) {
				return true
			}
		}
		return false
	})
}

// cancelCovers reports whether a cancellation op stops the use thread's
// callback family from running after the canceller.
func cancelCovers(ctx *Context, op cancelOp, use *threadify.Thread) bool {
	switch op.kind {
	case framework.CancelFinish:
		if op.component == "" || use.Component != op.component {
			return false
		}
		// finish() stops the component's UI and connection callbacks, but
		// onDestroy still runs (it is *caused* by finish).
		if entryName(use) == "onDestroy" {
			return false
		}
		switch use.Kind {
		case threadify.KindEntryCallback:
			return true
		case threadify.KindPostedCallback:
			return use.Post == framework.PostBindService || use.Post == framework.PostRegisterReceiver
		}
		return false
	case framework.CancelUnbindService:
		return use.Post == framework.PostBindService && objMember(op.objs, use.Entry.Recv)
	case framework.CancelUnregisterReceiver:
		return use.Post == framework.PostRegisterReceiver && objMember(op.objs, use.Entry.Recv)
	case framework.CancelRemoveCallbacks:
		// Pending messages of the handler are dropped. (Runnables posted
		// through the handler share its queue but are not tracked back to
		// the handler object; see the package documentation.)
		return use.Post == framework.PostSendMessage && objMember(op.objs, use.Entry.Recv)
	case framework.CancelTask:
		return (use.Post == framework.PostExecuteTask || use.Post == framework.PostPublishProgress) &&
			objMember(op.objs, use.Entry.Recv)
	}
	return false
}

func objMember(objs []pointsto.ObjID, o pointsto.ObjID) bool {
	for _, x := range objs {
		if x == o {
			return true
		}
	}
	return false
}

// phbFilter — Post-Happens-Before (§6.2.1). When the use's callback
// (transitively) posted the free's callback on the same looper, the
// atomic use completes before the posted free starts. Unsound: a second
// runtime instance of the posting callback may interleave.
type phbFilter struct{}

func (phbFilter) Name() string { return NamePHB }
func (phbFilter) Sound() bool  { return false }

func (phbFilter) Apply(ctx *Context, w *uaf.Warning) int {
	return w.RemovePairs(NamePHB, func(p uaf.ThreadPair) bool {
		tu := ctx.Model.Threads[p.Use]
		if !tu.Looper {
			return false
		}
		// Walk the free thread's ancestry down to the use thread; every
		// hop must be a looper-posted callback.
		for cur := p.Free; cur >= 0; {
			t := ctx.Model.Threads[cur]
			if cur == p.Use {
				return true
			}
			if t.Kind != threadify.KindPostedCallback || !t.Looper {
				return false
			}
			cur = t.Parent
		}
		return false
	})
}

// maFilter — Maybe-Allocation (§6.2.2): like IA but accepting getter
// results as allocations, assuming custom getters never return null.
type maFilter struct{}

func (maFilter) Name() string { return NameMA }
func (maFilter) Sound() bool  { return false }

func (maFilter) Apply(ctx *Context, w *uaf.Warning) int {
	mth := ctx.method(w.Use.Method)
	if mth == nil {
		return 0
	}
	if !hasDominatingStoreOf(ctx, mth, w.Use.Index, ir.OriginCall) {
		return 0
	}
	return w.RemovePairs(NameMA, func(p uaf.ThreadPair) bool {
		return ctx.atomicPair(w, p)
	})
}

// urFilter — Used-for-Return (§6.2.3): the loaded value is only
// returned, compared against null, or passed as an argument; it is never
// dereferenced through this load, so the warning is commonly benign.
type urFilter struct{}

func (urFilter) Name() string { return NameUR }
func (urFilter) Sound() bool  { return false }

func (urFilter) Apply(ctx *Context, w *uaf.Warning) int {
	mth := ctx.method(w.Use.Method)
	if mth == nil {
		return 0
	}
	if !isBenignUse(ctx, mth, w.Use.Index) {
		return 0
	}
	return w.RemovePairs(NameUR, func(uaf.ThreadPair) bool { return true })
}

// ttFilter — Thread-Thread (§6.2.4): races purely between native
// threads are the classic well-studied case; nAdroid deprioritizes them
// to focus on Android-specific callback races.
type ttFilter struct{}

func (ttFilter) Name() string { return NameTT }
func (ttFilter) Sound() bool  { return false }

func (ttFilter) Apply(ctx *Context, w *uaf.Warning) int {
	return w.RemovePairs(NameTT, func(p uaf.ThreadPair) bool {
		tu, tf := ctx.Model.Threads[p.Use], ctx.Model.Threads[p.Free]
		return !tu.Looper && !tf.Looper
	})
}
