// Package lockset computes the set of locks that must be held at every
// instruction of every analyzed method context. nAdroid ignores locksets
// for race detection itself (locks cannot prevent ordering violations,
// §5) but the IG and IA filters use them selectively: an if-guard or
// intra-allocation between two background threads is only sound when a
// common lock provides atomicity (§6.1.2).
//
// A lock is identified by an abstract object; to stay a *must* analysis,
// a monitor expression contributes a lock only when its points-to set is
// a singleton (must-alias). Held sets flow into callees as the
// intersection over all call sites (plus the receiver for synchronized
// methods).
package lockset

import (
	"slices"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// LockID is the abstract object serving as a lock.
type LockID = pointsto.ObjID

// Result answers "which locks are definitely held here".
type Result struct {
	m *threadify.Model
	// ctxs[id] is what the points-to solve's context id holds.
	ctxs []ctxLocks
	// live caches, per method, which instructions its entry reaches.
	live map[*ir.Method][]bool
	// none records that the program takes no lock at all.
	none bool
}

// ctxLocks is what one method context holds.
type ctxLocks struct {
	// reached records that some thread reaches the context.
	reached bool
	// entry is the set of locks held on every path reaching the context.
	entry lockSet
	// mth is the context's method, nil when abstract or unresolvable.
	mth *ir.Method
	// base is entry plus the receiver lock of a synchronized method.
	base lockSet
	// held is the per-instruction held set of a method with monitor
	// instructions. It is nil for a method without them, where every
	// instruction the entry reaches holds base (live marks those
	// instructions, and is nil when base is empty).
	held []lockSet
	live []bool
}

// lockSet is a sorted set of locks. A set is never modified once built,
// so vectors, contexts and call edges share them.
type lockSet []LockID

// with returns s plus objs, or s itself when it holds them all.
func (s lockSet) with(objs []LockID) lockSet {
	for _, o := range objs {
		i, found := slices.BinarySearch(s, o)
		if !found {
			s = slices.Insert(slices.Clip(s), i, o)
		}
	}
	return s
}

// without returns s minus objs, or s itself when it holds none of them.
func (s lockSet) without(objs []LockID) lockSet {
	for _, o := range objs {
		if i, found := slices.BinarySearch(s, o); found {
			s = slices.Delete(slices.Clone(s), i, i+1)
		}
	}
	return s
}

// intersect returns a ∩ b, or a itself when b holds all of a.
func intersect(a, b lockSet) lockSet {
	var out lockSet
	for k, o := range a {
		if _, found := slices.BinarySearch(b, o); found {
			if out != nil {
				out = append(out, o)
			}
		} else if out == nil {
			out = append(make(lockSet, 0, len(a)), a[:k]...)
		}
	}
	if out == nil {
		return a
	}
	return out
}

// Analyze computes lock sets for every method context in the model.
func Analyze(m *threadify.Model) *Result {
	r := &Result{m: m}
	if !acquiresAny(m.H.Program()) {
		r.none = true
		return r
	}
	r.ctxs = make([]ctxLocks, m.PTS.NumContexts())
	r.live = make(map[*ir.Method][]bool)

	// Entry-lock propagation: a worklist over call edges. Thread entries
	// start with no locks. Every thread entry is a context of the solve.
	type edge struct {
		to   int32
		held lockSet
	}
	work := make([]edge, 0, len(m.Threads))
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		if id, ok := m.PTS.ContextID(th.Entry.Method, th.Entry.Recv); ok {
			work = append(work, edge{id, nil})
		}
	}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		c := &r.ctxs[e.to]
		if !c.reached {
			c.reached, c.entry = true, e.held
			method, _ := m.PTS.Context(e.to)
			if mth, err := m.H.MethodByRef(method); err == nil && !mth.Abstract {
				c.mth = mth
			}
		} else {
			next := intersect(c.entry, e.held)
			if len(next) == len(c.entry) {
				continue
			}
			c.entry = next
		}
		if c.mth == nil {
			continue
		}
		r.settle(e.to, c)
		// Propagate to callees; only invokes have call edges.
		for i, in := range c.mth.Instrs {
			if in.Op != ir.OpInvoke && in.Op != ir.OpInvokeStatic {
				continue
			}
			held := c.at(i)
			for _, callee := range m.PTS.CalleesAt(e.to, i) {
				work = append(work, edge{callee, held})
			}
		}
	}
	return r
}

// settle derives what each instruction of c holds from its entry set:
// a held vector for a method with monitor instructions, base and the
// reached instructions otherwise.
func (r *Result) settle(id int32, c *ctxLocks) {
	mth := c.mth
	method, recv := r.m.PTS.Context(id)
	c.base = c.entry
	if mth.Synch && !mth.Static {
		c.base = c.base.with(mustAlias(r.m.PTS.PointsTo(method, recv, mth.ThisReg())))
	}
	c.held, c.live = nil, nil
	if monitors(mth) {
		c.held = r.heldVector(method, recv, mth, c.base)
		return
	}
	if len(c.base) > 0 {
		live, ok := r.live[mth]
		if !ok {
			g := ir.BuildCFG(mth)
			reached := g.Reachable()
			live = make([]bool, len(mth.Instrs))
			for i := range live {
				live[i] = reached[g.BlockOf(i)]
			}
			r.live[mth] = live
		}
		c.live = live
	}
}

// at returns the set held at instruction i of c's method.
func (c *ctxLocks) at(i int) lockSet {
	if c.held != nil {
		return c.held[i]
	}
	if c.live != nil && !c.live[i] {
		return nil
	}
	return c.base
}

// heldVector computes the per-instruction must-held set inside one
// method context by a forward must-dataflow over the CFG, given the
// locks held on entry. Instructions the entry does not reach hold
// nothing.
func (r *Result) heldVector(method string, recv pointsto.ObjID, mth *ir.Method, base lockSet) []lockSet {
	held := make([]lockSet, len(mth.Instrs))
	g := ir.BuildCFG(mth)
	in := make([]lockSet, len(g.Blocks))
	reached := make([]bool, len(g.Blocks))
	inWork := make([]bool, len(g.Blocks))
	in[0], reached[0], inWork[0] = base, true, true
	work := []int{0}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		state := in[b]
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			held[i] = state
			switch ins := mth.Instrs[i]; ins.Op {
			case ir.OpMonitorEnter:
				state = state.with(mustAlias(r.m.PTS.PointsTo(method, recv, ins.B)))
			case ir.OpMonitorExit:
				state = state.without(r.m.PTS.PointsTo(method, recv, ins.B))
			}
		}
		for _, s := range blk.Succs {
			if !reached[s] {
				reached[s] = true
				in[s] = state
			} else {
				merged := intersect(in[s], state)
				if len(merged) == len(in[s]) {
					continue
				}
				in[s] = merged
			}
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return held
}

// acquiresAny reports whether any method of prog takes a lock: a
// monitorenter, or a synchronized instance method.
func acquiresAny(prog *ir.Program) bool {
	for _, c := range prog.Classes() {
		for _, mth := range c.Methods {
			if mth.Synch && !mth.Static {
				return true
			}
			for _, in := range mth.Instrs {
				if in.Op == ir.OpMonitorEnter {
					return true
				}
			}
		}
	}
	return false
}

// monitors reports whether mth contains a monitor instruction.
func monitors(mth *ir.Method) bool {
	for _, in := range mth.Instrs {
		if in.Op == ir.OpMonitorEnter || in.Op == ir.OpMonitorExit {
			return true
		}
	}
	return false
}

// mustAlias keeps the lock only when the points-to set is a singleton.
func mustAlias(objs []pointsto.ObjID) []pointsto.ObjID {
	if len(objs) == 1 {
		return objs
	}
	return nil
}

// None reports that the program takes no lock, so none is ever held.
func (r *Result) None() bool { return r.none }

// HeldAt returns the locks definitely held at instruction idx of the
// given method context, sorted. The slice is shared: callers must not
// modify it.
func (r *Result) HeldAt(mc threadify.MCtx, idx int) []LockID {
	if r.none {
		return nil
	}
	id, ok := r.m.PTS.ContextID(mc.Method, mc.Recv)
	if !ok {
		return nil
	}
	c := &r.ctxs[id]
	if c.mth == nil || idx < 0 || idx >= len(c.mth.Instrs) {
		return nil
	}
	return c.at(idx)
}

// CommonLock reports whether the two sites definitely hold a common lock.
func (r *Result) CommonLock(a threadify.MCtx, ai int, b threadify.MCtx, bi int) bool {
	la := r.HeldAt(a, ai)
	if len(la) == 0 {
		return false
	}
	for _, l := range r.HeldAt(b, bi) {
		if _, found := slices.BinarySearch(la, l); found {
			return true
		}
	}
	return false
}
