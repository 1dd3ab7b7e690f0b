package lockset

import (
	"slices"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/threadify"
)

// build makes an app where two threads access a field under a shared
// lock, plus an unlocked accessor and a synchronized method.
func build(t *testing.T) (*apk.Package, *threadify.Model) {
	t.Helper()
	b := appbuilder.New("ls")
	act := b.Activity("ls/A")
	act.Field("lock", "ls/V")
	act.Field("f", "ls/V")
	b.Class("ls/V", framework.Object).Method("use", 0).Return()

	mkThread := func(name string, locked bool) {
		th := b.ThreadClass(name)
		th.Field("outer", "ls/A")
		run := th.Method("run", 0)
		o := run.GetThis("outer")
		if locked {
			lk := run.GetField(o, "ls/A", "lock")
			run.Lock(lk)
			run.GetField(o, "ls/A", "f")
			run.Unlock(lk)
		} else {
			run.GetField(o, "ls/A", "f")
		}
		run.Return()
	}
	mkThread("ls/Locked1", true)
	mkThread("ls/Locked2", true)
	mkThread("ls/Unlocked", false)

	sync := b.Class("ls/S", framework.Thread)
	sync.Field("outer", "ls/A")
	sm := sync.SyncMethod("run", 0)
	o := sm.GetThis("outer")
	sm.GetField(o, "ls/A", "f")
	sm.Return()

	oc := act.Method("onCreate", 1)
	lv := oc.New("ls/V")
	oc.PutThis("lock", lv)
	fv := oc.New("ls/V")
	oc.PutThis("f", fv)
	for _, cls := range []string{"ls/Locked1", "ls/Locked2", "ls/Unlocked", "ls/S"} {
		tv := oc.New(cls)
		oc.PutField(tv, cls, "outer", oc.This())
		oc.InvokeVoid(tv, cls, "start")
	}
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pkg, m
}

// accessSite finds the (mctx, index) of the getfield of `f` inside the
// named class's run method.
func accessSite(t *testing.T, m *threadify.Model, cls string) (threadify.MCtx, int) {
	t.Helper()
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain || !strings.HasPrefix(th.Entry.Method, cls+".") {
			continue
		}
		mth, err := m.H.MethodByRef(th.Entry.Method)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range mth.Instrs {
			if in.Op == ir.OpGetField && in.Field.Name == "f" {
				return th.Entry, i
			}
		}
	}
	t.Fatalf("no access site in %s", cls)
	return threadify.MCtx{}, 0
}

func TestLockedAccessHoldsLock(t *testing.T) {
	_, m := build(t)
	r := Analyze(m)
	mc, idx := accessSite(t, m, "ls/Locked1")
	if got := r.HeldAt(mc, idx); len(got) != 1 {
		t.Errorf("locked access holds %v, want exactly one lock", got)
	}
}

func TestUnlockedAccessHoldsNothing(t *testing.T) {
	_, m := build(t)
	r := Analyze(m)
	mc, idx := accessSite(t, m, "ls/Unlocked")
	if got := r.HeldAt(mc, idx); len(got) != 0 {
		t.Errorf("unlocked access holds %v, want none", got)
	}
}

func TestCommonLockAcrossThreads(t *testing.T) {
	_, m := build(t)
	r := Analyze(m)
	a, ai := accessSite(t, m, "ls/Locked1")
	b, bi := accessSite(t, m, "ls/Locked2")
	if !r.CommonLock(a, ai, b, bi) {
		t.Error("both threads lock the same object; CommonLock must hold")
	}
	c, ci := accessSite(t, m, "ls/Unlocked")
	if r.CommonLock(a, ai, c, ci) {
		t.Error("no common lock with the unlocked access")
	}
}

func TestSynchronizedMethodHoldsReceiverLock(t *testing.T) {
	_, m := build(t)
	r := Analyze(m)
	mc, idx := accessSite(t, m, "ls/S")
	if got := r.HeldAt(mc, idx); len(got) != 1 {
		t.Errorf("synchronized run holds %v, want the receiver lock", got)
	}
}

// A lock released before the access is no longer held (must-analysis).
func TestReleasedLockNotHeld(t *testing.T) {
	b := appbuilder.New("ls2")
	act := b.Activity("l2/A")
	act.Field("lock", "l2/V")
	act.Field("f", "l2/V")
	b.Class("l2/V", framework.Object)
	th := b.ThreadClass("l2/T")
	th.Field("outer", "l2/A")
	run := th.Method("run", 0)
	o := run.GetThis("outer")
	lk := run.GetField(o, "l2/A", "lock")
	run.Lock(lk)
	run.Unlock(lk)
	run.GetField(o, "l2/A", "f") // after release
	run.Return()
	oc := act.Method("onCreate", 1)
	lv := oc.New("l2/V")
	oc.PutThis("lock", lv)
	tv := oc.New("l2/T")
	oc.PutField(tv, "l2/T", "outer", oc.This())
	oc.InvokeVoid(tv, "l2/T", "start")
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(m)
	mc, idx := accessSite(t, m, "l2/T")
	if got := r.HeldAt(mc, idx); len(got) != 0 {
		t.Errorf("released lock still reported: %v", got)
	}
}

// Locks flow into callees: an access inside a helper called from a
// monitor region is protected.
func TestInterproceduralLockPropagation(t *testing.T) {
	b := appbuilder.New("ls3")
	act := b.Activity("l3/A")
	act.Field("lock", "l3/V")
	act.Field("f", "l3/V")
	b.Class("l3/V", framework.Object)
	th := b.ThreadClass("l3/T")
	th.Field("outer", "l3/A")
	helper := th.Method("helper", 0)
	ho := helper.GetThis("outer")
	helper.GetField(ho, "l3/A", "f")
	helper.Return()
	run := th.Method("run", 0)
	o := run.GetThis("outer")
	lk := run.GetField(o, "l3/A", "lock")
	run.Lock(lk)
	run.InvokeThis("helper")
	run.Unlock(lk)
	run.Return()
	oc := act.Method("onCreate", 1)
	lv := oc.New("l3/V")
	oc.PutThis("lock", lv)
	tv := oc.New("l3/T")
	oc.PutField(tv, "l3/T", "outer", oc.This())
	oc.InvokeVoid(tv, "l3/T", "start")
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(m)
	// Find the helper's access site.
	mth, err := m.H.MethodByRef("l3/T.helper")
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, in := range mth.Instrs {
		if in.Op == ir.OpGetField && in.Field.Name == "f" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no access in helper")
	}
	// The helper runs under the thread's context (its receiver object).
	var mc threadify.MCtx
	for _, th := range m.Threads {
		if strings.HasPrefix(th.Entry.Method, "l3/T.") {
			mc = threadify.MCtx{Method: "l3/T.helper", Recv: th.Entry.Recv}
		}
	}
	if got := r.HeldAt(mc, idx); len(got) != 1 {
		t.Errorf("callee access holds %v, want the caller's lock", got)
	}
}

// refLocks is the map-based must-held analysis the package used to
// run, kept as the reference for Analyze: per-context entry sets
// propagated over call edges, and a per-instruction vector rebuilt by
// the CFG dataflow for every query.
type refLocks struct {
	m     *threadify.Model
	entry map[threadify.MCtx]map[LockID]bool
}

func refClone(s map[LockID]bool) map[LockID]bool {
	out := make(map[LockID]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func refIntersect(a, b map[LockID]bool) map[LockID]bool {
	out := make(map[LockID]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func refEqual(a, b map[LockID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func refAnalyze(m *threadify.Model) *refLocks {
	r := &refLocks{m: m, entry: make(map[threadify.MCtx]map[LockID]bool)}
	type edge struct {
		to   threadify.MCtx
		held map[LockID]bool
	}
	var work []edge
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain {
			work = append(work, edge{th.Entry, map[LockID]bool{}})
		}
	}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		cur, seen := r.entry[e.to]
		next := refClone(e.held)
		if seen {
			next = refIntersect(cur, e.held)
			if refEqual(next, cur) {
				continue
			}
		}
		r.entry[e.to] = next
		mth, err := m.H.MethodByRef(e.to.Method)
		if err != nil || mth.Abstract {
			continue
		}
		held := r.vector(e.to, mth, next)
		for i, in := range mth.Instrs {
			if in.Op != ir.OpInvoke && in.Op != ir.OpInvokeStatic {
				continue
			}
			for _, callee := range m.PTS.CalleeContextsAt(e.to.Method, e.to.Recv, i) {
				work = append(work, edge{threadify.MCtx{Method: callee.Method, Recv: callee.Recv}, held[i]})
			}
		}
	}
	return r
}

func (r *refLocks) vector(mc threadify.MCtx, mth *ir.Method, entry map[LockID]bool) []map[LockID]bool {
	out := make([]map[LockID]bool, len(mth.Instrs))
	base := refClone(entry)
	if mth.Synch && !mth.Static {
		for _, o := range mustAlias(r.m.PTS.PointsTo(mc.Method, mc.Recv, mth.ThisReg())) {
			base[o] = true
		}
	}
	g := ir.BuildCFG(mth)
	in := make([]map[LockID]bool, len(g.Blocks))
	in[0] = base
	work := []int{0}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		state := refClone(in[b])
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			out[i] = refClone(state)
			switch mth.Instrs[i].Op {
			case ir.OpMonitorEnter:
				for _, o := range mustAlias(r.m.PTS.PointsTo(mc.Method, mc.Recv, mth.Instrs[i].B)) {
					state[o] = true
				}
			case ir.OpMonitorExit:
				for _, o := range r.m.PTS.PointsTo(mc.Method, mc.Recv, mth.Instrs[i].B) {
					delete(state, o)
				}
			}
		}
		for _, s := range blk.Succs {
			var merged map[LockID]bool
			if in[s] == nil {
				merged = refClone(state)
			} else {
				merged = refIntersect(in[s], state)
				if refEqual(merged, in[s]) {
					continue
				}
			}
			in[s] = merged
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return out
}

// heldAt answers like HeldAt, sorted; nil for an unknown context.
func (r *refLocks) heldAt(mc threadify.MCtx, idx int) []LockID {
	entry, ok := r.entry[mc]
	if !ok {
		return nil
	}
	mth, err := r.m.H.MethodByRef(mc.Method)
	if err != nil || mth.Abstract || idx >= len(mth.Instrs) {
		return nil
	}
	var out []LockID
	for o := range r.vector(mc, mth, entry)[idx] {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// deadCallUnderLock calls, while holding a lock, a helper without
// monitor instructions whose only call to dead sits after its return:
// the helper holds the lock only where its entry reaches, so dead
// holds nothing.
const deadCallUnderLock = `app DeadCall

manifest {
  activity d/A main
}

class d/A extends android/app/Activity {
  field lock d/V
  field f d/V
  method onCreate(1) {
    r2 = new d/V
    r0.d/A.lock = r2
    r3 = new d/T
    r3.d/T.outer = r0
    call r3.d/T.start()
    return
  }
}

class d/V extends java/lang/Object {
}

class d/T extends java/lang/Thread {
  field outer d/A
  method run(0) {
    r1 = r0.d/T.outer
    r2 = r1.d/A.lock
    lock r2
    call r0.d/T.helper()
    unlock r2
    return
  }
  method helper(0) {
    r1 = r0.d/T.outer
    r2 = r1.d/A.f
    return
    call r0.d/T.dead()
    return
  }
  method dead(0) {
    r1 = r0.d/T.outer
    r2 = r1.d/A.f
    return
  }
}
`

// TestHeldAtMatchesReference compares HeldAt with the reference at every
// instruction of every context any thread reaches, over the corpus apps
// and corpus.RandomSpec seeds 1–6 that take a lock, and a program whose
// only call to a method is unreachable code under a lock.
func TestHeldAtMatchesReference(t *testing.T) {
	dead, err := dexasm.Parse(deadCallUnderLock)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*apk.Package{dead}
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		pkgs = append(pkgs, app.Build())
	}
	for seed := uint64(1); seed <= 6; seed++ {
		pkgs = append(pkgs, corpus.RandomSpec(seed).Build())
	}
	apps, held := 0, 0
	for _, pkg := range pkgs {
		m, err := threadify.Build(pkg, threadify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := Analyze(m)
		if r.None() {
			continue
		}
		apps++
		ref := refAnalyze(m)
		seen := map[threadify.MCtx]bool{}
		for _, th := range m.Threads {
			for _, mc := range m.Reach(th.ID) {
				if seen[mc] {
					continue
				}
				seen[mc] = true
				mth, err := m.H.MethodByRef(mc.Method)
				if err != nil {
					continue
				}
				for i := range mth.Instrs {
					got, want := r.HeldAt(mc, i), ref.heldAt(mc, i)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: HeldAt(%v, %d) = %v, want %v", pkg.Name, mc, i, got, want)
					}
					if len(got) > 0 {
						held++
					}
				}
			}
		}
	}
	t.Logf("%d lock-taking apps, %d instructions holding a lock", apps, held)
	if apps == 0 || held == 0 {
		t.Fatal("no corpus program holds a lock; the comparison is vacuous")
	}
}
