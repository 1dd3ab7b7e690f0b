package interp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/cha"
	"nadroid/internal/dexasm"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
)

func buildPkg(t *testing.T, f func(b *appbuilder.Builder)) *apk.Package {
	t.Helper()
	b := appbuilder.New("it")
	f(b)
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// newWorld builds a world over a fresh hierarchy of pkg.
func newWorld(pkg *apk.Package, opts Options) *World {
	return NewWorld(pkg, cha.New(pkg.Program), opts)
}

func runAll(pkg *apk.Package, opts Options) *World {
	w := newWorld(pkg, opts)
	Run(w, nil)
	return w
}

func TestLifecycleOrderOnDefaultSchedule(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		for _, n := range []string{"onStart", "onResume", "onPause", "onStop", "onDestroy"} {
			act.Method(n, 0).Return()
		}
		act.Method("onCreate", 1).Return()
	})
	w := runAll(pkg, Options{Trace: true})
	trace := strings.Join(w.Trace(), "\n")
	idx := func(s string) int { return strings.Index(trace, s) }
	if !(idx("fire lifecycle:onCreate") >= 0 &&
		idx("fire lifecycle:onCreate") < idx("fire lifecycle:onStart") &&
		idx("fire lifecycle:onStart") < idx("fire lifecycle:onResume")) {
		t.Errorf("lifecycle chain out of order:\n%s", trace)
	}
}

func TestUIEventsRequireResumedState(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Method("onResume", 0).Return()
		act.Method("onPause", 0).Return()
		oc := act.Method("onCreate", 1)
		view := oc.New(framework.View)
		l := oc.New("it/L")
		oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
		oc.Return()
		b.Class("it/L", framework.Object, framework.OnClickListener).Method("onClick", 1).Return()
	})
	w := newWorld(pkg, Options{Trace: true})
	Run(w, nil)
	trace := strings.Join(w.Trace(), "\n")
	clickAt := strings.Index(trace, "fire ui:")
	resumeAt := strings.Index(trace, "fire lifecycle:onResume")
	if clickAt >= 0 && (resumeAt < 0 || clickAt < resumeAt) {
		t.Errorf("clicks before onResume:\n%s", trace)
	}
}

func TestRemoveCallbacksDropsPendingMessages(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("h", "it/H")
		h := b.HandlerClass("it/H")
		h.Field("outer", "it/A")
		hm := h.Method("handleMessage", 1)
		o := hm.GetThis("outer")
		f := hm.GetField(o, "it/A", "absent")
		hm.Use(f, framework.Object) // would NPE (field never set)
		hm.Return()
		act.Field("absent", framework.Object)
		oc := act.Method("onCreate", 1)
		hr := oc.New("it/H")
		oc.PutField(hr, "it/H", "outer", oc.This())
		oc.PutThis("h", hr)
		msg := oc.New(framework.Message)
		oc.InvokeVoid(hr, "it/H", "sendMessage", msg)
		// Immediately cancel: the pending handleMessage must never run.
		oc.InvokeVoid(hr, "it/H", "removeCallbacksAndMessages")
		oc.Return()
	})
	w := runAll(pkg, Options{})
	if len(w.NPEs()) != 0 {
		t.Errorf("removed message still ran: %v", w.NPEs())
	}
}

func TestUnregisterReceiverDisablesEvents(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("rcv", "it/R")
		act.Field("f", framework.Object)
		r := b.Class("it/R", framework.BroadcastReceiver)
		r.Field("outer", "it/A")
		or := r.Method("onReceive", 1)
		o := or.GetThis("outer")
		f := or.GetField(o, "it/A", "f")
		or.Use(f, framework.Object)
		or.Return()
		oc := act.Method("onCreate", 1)
		rv := oc.New("it/R")
		oc.PutField(rv, "it/R", "outer", oc.This())
		oc.PutThis("rcv", rv)
		oc.InvokeVoid(oc.This(), "it/A", "registerReceiver", rv)
		oc.InvokeVoid(oc.This(), "it/A", "unregisterReceiver", rv)
		oc.Return()
	})
	w := runAll(pkg, Options{})
	if len(w.NPEs()) != 0 {
		t.Errorf("unregistered receiver still fired: %v", w.NPEs())
	}
}

func TestMaxStepsBoundsRunaway(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		oc := act.Method("onCreate", 1)
		oc.Label("loop")
		oc.Goto("loop")
	})
	w := newWorld(pkg, Options{MaxSteps: 500})
	Run(w, nil)
	if w.Steps() > 500 {
		t.Errorf("steps = %d, want <= 500", w.Steps())
	}
}

func TestThrowAbortsTaskOnly(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		oc := act.Method("onCreate", 1)
		ex := oc.New(framework.Exception)
		oc.Throw(ex)
		oc.Return() // unreachable
		orr := act.Method("onResume", 0)
		orr.Return()
	})
	w := runAll(pkg, Options{Trace: true})
	trace := strings.Join(w.Trace(), "\n")
	if !strings.Contains(trace, "throw") {
		t.Error("throw not traced")
	}
	if !strings.Contains(trace, "fire lifecycle:onResume") {
		t.Error("execution must continue after an aborted task")
	}
}

func TestNPEAttributionNamesLoadSite(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("f", "it/V")
		b.Class("it/V", framework.Object).Method("use", 0).Return()
		oc := act.Method("onCreate", 1)
		f := oc.GetThis("f") // null: never assigned
		oc.Use(f, "it/V")
		oc.Return()
	})
	w := runAll(pkg, Options{})
	if len(w.NPEs()) != 1 {
		t.Fatalf("NPEs = %v", w.NPEs())
	}
	npe := w.NPEs()[0]
	if npe.Field.Name != "f" {
		t.Errorf("NPE field = %v, want f", npe.Field)
	}
	if !strings.Contains(npe.LoadedAt.Method, "onCreate") {
		t.Errorf("LoadedAt = %v", npe.LoadedAt)
	}
}

// TestStaticFieldThroughSubclass: a static load reads the slot a
// static store wrote, also when either ref names the field through a
// subclass of the class that declares it, so the use does not throw.
func TestStaticFieldThroughSubclass(t *testing.T) {
	for _, owners := range [][2]string{{"it/A", "it/Sub"}, {"it/Sub", "it/A"}} {
		pkg := buildPkg(t, func(b *appbuilder.Builder) {
			act := b.Activity("it/A")
			act.StaticField("cur", "it/V")
			b.Class("it/Sub", "it/A")
			b.Class("it/V", framework.Object).Method("use", 0).Return()
			oc := act.Method("onCreate", 1)
			oc.PutStatic(owners[0], "cur", oc.New("it/V"))
			oc.Use(oc.GetStatic(owners[1], "cur"), "it/V")
			oc.Return()
		})
		if npes := runAll(pkg, Options{}).NPEs(); len(npes) != 0 {
			t.Errorf("store via %s, load via %s: NPEs = %v, want none", owners[0], owners[1], npes)
		}
	}
}

func TestNPEAttributionThroughCallArguments(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("f", "it/V")
		b.Class("it/V", framework.Object).Method("use", 0).Return()
		helper := act.Method("deref", 1)
		helper.Use(helper.Arg(0), "it/V")
		helper.Return()
		oc := act.Method("onCreate", 1)
		f := oc.GetThis("f")
		oc.InvokeThis("deref", f)
		oc.Return()
	})
	w := runAll(pkg, Options{})
	if len(w.NPEs()) != 1 {
		t.Fatalf("NPEs = %v", w.NPEs())
	}
	if !strings.Contains(w.NPEs()[0].LoadedAt.Method, "onCreate") {
		t.Errorf("load-site attribution lost across call: %v", w.NPEs()[0])
	}
}

// TestOverwrittenRegisterDropsLoadSite checks NPE attribution after a
// register that held a getfield result is overwritten: the NPE must not
// name the overwritten getfield as its load site, or a validation would
// accept it as a witness for a warning at that getfield.
func TestOverwrittenRegisterDropsLoadSite(t *testing.T) {
	const src = `app it
manifest {
  activity it/A main
}
class it/V extends java/lang/Object {
  method use(0) {
    return
  }
}
class it/A extends android/app/Activity {
  field f it/V
  method none(0) {
    r1 = null
    return r1
  }
  method onCreate(1) {
    r2 = new it/V
    r0.it/A.f = r2
    r3 = r0.it/A.f
    %s
    call r3.it/V.use()
    return
  }
}
`
	for _, c := range []struct{ name, overwrite string }{
		{"unresolved invoke-static", "r3 = ext/Lib.get()"},
		{"const-str", `r3 = "s"`},
		{"const-int", "r3 = 7"},
		{"intrinsic result", "r3 = r2.it/V.absent()"},
		{"app-method return", "r3 = r0.it/A.none()"},
	} {
		pkg, err := dexasm.Parse(fmt.Sprintf(src, c.overwrite))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w := runAll(pkg, Options{})
		want := NPE{At: ir.InstrID{Method: "it/A.onCreate", Index: 4}, Task: "looper"}
		if len(w.NPEs()) != 1 || w.NPEs()[0] != want {
			t.Errorf("%s: NPEs = %v, want [%v]", c.name, w.NPEs(), want)
		}
	}
}

// TestSparseFramesKeepValues runs methods that name a few registers
// numbered up to r65535, so each frame holds only the registers its
// method names. A new object returned into the caller's r60000 must be
// there for a call, and a null passed as an argument and moved to
// r65535 must keep its load site.
func TestSparseFramesKeepValues(t *testing.T) {
	const src = `app it
manifest {
  activity it/A main
}
class it/V extends java/lang/Object {
  method use(0) {
    return
  }
}
class it/A extends android/app/Activity {
  field f it/V
  method make(0) {
    r65535 = new it/V
    return r65535
  }
  method deref(1) {
    r65535 = r1
    call r65535.it/V.use()
    return
  }
  method onCreate(1) {
    r60000 = r0.it/A.make()
    call r60000.it/V.use()
    r3 = r0.it/A.f
    call r0.it/A.deref(r3)
    return
  }
}
`
	pkg, err := dexasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	code := NewCode(pkg, cha.New(pkg.Program))
	for ref, want := range map[string][]int32{
		"it/A.make":     {0, 65535},
		"it/A.deref":    {0, 1, 65535},
		"it/A.onCreate": {0, 1, 3, 60000},
	} {
		m, err := code.h.MethodByRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := code.regs[m]; !slices.Equal(got, want) {
			t.Errorf("%s numbered %v, want %v", ref, got, want)
		}
	}
	w := code.NewWorld(Options{})
	Run(w, nil)
	want := NPE{
		At:       ir.InstrID{Method: "it/A.deref", Index: 1},
		LoadedAt: ir.InstrID{Method: "it/A.onCreate", Index: 2},
		Field:    ir.FieldRef{Class: "it/A", Name: "f"},
		Task:     "looper",
	}
	if len(w.NPEs()) != 1 || w.NPEs()[0] != want {
		t.Errorf("NPEs = %v, want [%v]", w.NPEs(), want)
	}
}

// offeredKeys runs w to the end, always taking the first option, and
// returns the key of every option offered on the way.
func offeredKeys(w *World) map[string]bool {
	offered := make(map[string]bool)
	for !w.Done() {
		opts := w.options()
		for _, o := range opts {
			offered[o.key] = true
		}
		w.take(opts[0])
	}
	return offered
}

// builtKeys returns the keys of the events w has built, in build order.
func builtKeys(w *World) []string {
	var keys []string
	for _, ev := range w.events {
		keys = append(keys, ev.key)
	}
	return keys
}

// TestRejectedEventsAreNeverBuilt pins event elision. onCreate registers
// three click listeners and binds a service connection; the filter
// rejects the second listener and onServiceConnected. The events it
// accepts keep the keys they have in the unfiltered world, and neither
// the rejected listener nor onServiceDisconnected, which may only fire
// after the rejected onServiceConnected, is ever offered.
func TestRejectedEventsAreNeverBuilt(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		oc := act.Method("onCreate", 1)
		for _, l := range []string{"it/L1", "it/L2", "it/L3"} {
			b.Class(l, framework.Object, framework.OnClickListener).Method("onClick", 1).Return()
			oc.InvokeVoid(oc.New(framework.View), framework.View, "setOnClickListener", oc.New(l))
		}
		conn := b.ServiceConn("it/C")
		conn.Method("onServiceConnected", 1).Return()
		conn.Method("onServiceDisconnected", 1).Return()
		oc.InvokeVoid(oc.This(), "it/A", "bindService", oc.New("it/C"))
		oc.Return()
	})
	rejectedKeys := map[string]bool{
		"event:2:ui:it/L2.onClick":               true,
		"event:4:svc:it/C.onServiceConnected":    true,
		"event:5:svc:it/C.onServiceDisconnected": true,
	}

	all := newWorld(pkg, Options{})
	allOffered := offeredKeys(all)
	var want []string
	for _, k := range builtKeys(all) {
		if !rejectedKeys[k] {
			want = append(want, k)
		}
	}
	for k := range rejectedKeys {
		if !allOffered[k] {
			t.Fatalf("unfiltered world never offers %s; offered %v", k, allOffered)
		}
	}

	filter := func(kind EventKind, m *ir.Method, component string) bool {
		return m.Ref() != "it/L2.onClick" && m.Ref() != "it/C.onServiceConnected"
	}
	kept := newWorld(pkg, Options{EventFilter: filter})
	keptOffered := offeredKeys(kept)
	if got := builtKeys(kept); !slices.Equal(got, want) {
		t.Errorf("filtered world built %v, want %v", got, want)
	}
	for k := range rejectedKeys {
		if keptOffered[k] {
			t.Errorf("filtered world offered %s", k)
		}
	}
	for _, k := range want {
		if !keptOffered[k] {
			t.Errorf("filtered world never offered accepted event %s", k)
		}
	}
}

func TestStopOnNPEHalts(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("f", "it/V")
		b.Class("it/V", framework.Object).Method("use", 0).Return()
		oc := act.Method("onCreate", 1)
		f := oc.GetThis("f")
		oc.Use(f, "it/V")
		oc.Return()
		orr := act.Method("onResume", 0)
		g := orr.GetThis("f")
		orr.Use(g, "it/V")
		orr.Return()
	})
	w := newWorld(pkg, Options{StopOnNPE: true})
	Run(w, nil)
	if len(w.NPEs()) != 1 {
		t.Errorf("StopOnNPE should record exactly one NPE, got %d", len(w.NPEs()))
	}
}

func TestUnreachableComponentsNeverRun(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		dead := b.UnreachableActivity("it/Dead")
		oc := dead.Method("onCreate", 1)
		f := oc.GetThis("f")
		oc.Use(f, framework.Object)
		oc.Return()
		dead.Field("f", framework.Object)
	})
	w := runAll(pkg, Options{})
	if len(w.NPEs()) != 0 {
		t.Errorf("unreachable component executed: %v", w.NPEs())
	}
}

func TestAsyncTaskChainOrder(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		task := b.AsyncTaskClass("it/T")
		task.Field("v", framework.Object)
		pre := task.Method("onPreExecute", 0)
		o := pre.New(framework.Object)
		pre.PutThis("v", o)
		pre.Return()
		dib := task.Method("doInBackground", 0)
		v := dib.GetThis("v")
		dib.Use(v, framework.Object) // safe only if pre ran first
		dib.Return()
		post := task.Method("onPostExecute", 0)
		v2 := post.GetThis("v")
		post.Use(v2, framework.Object)
		post.Return()
		oc := act.Method("onCreate", 1)
		tk := oc.New("it/T")
		oc.InvokeVoid(tk, "it/T", "execute")
		oc.Return()
	})
	w := runAll(pkg, Options{})
	if len(w.NPEs()) != 0 {
		t.Errorf("AsyncTask chain violated pre->body->post order: %v", w.NPEs())
	}
}

func TestWakeLockCounting(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("wl", framework.WakeLock)
		oc := act.Method("onCreate", 1)
		pm := oc.New(framework.PowerManager)
		wl := oc.Invoke(pm, framework.PowerManager, "newWakeLock")
		oc.PutThis("wl", wl)
		oc.InvokeVoid(wl, framework.WakeLock, "acquire")
		oc.InvokeVoid(wl, framework.WakeLock, "acquire") // reentrant
		oc.InvokeVoid(wl, framework.WakeLock, "release")
		oc.Return()
	})
	w := runAll(pkg, Options{})
	if w.HeldWakeLocks() != 1 {
		t.Errorf("held = %d, want 1 (2 acquires - 1 release)", w.HeldWakeLocks())
	}

	pkg2 := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/B")
		oc := act.Method("onCreate", 1)
		pm := oc.New(framework.PowerManager)
		wl := oc.Invoke(pm, framework.PowerManager, "newWakeLock")
		oc.InvokeVoid(wl, framework.WakeLock, "acquire")
		oc.InvokeVoid(wl, framework.WakeLock, "release")
		oc.Return()
	})
	w2 := runAll(pkg2, Options{})
	if w2.HeldWakeLocks() != 0 {
		t.Errorf("held = %d, want 0 (balanced)", w2.HeldWakeLocks())
	}
}

func TestExecutorAndTimerSpawnThreads(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		act.Field("done", framework.Object)
		job := b.Runnable("it/Job")
		job.Field("outer", "it/A")
		rm := job.Method("run", 0)
		o := rm.GetThis("outer")
		v := rm.New(framework.Object)
		rm.PutField(o, "it/A", "done", v)
		rm.Return()
		tt := b.Class("it/Tick", framework.TimerTask)
		tt.Field("outer", "it/A")
		tm := tt.Method("run", 0)
		to := tm.GetThis("outer")
		tv := tm.New(framework.Object)
		tm.PutField(to, "it/A", "done", tv)
		tm.Return()
		oc := act.Method("onCreate", 1)
		pool := oc.New(framework.ExecutorService)
		j := oc.New("it/Job")
		oc.PutField(j, "it/Job", "outer", oc.This())
		oc.InvokeVoid(pool, framework.ExecutorService, "execute", j)
		timer := oc.New(framework.Timer)
		k := oc.New("it/Tick")
		oc.PutField(k, "it/Tick", "outer", oc.This())
		zero := oc.Reg()
		oc.Int(zero, 0)
		oc.InvokeVoid(timer, framework.Timer, "schedule", k, zero)
		oc.Return()
	})
	w := newWorld(pkg, Options{Trace: true})
	Run(w, nil)
	trace := strings.Join(w.Trace(), "\n")
	if !strings.Contains(trace, "spawn pool:it/Job") {
		t.Errorf("executor job not spawned:\n%s", trace)
	}
	if !strings.Contains(trace, "spawn pool:it/Tick") {
		t.Errorf("timer task not spawned:\n%s", trace)
	}
}

func TestViewPostEnqueuesRunnable(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		job := b.Runnable("it/Job")
		job.Method("run", 0).Return()
		oc := act.Method("onCreate", 1)
		view := oc.New(framework.View)
		j := oc.New("it/Job")
		oc.InvokeVoid(view, framework.View, "post", j)
		oc.Return()
	})
	w := newWorld(pkg, Options{Trace: true})
	Run(w, nil)
	trace := strings.Join(w.Trace(), "\n")
	if !strings.Contains(trace, "enqueue post:it/Job.run") {
		t.Errorf("View.post must enqueue on the looper:\n%s", trace)
	}
}

func TestSpawnFilterSuppressesThreads(t *testing.T) {
	pkg := buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		th := b.ThreadClass("it/W")
		th.Method("run", 0).Return()
		oc := act.Method("onCreate", 1)
		tv := oc.New("it/W")
		oc.InvokeVoid(tv, "it/W", "start")
		oc.Return()
	})
	opts := Options{Trace: true, SpawnFilter: func(class string) bool { return false }}
	w := newWorld(pkg, opts)
	Run(w, nil)
	for _, line := range w.Trace() {
		if strings.HasPrefix(line, "spawn") {
			t.Errorf("spawn filter ignored: %s", line)
		}
	}
}

// monitorDeadlock builds an app whose onCreate locks an object, starts a
// thread that locks the same object, and throws while still holding the
// lock: the thread stays blocked forever.
func monitorDeadlock(t *testing.T) *apk.Package {
	return buildPkg(t, func(b *appbuilder.Builder) {
		act := b.Activity("it/A")
		th := b.ThreadClass("it/W")
		th.Field("lock", framework.Object)
		run := th.Method("run", 0)
		lk := run.GetThis("lock")
		run.Lock(lk)
		run.Unlock(lk)
		run.Return()
		oc := act.Method("onCreate", 1)
		obj := oc.New(framework.Object)
		oc.Lock(obj)
		tv := oc.New("it/W")
		oc.PutField(tv, "it/W", "lock", obj)
		oc.InvokeVoid(tv, "it/W", "start")
		oc.Throw(oc.New(framework.Exception))
		oc.Return()
	})
}

// Done must agree with Run: an executor blocked on a monitor is not an
// option, so a run that ends with only blocked executors left is done.
func TestDoneAgreesWithRunOnMonitorDeadlock(t *testing.T) {
	w := newWorld(monitorDeadlock(t), Options{Trace: true})
	Run(w, nil)
	if !strings.Contains(strings.Join(w.Trace(), "\n"), "spawn thread:it/W") {
		t.Fatalf("thread never started:\n%s", strings.Join(w.Trace(), "\n"))
	}
	if !w.Done() {
		t.Error("Run stopped with only a monitor-blocked thread left, but Done() = false")
	}
}

func TestNewWorldRejectsForeignHierarchy(t *testing.T) {
	app := func(b *appbuilder.Builder) { b.Activity("it/A").Method("onCreate", 1).Return() }
	pkg, other := buildPkg(t, app), buildPkg(t, app)
	defer func() {
		if recover() == nil {
			t.Error("NewWorld accepted a hierarchy built over another program")
		}
	}()
	NewWorld(pkg, cha.New(other.Program), Options{})
}
