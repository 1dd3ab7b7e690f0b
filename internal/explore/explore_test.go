package explore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/framework"
	"nadroid/internal/interp"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

const (
	actCls = "x/A"
	valCls = "x/V"
)

// findAnyNPE runs an unfocused, unpruned search for any NPE.
func findAnyNPE(pkg *apk.Package, opts Options) (*Witness, bool) {
	wit, ok, _ := findNPE(context.Background(), interp.NewCode(pkg, cha.New(pkg.Program)), opts, nil, nil)
	return wit, ok
}

// base returns an activity fixture with field f and a `use`-able value
// class.
func base() (*appbuilder.Builder, *appbuilder.ClassBuilder) {
	b := appbuilder.New("explore-fixture")
	act := b.Activity(actCls)
	act.Field("f", valCls)
	act.Field("view", framework.View)
	b.Class(valCls, framework.Object).Method("use", 0).Return()
	return b, act
}

// detectUAF runs the pipeline's uaf detector over the shared detector
// context and returns its unfiltered warnings.
func detectUAF(t testing.TB, m *threadify.Model) *uaf.Detection {
	t.Helper()
	ctx := context.Background()
	det, _ := detect.ByName("uaf")
	res, err := detect.Run(ctx, detect.BuildContext(ctx, "", m, detect.Options{}), []detect.Detector{det})
	if err != nil {
		t.Fatal(err)
	}
	return res.UAF
}

func build(t *testing.T, b *appbuilder.Builder) *apk.Package {
	t.Helper()
	pkg, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return pkg
}

// connectBotApp reproduces Figure 1(a) dynamically: onStart binds a
// connection whose onServiceConnected allocates `f` and whose
// onServiceDisconnected frees it; onCreateContextMenu dereferences it.
func connectBotApp(t *testing.T) *apk.Package {
	b, act := base()
	conn := b.ServiceConn("x/Conn")
	conn.Field("outer", actCls)
	sc := conn.Method("onServiceConnected", 1)
	o := sc.GetThis("outer")
	v := sc.New(valCls)
	sc.PutField(o, actCls, "f", v)
	sc.Return()
	sd := conn.Method("onServiceDisconnected", 1)
	o2 := sd.GetThis("outer")
	sd.Free(o2, actCls, "f")
	sd.Return()
	oc := act.Method("onCreate", 1)
	oc.Return()
	os := act.Method("onStart", 0)
	cn := os.New("x/Conn")
	os.PutField(cn, "x/Conn", "outer", os.This())
	os.InvokeVoid(os.This(), actCls, "bindService", cn)
	os.Return()
	menu := act.Method("onCreateContextMenu", 1)
	f := menu.GetThis("f")
	menu.Use(f, valCls)
	menu.Return()
	return build(t, b)
}

func TestDefaultScheduleRunsLifecycle(t *testing.T) {
	b, act := base()
	oc := act.Method("onCreate", 1)
	nv := oc.New(valCls)
	oc.PutThis("f", nv)
	oc.Return()
	pkg := build(t, b)
	w := interp.NewWorld(pkg, cha.New(pkg.Program), interp.Options{Trace: true})
	interp.Run(w, nil)
	if len(w.NPEs()) != 0 {
		t.Fatalf("safe app raised NPE: %v", w.NPEs())
	}
	joined := strings.Join(w.Trace(), "\n")
	if !strings.Contains(joined, "lifecycle:onCreate") {
		t.Errorf("trace missing onCreate:\n%s", joined)
	}
}

func TestExplorerFindsConnectBotUAF(t *testing.T) {
	pkg := connectBotApp(t)
	wit, ok := findAnyNPE(pkg, Options{MaxSchedules: 2000})
	if !ok {
		t.Fatal("explorer must find the Figure 1(a) NPE")
	}
	if !strings.Contains(wit.NPE.LoadedAt.Method, "onCreateContextMenu") {
		t.Errorf("NPE loaded at %v, want onCreateContextMenu", wit.NPE.LoadedAt)
	}
	if wit.NPE.Field.Name != "f" {
		t.Errorf("NPE field = %v, want f", wit.NPE.Field)
	}
}

func TestValidateWarningConfirmsStaticReport(t *testing.T) {
	pkg := connectBotApp(t)
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := detectUAF(t, m)
	var target *uaf.Warning
	for _, w := range d.Warnings {
		if strings.Contains(w.Use.Method, "onCreateContextMenu") &&
			strings.Contains(w.Free.Method, "onServiceDisconnected") {
			target = w
		}
	}
	if target == nil {
		t.Fatal("static stage missed the warning")
	}
	vals, err := ValidateAllDetailed(context.Background(), pkg, m, []*uaf.Warning{target}, Options{MaxSchedules: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !vals[0].Harmful {
		t.Error("dynamic validation must confirm the warning as harmful")
	}
}

// A properly if-guarded use between two looper callbacks can never NPE:
// callbacks are atomic on the looper.
func TestGuardedLooperCallbacksAreSafe(t *testing.T) {
	b, act := base()
	l1 := b.Class("x/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o := c1.GetThis("outer")
	chk := c1.GetField(o, actCls, "f")
	c1.IfNull(chk, "skip")
	f := c1.GetField(o, actCls, "f")
	c1.Use(f, valCls)
	c1.Label("skip")
	c1.Return()
	l2 := b.Class("x/L2", framework.Object, framework.OnClickListener)
	l2.Field("outer", actCls)
	c2 := l2.Method("onClick", 1)
	o2 := c2.GetThis("outer")
	c2.Free(o2, actCls, "f")
	c2.Return()
	oc := act.Method("onCreate", 1)
	v := oc.GetThis("view")
	_ = v
	view := oc.New(framework.View)
	oc.PutThis("view", view)
	for _, cls := range []string{"x/L1", "x/L2"} {
		l := oc.New(cls)
		oc.PutField(l, cls, "outer", oc.This())
		oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	}
	oc.Return()
	pkg := build(t, b)
	if wit, ok := findAnyNPE(pkg, Options{MaxSchedules: 3000}); ok {
		t.Fatalf("guarded looper callbacks must be safe, got %v", wit)
	}
}

// The same guard is NOT safe against a background thread: Figure 1(c).
func TestGuardUnsafeAgainstBackgroundThread(t *testing.T) {
	b, act := base()
	l1 := b.Class("x/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o := c1.GetThis("outer")
	chk := c1.GetField(o, actCls, "f")
	c1.IfNull(chk, "skip")
	f := c1.GetField(o, actCls, "f")
	c1.Use(f, valCls)
	c1.Label("skip")
	c1.Return()
	w := b.ThreadClass("x/W")
	w.Field("outer", actCls)
	run := w.Method("run", 0)
	wo := run.GetThis("outer")
	run.Free(wo, actCls, "f")
	run.Return()
	oc := act.Method("onCreate", 1)
	nv := oc.New(valCls)
	oc.PutThis("f", nv)
	view := oc.New(framework.View)
	oc.PutThis("view", view)
	l := oc.New("x/L1")
	oc.PutField(l, "x/L1", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	th := oc.New("x/W")
	oc.PutField(th, "x/W", "outer", oc.This())
	oc.InvokeVoid(th, "x/W", "start")
	oc.Return()
	pkg := build(t, b)
	wit, ok := findAnyNPE(pkg, Options{MaxSchedules: 4000})
	if !ok {
		t.Fatal("check-then-use vs background free must be explorable to an NPE")
	}
	if !strings.Contains(wit.NPE.At.Method, "onClick") {
		t.Errorf("NPE at %v, want inside onClick", wit.NPE.At)
	}
}

// finish() stops UI events: a free-then-finish canceller makes the
// post-finish use unreachable.
func TestFinishPreventsLaterUICallbacks(t *testing.T) {
	b, act := base()
	l1 := b.Class("x/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o := c1.GetThis("outer")
	c1.Free(o, actCls, "f")
	c1.InvokeVoid(o, actCls, "finish")
	c1.Return()
	l2 := b.Class("x/L2", framework.Object, framework.OnClickListener)
	l2.Field("outer", actCls)
	c2 := l2.Method("onClick", 1)
	o2 := c2.GetThis("outer")
	f := c2.GetField(o2, actCls, "f")
	c2.Use(f, valCls)
	c2.Return()
	oc := act.Method("onCreate", 1)
	nv := oc.New(valCls)
	oc.PutThis("f", nv)
	view := oc.New(framework.View)
	oc.PutThis("view", view)
	for _, cls := range []string{"x/L1", "x/L2"} {
		l := oc.New(cls)
		oc.PutField(l, cls, "outer", oc.This())
		oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	}
	oc.Return()
	pkg := build(t, b)
	if wit, ok := findAnyNPE(pkg, Options{MaxSchedules: 4000}); ok {
		t.Fatalf("finish() must prevent the post-free use, got %v", wit)
	}
}

// PHB's unsoundness: a SECOND click can interleave after the posted free.
func TestSecondClickExposesPostedFree(t *testing.T) {
	b, act := base()
	act.Field("handler", "x/H")
	h := b.HandlerClass("x/H")
	h.Field("outer", actCls)
	hm := h.Method("handleMessage", 1)
	ho := hm.GetThis("outer")
	hm.Free(ho, actCls, "f")
	hm.Return()
	l1 := b.Class("x/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o := c1.GetThis("outer")
	hh := c1.GetField(o, actCls, "handler")
	msg := c1.New(framework.Message)
	c1.InvokeVoid(hh, "x/H", "sendMessage", msg)
	f := c1.GetField(o, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	oc := act.Method("onCreate", 1)
	nv := oc.New(valCls)
	oc.PutThis("f", nv)
	hr := oc.New("x/H")
	oc.PutField(hr, "x/H", "outer", oc.This())
	oc.PutThis("handler", hr)
	view := oc.New(framework.View)
	oc.PutThis("view", view)
	l := oc.New("x/L1")
	oc.PutField(l, "x/L1", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	oc.Return()
	pkg := build(t, b)
	// One click: safe (PHB reasoning holds).
	if wit, ok := findAnyNPE(pkg, Options{MaxSchedules: 3000, Interp: interp.Options{MaxUIFires: 1}}); ok {
		t.Fatalf("single click must be safe, got %v", wit)
	}
	// Two clicks: the second click's use can follow the first's posted free.
	if _, ok := findAnyNPE(pkg, Options{MaxSchedules: 6000, Interp: interp.Options{MaxUIFires: 2}}); !ok {
		t.Fatal("double click must expose the posted free (PHB unsoundness)")
	}
}

// Monitor locks exclude the interleaving: guarded use and free both under
// the same lock never NPE.
func TestLocksPreventInterleaving(t *testing.T) {
	b, act := base()
	act.Field("lock", valCls)
	l1 := b.Class("x/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o := c1.GetThis("outer")
	lk := c1.GetField(o, actCls, "lock")
	c1.Lock(lk)
	chk := c1.GetField(o, actCls, "f")
	c1.IfNull(chk, "skip")
	f := c1.GetField(o, actCls, "f")
	c1.Use(f, valCls)
	c1.Label("skip")
	c1.Unlock(lk)
	c1.Return()
	w := b.ThreadClass("x/W")
	w.Field("outer", actCls)
	run := w.Method("run", 0)
	wo := run.GetThis("outer")
	lk2 := run.GetField(wo, actCls, "lock")
	run.Lock(lk2)
	run.Free(wo, actCls, "f")
	run.Unlock(lk2)
	run.Return()
	oc := act.Method("onCreate", 1)
	lv := oc.New(valCls)
	oc.PutThis("lock", lv)
	nv := oc.New(valCls)
	oc.PutThis("f", nv)
	view := oc.New(framework.View)
	oc.PutThis("view", view)
	l := oc.New("x/L1")
	oc.PutField(l, "x/L1", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	th := oc.New("x/W")
	oc.PutField(th, "x/W", "outer", oc.This())
	oc.InvokeVoid(th, "x/W", "start")
	oc.Return()
	pkg := build(t, b)
	if wit, ok := findAnyNPE(pkg, Options{MaxSchedules: 4000}); ok {
		t.Fatalf("lock-protected check-then-use must be safe, got %v", wit)
	}
}

// A run that deadlocks on a monitor while a wake lock is held ends
// awake: FindNoSleep must count it (it once asked World.Done, which
// still listed the blocked thread as runnable).
func TestNoSleepCountsMonitorDeadlock(t *testing.T) {
	b, act := base()
	th := b.ThreadClass("x/W")
	th.Field("lock", framework.Object)
	run := th.Method("run", 0)
	lk := run.GetThis("lock")
	run.Lock(lk)
	run.Unlock(lk)
	run.Return()
	oc := act.Method("onCreate", 1)
	pm := oc.New(framework.PowerManager)
	wl := oc.Invoke(pm, framework.PowerManager, "newWakeLock")
	oc.InvokeVoid(wl, framework.WakeLock, "acquire")
	obj := oc.New(framework.Object)
	oc.Lock(obj)
	tv := oc.New("x/W")
	oc.PutField(tv, "x/W", "lock", obj)
	oc.InvokeVoid(tv, "x/W", "start")
	oc.Throw(oc.New(framework.Exception))
	oc.Return()
	pkg := build(t, b)
	if _, ok := FindNoSleep(pkg, Options{MaxSchedules: 50}); !ok {
		t.Error("a deadlock with a wake lock held must witness a no-sleep bug")
	}
}

// Determinism: running the same schedule twice yields identical NPEs —
// required for witness replay to be meaningful.
func TestRunDeterministic(t *testing.T) {
	pkg := connectBotApp(t)
	h := cha.New(pkg.Program)
	for _, schedule := range [][]int{nil, {1}, {2, 1}, {0, 3, 1}} {
		w1 := interp.NewWorld(pkg, h, interp.Options{})
		interp.Run(w1, schedule)
		w2 := interp.NewWorld(pkg, h, interp.Options{})
		interp.Run(w2, schedule)
		if len(w1.NPEs()) != len(w2.NPEs()) {
			t.Fatalf("schedule %v: NPE counts differ: %d vs %d", schedule, len(w1.NPEs()), len(w2.NPEs()))
		}
		for i := range w1.NPEs() {
			if w1.NPEs()[i].At != w2.NPEs()[i].At {
				t.Errorf("schedule %v: NPE %d differs: %v vs %v", schedule, i, w1.NPEs()[i], w2.NPEs()[i])
			}
		}
		if w1.Steps() != w2.Steps() {
			t.Errorf("schedule %v: steps differ: %d vs %d", schedule, w1.Steps(), w2.Steps())
		}
	}
}

// A witness the pruned validation search finds, as the pipeline runs
// it, must reproduce under Replay (the narrative must end in the same
// NPE).
func TestWitnessReplayReproduces(t *testing.T) {
	pkg := connectBotApp(t)
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := detectUAF(t, m)
	for _, w := range d.Warnings {
		if !strings.Contains(w.Use.Method, "onCreateContextMenu") {
			continue
		}
		opts := Options{MaxSchedules: 2000, Conflicts: NewConflicts(m, race.CollectAccesses(m))}
		vals, err := ValidateAllDetailed(context.Background(), pkg, m, []*uaf.Warning{w}, opts)
		if err != nil {
			t.Fatal(err)
		}
		wit := vals[0].Witness
		if wit == nil {
			t.Fatal("no witness")
		}
		lines := Replay(pkg, m, w, wit, Options{})
		joined := strings.Join(lines, "\n")
		if !strings.Contains(joined, "NPE "+wit.NPE.String()) {
			t.Errorf("replay narrative missing the NPE %v:\n%s", wit.NPE, joined)
		}
		return
	}
	t.Fatal("target warning not found")
}

// TestValidateWorkerPanicReachesCaller validates, next to three of
// ConnectBot's warnings, a copy of one whose pair names a thread the
// model does not have, so focusing its search indexes out of range. The
// panic must reach the goroutine that called ValidateAllDetailed at
// every worker count: a panic left on a worker goroutine would end the
// process, past any recover of the caller's.
func TestValidateWorkerPanicReachesCaller(t *testing.T) {
	spec, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("ConnectBot missing from corpus")
	}
	a := analyze(t, spec.Spec)
	if len(a.alive) < 3 {
		t.Fatalf("%d warnings survive, want at least 3", len(a.alive))
	}
	bad := *a.alive[0]
	bad.Pairs = []uaf.ThreadPair{{Use: len(a.model.Threads) + 5, Free: a.alive[0].Pairs[0].Free}}
	warnings := append(append([]*uaf.Warning(nil), a.alive[:3]...), &bad)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("ValidateAllDetailed returned; want the worker's panic")
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "index out of range") {
					t.Errorf("panic %q does not name the worker's fault", msg)
				}
				if workers > 1 && !strings.Contains(msg, "warningEventFilter") {
					t.Errorf("panic %q does not carry the worker's stack", msg)
				}
			}()
			ValidateAllDetailed(context.Background(), a.pkg, a.model, warnings,
				Options{MaxSchedules: 200, Workers: workers, Conflicts: a.conflicts})
		})
	}
}
