package filters

import (
	"context"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/detect"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

var _ = apk.Package{} // keep the import pinned for fixture helpers

// fixture builds apps shaped like the paper's Figure 4 examples: an
// activity with a field `f`, two click listeners with custom bodies,
// and optional extra wiring.
type fixture struct {
	b   *appbuilder.Builder
	act *appbuilder.ClassBuilder
}

const (
	actCls = "fx/A"
	valCls = "fx/V"
)

func newFixture() *fixture {
	b := appbuilder.New("fixture")
	act := b.Activity(actCls)
	act.Field("f", valCls)
	act.Field("view", framework.View)
	b.Class(valCls, framework.Object).Method("use", 0).Return()
	return &fixture{b: b, act: act}
}

// listener declares a click listener class holding an `outer` activity
// reference, returning its method builder with `outer` pre-loaded.
func (fx *fixture) listener(name string) (*appbuilder.MethodBuilder, int) {
	l := fx.b.Class(name, framework.Object, framework.OnClickListener)
	l.Field("outer", actCls)
	mb := l.Method("onClick", 1)
	outer := mb.GetThis("outer")
	return mb, outer
}

// register wires listeners in onCreate.
func (fx *fixture) register(classes ...string) {
	oc := fx.act.Method("onCreate", 1)
	v := oc.GetThis("view")
	for _, cls := range classes {
		l := oc.New(cls)
		oc.PutField(l, cls, "outer", oc.This())
		oc.InvokeVoid(v, framework.View, "setOnClickListener", l)
	}
	oc.Return()
}

func (fx *fixture) detect(t *testing.T) (*uaf.Detection, *Context) {
	t.Helper()
	pkg, err := fx.b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return detectPkg(t, pkg)
}

func detectPkg(t *testing.T, pkg *apk.Package) (*uaf.Detection, *Context) {
	t.Helper()
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("threadify: %v", err)
	}
	d := detectUAF(t, m)
	return d, NewContext(d)
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

// findWarning returns the warning whose use and free methods contain the
// given substrings.
func findWarning(t *testing.T, d *uaf.Detection, useIn, freeIn string) *uaf.Warning {
	t.Helper()
	for _, w := range d.Warnings {
		if strings.Contains(w.Use.Method, useIn) && strings.Contains(w.Free.Method, freeIn) {
			return w
		}
	}
	t.Fatalf("no warning use~%q free~%q among %d warnings", useIn, freeIn, len(d.Warnings))
	return nil
}

func applyFilter(ctx *Context, d *uaf.Detection, f Filter) {
	for _, w := range d.Warnings {
		if w.Alive() {
			f.Apply(ctx, w)
		}
	}
}

// --- Figure 4(a): MHB-Service ------------------------------------------

func buildMHBServiceFixture() *fixture {
	fx := newFixture()
	conn := fx.b.ServiceConn("fx/Conn")
	conn.Field("outer", actCls)
	sc := conn.Method("onServiceConnected", 1)
	o := sc.GetThis("outer")
	f := sc.GetField(o, actCls, "f")
	sc.Use(f, valCls)
	sc.Return()
	sd := conn.Method("onServiceDisconnected", 1)
	o2 := sd.GetThis("outer")
	sd.Free(o2, actCls, "f")
	sd.Return()
	os := fx.act.Method("onStart", 0)
	cn := os.New("fx/Conn")
	os.PutField(cn, "fx/Conn", "outer", os.This())
	os.InvokeVoid(os.This(), actCls, "bindService", cn)
	os.Return()
	return fx
}

func TestMHBPrunesServiceConnectedVsDisconnected(t *testing.T) {
	fx := buildMHBServiceFixture()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "onServiceConnected", "onServiceDisconnected")
	applyFilter(ctx, d, mhbFilter{})
	if w.Alive() {
		t.Error("MHB must prune use-in-SC vs free-in-SD (SC always precedes SD)")
	}
}

func TestMHBKeepsReverseDirection(t *testing.T) {
	// Free in SC, use in SD would mean free HB use: guaranteed null — not
	// pruned by MHB (it prunes only use-HB-free).
	fx := newFixture()
	conn := fx.b.ServiceConn("fx/Conn")
	conn.Field("outer", actCls)
	sc := conn.Method("onServiceConnected", 1)
	o := sc.GetThis("outer")
	sc.Free(o, actCls, "f")
	sc.Return()
	sd := conn.Method("onServiceDisconnected", 1)
	o2 := sd.GetThis("outer")
	f := sd.GetField(o2, actCls, "f")
	sd.Use(f, valCls)
	sd.Return()
	os := fx.act.Method("onStart", 0)
	cn := os.New("fx/Conn")
	os.PutField(cn, "fx/Conn", "outer", os.This())
	os.InvokeVoid(os.This(), actCls, "bindService", cn)
	os.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "onServiceDisconnected", "onServiceConnected")
	applyFilter(ctx, d, mhbFilter{})
	if !w.Alive() {
		t.Error("MHB must not prune free-in-SC vs use-in-SD")
	}
}

func TestMHBLifecyclePrunesOnDestroyFrees(t *testing.T) {
	fx := newFixture()
	// use in onActivityResult, free in onDestroy (the DEvA Table 3 shape).
	oar := fx.act.Method("onActivityResult", 1)
	f := oar.GetThis("f")
	oar.Use(f, valCls)
	oar.Return()
	od := fx.act.Method("onDestroy", 0)
	od.FreeThis("f")
	od.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "onActivityResult", "onDestroy")
	applyFilter(ctx, d, mhbFilter{})
	if w.Alive() {
		t.Error("MHB-Lifecycle must prune use-before-onDestroy frees")
	}
}

func TestMHBDoesNotOrderResumeAndPause(t *testing.T) {
	fx := newFixture()
	orr := fx.act.Method("onResume", 0)
	f := orr.GetThis("f")
	orr.Use(f, valCls)
	orr.Return()
	op := fx.act.Method("onPause", 0)
	op.FreeThis("f")
	op.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "onResume", "onPause")
	applyFilter(ctx, d, mhbFilter{})
	if !w.Alive() {
		t.Error("the back-button cycle forbids MHB between onResume and onPause (§6.1.1)")
	}
}

// --- Figure 4(b): IG -----------------------------------------------------

func buildIGFixture() *fixture {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	chk := c1.GetField(o1, actCls, "f")
	c1.IfNull(chk, "skip")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Label("skip")
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	c2.Free(o2, actCls, "f")
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	return fx
}

func TestIGPrunesGuardedUseBetweenCallbacks(t *testing.T) {
	fx := buildIGFixture()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	applyFilter(ctx, d, igFilter{})
	if w.Alive() {
		t.Error("IG must prune a guarded use between same-looper callbacks")
	}
}

// TestRunWithSharesOriginTable checks that RunWith reads the origin
// table it is given: the IG filter's guard check fills it with the use
// method's origins.
func TestRunWithSharesOriginTable(t *testing.T) {
	d, _ := buildIGFixture().detect(t)
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	origins := ir.NewOrigins()
	RunWith(context.Background(), d, RunConfig{SkipUnsound: true, Origins: origins})
	if w.Alive() {
		t.Fatal("IG must prune a guarded use between same-looper callbacks")
	}
	shared := false
	origins.Each(func(m *ir.Method, _ *ir.OriginInfo) { shared = shared || m.Ref() == w.Use.Method })
	if !shared {
		t.Errorf("the table RunWith was given holds no origins for %s", w.Use.Method)
	}
}

func TestIGDoesNotPruneUnguardedUse(t *testing.T) {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	c2.Free(o2, actCls, "f")
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	applyFilter(ctx, d, igFilter{})
	if !w.Alive() {
		t.Error("IG must not prune an unguarded use")
	}
}

// A guard is NOT atomic against a background thread without a lock: the
// free can interleave between check and use (Figure 1(c)'s pattern).
func TestIGUnsafeAgainstThreadWithoutLock(t *testing.T) {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	chk := c1.GetField(o1, actCls, "f")
	c1.IfNull(chk, "skip")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Label("skip")
	c1.Return()
	// Background thread frees the field.
	w := fx.b.ThreadClass("fx/W")
	w.Field("outer", actCls)
	run := w.Method("run", 0)
	o := run.GetThis("outer")
	run.Free(o, actCls, "f")
	run.Return()
	os := fx.act.Method("onStart", 0)
	th := os.New("fx/W")
	os.PutField(th, "fx/W", "outer", os.This())
	os.InvokeVoid(th, "fx/W", "start")
	os.Return()
	fx.register("fx/L1")
	d, ctx := fx.detect(t)
	warn := findWarning(t, d, "L1.onClick", "W.run")
	applyFilter(ctx, d, igFilter{})
	if !warn.Alive() {
		t.Error("IG must not prune callback-vs-thread guards without a common lock")
	}
}

// With a common lock on both sides, IG applies even across threads.
func TestIGSafeAgainstThreadWithCommonLock(t *testing.T) {
	fx := newFixture()
	fx.act.Field("lock", valCls)
	c1, o1 := fx.listener("fx/L1")
	lk := c1.GetField(o1, actCls, "lock")
	c1.Lock(lk)
	chk := c1.GetField(o1, actCls, "f")
	c1.IfNull(chk, "skip")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Label("skip")
	c1.Unlock(lk)
	c1.Return()
	w := fx.b.ThreadClass("fx/W")
	w.Field("outer", actCls)
	run := w.Method("run", 0)
	o := run.GetThis("outer")
	lk2 := run.GetField(o, actCls, "lock")
	run.Lock(lk2)
	run.Free(o, actCls, "f")
	run.Unlock(lk2)
	run.Return()
	oc := fx.act.Method("onCreate", 1)
	l := oc.New(valCls)
	oc.PutThis("lock", l)
	v := oc.GetThis("view")
	ls := oc.New("fx/L1")
	oc.PutField(ls, "fx/L1", "outer", oc.This())
	oc.InvokeVoid(v, framework.View, "setOnClickListener", ls)
	th := oc.New("fx/W")
	oc.PutField(th, "fx/W", "outer", oc.This())
	oc.InvokeVoid(th, "fx/W", "start")
	oc.Return()
	d, ctx := fx.detect(t)
	warn := findWarning(t, d, "L1.onClick", "W.run")
	applyFilter(ctx, d, igFilter{})
	if warn.Alive() {
		t.Error("IG should prune guarded use vs locked free when both hold the same lock")
	}
}

// --- Figure 4(c): IA -----------------------------------------------------

func TestIAPrunesUseAfterFreshAllocation(t *testing.T) {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	nv := c1.New(valCls)
	c1.PutField(o1, actCls, "f", nv)
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	c2.Free(o2, actCls, "f")
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	applyFilter(ctx, d, iaFilter{})
	if w.Alive() {
		t.Error("IA must prune uses dominated by a fresh allocation store")
	}
}

func TestIADoesNotPruneGetterAllocation(t *testing.T) {
	fx := newFixture()
	fx.act.Method("getF", 0).Return() // opaque getter
	c1, o1 := fx.listener("fx/L1")
	got := c1.Invoke(o1, actCls, "getF")
	c1.PutField(o1, actCls, "f", got)
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	c2.Free(o2, actCls, "f")
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	applyFilter(ctx, d, iaFilter{})
	if !w.Alive() {
		t.Error("IA is conservative: getter results are left to the unsound MA filter")
	}
	applyFilter(ctx, d, maFilter{})
	if w.Alive() {
		t.Error("MA must prune getter-allocation uses")
	}
}

// --- Figure 4(d): RHB ----------------------------------------------------

func TestRHBPrunesWithResumeAllocation(t *testing.T) {
	fx := newFixture()
	orr := fx.act.Method("onResume", 0)
	nv := orr.New(valCls)
	orr.PutThis("f", nv)
	orr.Return()
	op := fx.act.Method("onPause", 0)
	op.FreeThis("f")
	op.Return()
	c1, o1 := fx.listener("fx/L1")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	fx.register("fx/L1")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "onPause")
	applyFilter(ctx, d, rhbFilter{})
	if w.Alive() {
		t.Error("RHB must prune UI-use vs onPause-free when onResume re-allocates")
	}
}

func TestRHBKeepsWithoutResumeAllocation(t *testing.T) {
	fx := newFixture()
	fx.act.Method("onResume", 0).Return() // no allocation
	op := fx.act.Method("onPause", 0)
	op.FreeThis("f")
	op.Return()
	c1, o1 := fx.listener("fx/L1")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	fx.register("fx/L1")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "onPause")
	applyFilter(ctx, d, rhbFilter{})
	if !w.Alive() {
		t.Error("RHB requires an allocation in onResume — the Figure 4(d) harmful case")
	}
}

// --- Figure 4(e): CHB ----------------------------------------------------

func TestCHBPrunesFinishCanceller(t *testing.T) {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	c1.Free(o1, actCls, "f")
	c1.InvokeVoid(o1, actCls, "finish")
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	f := c2.GetField(o2, actCls, "f")
	c2.Use(f, valCls)
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L2.onClick", "L1.onClick")
	applyFilter(ctx, d, chbFilter{})
	if w.Alive() {
		t.Error("CHB must prune: after L1 finishes the activity, L2 cannot run")
	}
}

func TestCHBKeepsWithoutCancel(t *testing.T) {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	c1.Free(o1, actCls, "f")
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	f := c2.GetField(o2, actCls, "f")
	c2.Use(f, valCls)
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L2.onClick", "L1.onClick")
	applyFilter(ctx, d, chbFilter{})
	if !w.Alive() {
		t.Error("CHB must not prune without a cancellation call")
	}
}

// --- Figure 4(f): PHB ----------------------------------------------------

func TestPHBPrunesPosterUseVsPosteeFree(t *testing.T) {
	fx := newFixture()
	fx.act.Field("handler", "fx/H")
	h := fx.b.HandlerClass("fx/H")
	h.Field("outer", actCls)
	hm := h.Method("handleMessage", 1)
	ho := hm.GetThis("outer")
	hm.Free(ho, actCls, "f")
	hm.Return()
	c1, o1 := fx.listener("fx/L1")
	hh := c1.GetField(o1, actCls, "handler")
	msg := c1.New(framework.Message)
	c1.InvokeVoid(hh, "fx/H", "sendMessage", msg)
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	oc := fx.act.Method("onCreate", 1)
	hr := oc.New("fx/H")
	oc.PutField(hr, "fx/H", "outer", oc.This())
	oc.PutThis("handler", hr)
	v := oc.GetThis("view")
	l := oc.New("fx/L1")
	oc.PutField(l, "fx/L1", "outer", oc.This())
	oc.InvokeVoid(v, framework.View, "setOnClickListener", l)
	oc.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "H.handleMessage")
	applyFilter(ctx, d, phbFilter{})
	if w.Alive() {
		t.Error("PHB must prune: the posted handleMessage runs only after onClick completes")
	}
}

func TestPHBKeepsReversePosting(t *testing.T) {
	// The postee uses; the poster frees after posting. Atomicity does not
	// save this: the free precedes the posted use.
	fx := newFixture()
	fx.act.Field("handler", "fx/H")
	h := fx.b.HandlerClass("fx/H")
	h.Field("outer", actCls)
	hm := h.Method("handleMessage", 1)
	ho := hm.GetThis("outer")
	f := hm.GetField(ho, actCls, "f")
	hm.Use(f, valCls)
	hm.Return()
	c1, o1 := fx.listener("fx/L1")
	hh := c1.GetField(o1, actCls, "handler")
	msg := c1.New(framework.Message)
	c1.InvokeVoid(hh, "fx/H", "sendMessage", msg)
	c1.Free(o1, actCls, "f")
	c1.Return()
	oc := fx.act.Method("onCreate", 1)
	hr := oc.New("fx/H")
	oc.PutField(hr, "fx/H", "outer", oc.This())
	oc.PutThis("handler", hr)
	v := oc.GetThis("view")
	l := oc.New("fx/L1")
	oc.PutField(l, "fx/L1", "outer", oc.This())
	oc.InvokeVoid(v, framework.View, "setOnClickListener", l)
	oc.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "H.handleMessage", "L1.onClick")
	applyFilter(ctx, d, phbFilter{})
	if !w.Alive() {
		t.Error("PHB must not prune free-in-poster vs use-in-postee (real UAF direction)")
	}
}

// --- Figure 4(g): UR -----------------------------------------------------

func TestURPrunesReturnOnlyUse(t *testing.T) {
	fx := newFixture()
	g := fx.act.Method("getF", 0)
	f := g.GetThis("f")
	g.ReturnReg(f)
	c1, o1 := fx.listener("fx/L1")
	c1.Invoke(o1, actCls, "getF")
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	c2.Free(o2, actCls, "f")
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "A.getF", "L2.onClick")
	applyFilter(ctx, d, urFilter{})
	if w.Alive() {
		t.Error("UR must prune loads that are only returned")
	}
}

func TestURKeepsDereferencedUse(t *testing.T) {
	fx := newFixture()
	c1, o1 := fx.listener("fx/L1")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	c2, o2 := fx.listener("fx/L2")
	c2.Free(o2, actCls, "f")
	c2.Return()
	fx.register("fx/L1", "fx/L2")
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	applyFilter(ctx, d, urFilter{})
	if !w.Alive() {
		t.Error("UR must keep dereferenced uses")
	}
}

// --- TT ------------------------------------------------------------------

func TestTTPrunesThreadThreadPairs(t *testing.T) {
	fx := newFixture()
	for _, name := range []string{"fx/W1", "fx/W2"} {
		w := fx.b.ThreadClass(name)
		w.Field("outer", actCls)
	}
	r1 := fx.b.Program().Class("fx/W1")
	_ = r1
	w1 := fx.b.Program().Class("fx/W1")
	_ = w1
	run1 := appbuilderMethod(fx, "fx/W1", "run")
	o := run1.GetThis("outer")
	f := run1.GetField(o, actCls, "f")
	run1.Use(f, valCls)
	run1.Return()
	run2 := appbuilderMethod(fx, "fx/W2", "run")
	o2 := run2.GetThis("outer")
	run2.Free(o2, actCls, "f")
	run2.Return()
	os := fx.act.Method("onStart", 0)
	for _, name := range []string{"fx/W1", "fx/W2"} {
		th := os.New(name)
		os.PutField(th, name, "outer", os.This())
		os.InvokeVoid(th, name, "start")
	}
	os.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "W1.run", "W2.run")
	applyFilter(ctx, d, ttFilter{})
	if w.Alive() {
		t.Error("TT must prune pure thread-thread warnings")
	}
}

func TestTTKeepsCallbackThreadPairs(t *testing.T) {
	fx := newFixture()
	w := fx.b.ThreadClass("fx/W")
	w.Field("outer", actCls)
	run := appbuilderMethod(fx, "fx/W", "run")
	o := run.GetThis("outer")
	run.Free(o, actCls, "f")
	run.Return()
	c1, o1 := fx.listener("fx/L1")
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	os := fx.act.Method("onStart", 0)
	th := os.New("fx/W")
	os.PutField(th, "fx/W", "outer", os.This())
	os.InvokeVoid(th, "fx/W", "start")
	os.Return()
	fx.register("fx/L1")
	d, ctx := fx.detect(t)
	warn := findWarning(t, d, "L1.onClick", "W.run")
	applyFilter(ctx, d, ttFilter{})
	if !warn.Alive() {
		t.Error("TT must keep callback-vs-thread warnings")
	}
}

// appbuilderMethod adds a method to an already-declared class through the
// fixture's builder (helper to keep TT fixtures compact).
func appbuilderMethod(fx *fixture, cls, name string) *appbuilder.MethodBuilder {
	return fx.b.MethodOn(cls, name, 0)
}

// --- Pipeline ------------------------------------------------------------

func TestPipelineSequenceAndStats(t *testing.T) {
	fx := buildIGFixture()
	d, _ := fx.detect(t)
	st := Run(d)
	if st.Potential == 0 {
		t.Fatal("expected potential warnings")
	}
	if st.AfterSound > st.Potential || st.AfterUnsound > st.AfterSound {
		t.Errorf("monotonicity violated: %d -> %d -> %d", st.Potential, st.AfterSound, st.AfterUnsound)
	}
}

func TestMeasureIndependentRestoresState(t *testing.T) {
	fx := buildIGFixture()
	d, _ := fx.detect(t)
	before := d.AliveCount()
	removed, start := MeasureIndependent(d, SoundFilters(), false)
	if start != before {
		t.Errorf("start = %d, want %d", start, before)
	}
	if d.AliveCount() != before {
		t.Errorf("MeasureIndependent must restore warnings: %d != %d", d.AliveCount(), before)
	}
	if removed[NameIG] == 0 {
		t.Error("IG should remove the guarded warning in independent measurement")
	}
}

// --- §8.1 multi-looper downgrade ------------------------------------------

// With MultiLooper set, looper-looper atomicity is no longer trusted:
// IG must not prune the Figure 4(b) pattern without a lock.
func TestMultiLooperDowngradesIG(t *testing.T) {
	fx := buildIGFixture()
	pkg, err := fx.b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := detectUAF(t, m)
	ctx := newContext(d, RunConfig{Options: Options{MultiLooper: true}})
	w := findWarning(t, d, "L1.onClick", "L2.onClick")
	applyFilter(ctx, d, igFilter{})
	if !w.Alive() {
		t.Error("MultiLooper must downgrade IG: no lock, no pruning")
	}
}

// --- CHB cancel-kind coverage ---------------------------------------------

// unregisterReceiver in the freeing callback cancels the receiver's
// onReceive uses.
func TestCHBUnregisterReceiver(t *testing.T) {
	fx := newFixture()
	rcv := fx.b.Class("fx/Rcv", framework.BroadcastReceiver)
	rcv.Field("outer", actCls)
	or := rcv.Method("onReceive", 1)
	o := or.GetThis("outer")
	f := or.GetField(o, actCls, "f")
	or.Use(f, valCls)
	or.Return()
	fx.act.Field("rcv", "fx/Rcv")
	oc := fx.act.Method("onCreate", 1)
	v := oc.New(valCls)
	oc.PutThis("f", v)
	rv := oc.New("fx/Rcv")
	oc.PutField(rv, "fx/Rcv", "outer", oc.This())
	oc.PutThis("rcv", rv)
	oc.InvokeVoid(oc.This(), actCls, "registerReceiver", rv)
	view := oc.GetThis("view")
	l := oc.New("fx/L1")
	oc.PutField(l, "fx/L1", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	oc.Return()
	l1 := fx.b.Class("fx/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o1 := c1.GetThis("outer")
	r := c1.GetField(o1, actCls, "rcv")
	c1.InvokeVoid(o1, actCls, "unregisterReceiver", r)
	c1.Free(o1, actCls, "f")
	c1.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "Rcv.onReceive", "L1.onClick")
	applyFilter(ctx, d, chbFilter{})
	if w.Alive() {
		t.Error("CHB must prune onReceive-use vs unregister+free")
	}
}

// AsyncTask.cancel covers the task's own callbacks.
func TestCHBTaskCancel(t *testing.T) {
	fx := newFixture()
	task := fx.b.AsyncTaskClass("fx/T")
	task.Field("outer", actCls)
	prog := task.Method("onProgressUpdate", 0)
	o := prog.GetThis("outer")
	f := prog.GetField(o, actCls, "f")
	prog.Use(f, valCls)
	prog.Return()
	dib := task.Method("doInBackground", 0)
	dib.InvokeVoid(dib.This(), "fx/T", "publishProgress")
	dib.Return()
	fx.act.Field("task", "fx/T")
	oc := fx.act.Method("onCreate", 1)
	v := oc.New(valCls)
	oc.PutThis("f", v)
	tk := oc.New("fx/T")
	oc.PutField(tk, "fx/T", "outer", oc.This())
	oc.PutThis("task", tk)
	oc.InvokeVoid(tk, "fx/T", "execute")
	view := oc.GetThis("view")
	l := oc.New("fx/L1")
	oc.PutField(l, "fx/L1", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	oc.Return()
	l1 := fx.b.Class("fx/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", actCls)
	c1 := l1.Method("onClick", 1)
	o1 := c1.GetThis("outer")
	tk2 := c1.GetField(o1, actCls, "task")
	c1.InvokeVoid(tk2, "fx/T", "cancel")
	c1.Free(o1, actCls, "f")
	c1.Return()
	d, ctx := fx.detect(t)
	w := findWarning(t, d, "T.onProgressUpdate", "L1.onClick")
	applyFilter(ctx, d, chbFilter{})
	if w.Alive() {
		t.Error("CHB must prune task-callback uses vs cancel+free")
	}
}

// MA respects atomicity: against a background thread without a common
// lock, the getter-allocation assumption is not enough.
func TestMARequiresAtomicity(t *testing.T) {
	fx := newFixture()
	fx.act.Field("backing", valCls)
	g := fx.act.Method("getF", 0)
	r := g.GetThis("backing")
	g.ReturnReg(r)
	c1, o1 := fx.listener("fx/L1")
	got := c1.Invoke(o1, actCls, "getF")
	c1.PutField(o1, actCls, "f", got)
	f := c1.GetField(o1, actCls, "f")
	c1.Use(f, valCls)
	c1.Return()
	w := fx.b.ThreadClass("fx/W")
	w.Field("outer", actCls)
	run := w.Method("run", 0)
	o := run.GetThis("outer")
	run.Free(o, actCls, "f")
	run.Return()
	os := fx.act.Method("onStart", 0)
	th := os.New("fx/W")
	os.PutField(th, "fx/W", "outer", os.This())
	os.InvokeVoid(th, "fx/W", "start")
	os.Return()
	fx.register("fx/L1")
	d, ctx := fx.detect(t)
	warn := findWarning(t, d, "L1.onClick", "W.run")
	applyFilter(ctx, d, maFilter{})
	if !warn.Alive() {
		t.Error("MA must not prune against an unlocked background thread")
	}
}
