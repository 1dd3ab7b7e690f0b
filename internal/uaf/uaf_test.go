package uaf_test

import (
	"context"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/detect"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

func fieldRef(cls, name string) ir.FieldRef { return ir.FieldRef{Class: cls, Name: name} }
func instrID(m string, i int) ir.InstrID    { return ir.InstrID{Method: m, Index: i} }

// buildConnectBotLike reproduces Figure 1(a): an activity binds to a
// service; onServiceConnected sets `bound`, onServiceDisconnected frees
// it, and onCreateContextMenu uses it without a guard.
func buildConnectBotLike(t *testing.T) *apk.Package {
	t.Helper()
	b := appbuilder.New("connectbot-like")
	act := b.Activity("cb/ConsoleActivity")
	act.Field("bound", "cb/Binding")
	b.Class("cb/Binding", framework.Object).Method("use", 0).Return()

	conn := b.ServiceConn("cb/Conn")
	conn.Field("outer", "cb/ConsoleActivity")
	sc := conn.Method("onServiceConnected", 1)
	o := sc.GetThis("outer")
	bnd := sc.New("cb/Binding")
	sc.PutField(o, "cb/ConsoleActivity", "bound", bnd)
	sc.Return()
	sd := conn.Method("onServiceDisconnected", 1)
	o2 := sd.GetThis("outer")
	sd.Free(o2, "cb/ConsoleActivity", "bound")
	sd.Return()

	os := act.Method("onStart", 0)
	cn := os.New("cb/Conn")
	os.PutField(cn, "cb/Conn", "outer", os.This())
	os.InvokeVoid(os.This(), "cb/ConsoleActivity", "bindService", cn)
	os.Return()

	menu := act.Method("onCreateContextMenu", 1)
	bb := menu.GetThis("bound")
	menu.Use(bb, "cb/Binding")
	menu.Return()

	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// detectPkg models pkg and runs the pipeline's uaf detector over the
// shared detector context, returning the unfiltered warnings.
func detectPkg(t *testing.T, pkg *apk.Package) *uaf.Detection {
	t.Helper()
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("threadify: %v", err)
	}
	ctx := context.Background()
	det, _ := detect.ByName("uaf")
	res, err := detect.Run(ctx, detect.BuildContext(ctx, pkg.Name, m, detect.Options{}), []detect.Detector{det})
	if err != nil {
		t.Fatal(err)
	}
	return res.UAF
}

func TestDetectsFigure1aUAF(t *testing.T) {
	d := detectPkg(t, buildConnectBotLike(t))
	var hit *uaf.Warning
	for _, w := range d.Warnings {
		if w.Field.Name == "bound" &&
			strings.Contains(w.Use.Method, "onCreateContextMenu") &&
			strings.Contains(w.Free.Method, "onServiceDisconnected") {
			hit = w
		}
	}
	if hit == nil {
		t.Fatalf("missing the Figure 1(a) warning; got %d warnings: %v", len(d.Warnings), keys(d))
	}
	if len(hit.Pairs) == 0 {
		t.Fatal("warning has no thread pairs")
	}
	// The use thread is an EC, the free thread a PC.
	p := hit.Pairs[0]
	if d.Model.Threads[p.Use].Kind != threadify.KindEntryCallback {
		t.Errorf("use thread kind = %v, want EC", d.Model.Threads[p.Use].Kind)
	}
	if d.Model.Threads[p.Free].Kind != threadify.KindPostedCallback {
		t.Errorf("free thread kind = %v, want PC", d.Model.Threads[p.Free].Kind)
	}
}

func TestUseFreeRestriction(t *testing.T) {
	d := detectPkg(t, buildConnectBotLike(t))
	for _, w := range d.Warnings {
		use := d.AccessFor(findAccessID(t, d, w.Use, race.Read))
		free := d.AccessFor(findAccessID(t, d, w.Free, race.NullWrite))
		if use.Kind != race.Read {
			t.Errorf("use %v kind = %v", w.Use, use.Kind)
		}
		if free.Kind != race.NullWrite {
			t.Errorf("free %v kind = %v", w.Free, free.Kind)
		}
	}
}

// AccessFor reads an access by its ID, which is its index in the race
// result, and returns the zero Access for an ID the result does not
// hold.
func TestAccessForIndexesAccesses(t *testing.T) {
	d := detectPkg(t, buildConnectBotLike(t))
	if len(d.Race.Accesses) == 0 {
		t.Fatal("no accesses collected")
	}
	for i, a := range d.Race.Accesses {
		if got := d.AccessFor(i); got.ID != i || got.Instr != a.Instr || got.Kind != a.Kind {
			t.Errorf("AccessFor(%d) = %+v, want %+v", i, got, a)
		}
	}
	for _, id := range []int{-1, len(d.Race.Accesses)} {
		if got := d.AccessFor(id); got.Instr != (ir.InstrID{}) || got.ID != 0 || got.Objs != nil {
			t.Errorf("AccessFor(%d) = %+v, want the zero Access", id, got)
		}
	}
	if got := (&uaf.Detection{}).AccessFor(0); got.Instr != (ir.InstrID{}) {
		t.Errorf("AccessFor on an empty detection = %+v, want the zero Access", got)
	}
}

// The onServiceConnected store is a Write (not a free): no warning may
// list it as its free side.
func TestNonNullStoreIsNotAFree(t *testing.T) {
	d := detectPkg(t, buildConnectBotLike(t))
	for _, w := range d.Warnings {
		if strings.Contains(w.Free.Method, "onServiceConnected") {
			t.Errorf("onServiceConnected's store must not be a free: %v", w.Free)
		}
	}
}

// Thread-local objects must not race: an activity-local object freed and
// used only within one callback has no pairs.
func TestThreadLocalObjectDoesNotRace(t *testing.T) {
	b := appbuilder.New("local")
	act := b.Activity("l/A")
	b.Class("l/Box", framework.Object).Field("f", "l/V")
	b.Class("l/V", framework.Object)
	oc := act.Method("onCreate", 1)
	box := oc.New("l/Box")
	v := oc.New("l/V")
	oc.PutField(box, "l/Box", "f", v)
	got := oc.GetField(box, "l/Box", "f")
	_ = got
	oc.Free(box, "l/Box", "f")
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := detectPkg(t, pkg)
	if n := d.AliveCount(); n != 0 {
		t.Errorf("thread-local box produced %d warnings", n)
	}
}

// Two UI callbacks freeing/using a shared field race after
// threadification (the paper's single-threaded data race).
func TestSingleThreadedRaceBetweenCallbacks(t *testing.T) {
	b := appbuilder.New("ui")
	act := b.Activity("u/A")
	act.Field("f", "u/V")
	act.Field("view", framework.View)
	b.Class("u/V", framework.Object).Method("use", 0).Return()
	l1 := b.Class("u/L1", framework.Object, framework.OnClickListener)
	l1.Field("outer", "u/A")
	c1 := l1.Method("onClick", 1)
	o := c1.GetThis("outer")
	f := c1.GetField(o, "u/A", "f")
	c1.Use(f, "u/V")
	c1.Return()
	l2 := b.Class("u/L2", framework.Object, framework.OnClickListener)
	l2.Field("outer", "u/A")
	c2 := l2.Method("onClick", 1)
	o2 := c2.GetThis("outer")
	c2.Free(o2, "u/A", "f")
	c2.Return()
	oc := act.Method("onCreate", 1)
	v := oc.GetThis("view")
	a1 := oc.New("u/L1")
	oc.PutField(a1, "u/L1", "outer", oc.This())
	oc.InvokeVoid(v, framework.View, "setOnClickListener", a1)
	a2 := oc.New("u/L2")
	oc.PutField(a2, "u/L2", "outer", oc.This())
	oc.InvokeVoid(v, framework.View, "setOnClickListener", a2)
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := detectPkg(t, pkg)
	found := false
	for _, w := range d.Warnings {
		if w.Field.Name == "f" && strings.Contains(w.Use.Method, "L1.onClick") && strings.Contains(w.Free.Method, "L2.onClick") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing EC-EC single-looper race; warnings: %v", keys(d))
	}
}

func findAccessID(t *testing.T, d *uaf.Detection, instr interface{ String() string }, kind race.AccessKind) int {
	t.Helper()
	for _, a := range d.Race.Accesses {
		if a.Instr.String() == instr.String() && a.Kind == kind {
			return a.ID
		}
	}
	t.Fatalf("no access for %v kind %v", instr, kind)
	return -1
}

func keys(d *uaf.Detection) []string {
	var out []string
	for _, w := range d.Warnings {
		out = append(out, w.Key())
	}
	return out
}

// --- Warning bookkeeping ---------------------------------------------------

func TestRemovePairsRecordsFilter(t *testing.T) {
	w := &uaf.Warning{
		Pairs: []uaf.ThreadPair{{Use: 1, Free: 2}, {Use: 3, Free: 4}, {Use: 5, Free: 6}},
	}
	n := w.RemovePairs("MHB", func(p uaf.ThreadPair) bool { return p.Use == 3 })
	if n != 1 {
		t.Fatalf("removed = %d, want 1", n)
	}
	if len(w.Pairs) != 2 {
		t.Fatalf("pairs left = %d, want 2", len(w.Pairs))
	}
	if w.FilteredBy[uaf.ThreadPair{Use: 3, Free: 4}] != "MHB" {
		t.Errorf("FilteredBy = %v", w.FilteredBy)
	}
	if !w.Alive() {
		t.Error("warning with remaining pairs must be alive")
	}
	w.RemovePairs("TT", func(uaf.ThreadPair) bool { return true })
	if w.Alive() {
		t.Error("warning with no pairs must be dead")
	}
	if w.FilteredBy[uaf.ThreadPair{Use: 1, Free: 2}] != "TT" {
		t.Errorf("later filter attribution lost: %v", w.FilteredBy)
	}
}

func TestWarningKeyStable(t *testing.T) {
	w1 := &uaf.Warning{
		Field: fieldRef("C", "f"),
		Use:   instrID("C.m", 1),
		Free:  instrID("C.n", 2),
	}
	w2 := &uaf.Warning{
		Field: fieldRef("C", "f"),
		Use:   instrID("C.m", 1),
		Free:  instrID("C.n", 2),
	}
	if w1.Key() != w2.Key() {
		t.Error("identical warnings must share a key")
	}
	w2.Free = instrID("C.n", 3)
	if w1.Key() == w2.Key() {
		t.Error("different frees must differ")
	}
}
