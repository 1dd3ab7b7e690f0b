package escape

import (
	"testing"

	"nadroid/internal/appbuilder"
	"nadroid/internal/framework"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// buildModel makes an app with: a shared field on the activity (escapes:
// two listeners reach it), a thread-local object (one callback only),
// and a statically-reachable object.
func buildModel(t *testing.T) *threadify.Model {
	t.Helper()
	b := appbuilder.New("esc")
	act := b.Activity("e/A")
	act.Field("shared", "e/V")
	act.StaticField("global", "e/V")
	b.Class("e/V", framework.Object).Field("inner", "e/V")

	oc := act.Method("onCreate", 1)
	sv := oc.New("e/V") // stored in shared -> escapes
	oc.PutThis("shared", sv)
	gv := oc.New("e/V") // stored in a static -> escapes
	oc.PutStatic("e/A", "global", gv)
	lv := oc.New("e/V") // local only -> thread local
	_ = lv
	// Two listeners touch `shared`.
	for _, cls := range []string{"e/L1", "e/L2"} {
		l := b.Class(cls, framework.Object, framework.OnClickListener)
		l.Field("outer", "e/A")
		mb := l.Method("onClick", 1)
		o := mb.GetThis("outer")
		mb.GetField(o, "e/A", "shared")
		mb.Return()
		view := oc.New(framework.View)
		inst := oc.New(cls)
		oc.PutField(inst, cls, "outer", oc.This())
		oc.InvokeVoid(view, framework.View, "setOnClickListener", inst)
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
	return m
}

// objBySite finds the abstract object allocated at the given site index
// of onCreate.
func objBySite(t *testing.T, m *threadify.Model, site string) pointsto.ObjID {
	t.Helper()
	for id, o := range m.PTS.Objects() {
		if o.Site == site {
			return pointsto.ObjID(id)
		}
	}
	t.Fatalf("no object with site %q", site)
	return -1
}

func TestSharedFieldEscapes(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	shared := objBySite(t, m, "e/A.onCreate:0")
	if !res.Escaped(shared) {
		t.Error("object stored in a two-listener field must escape")
	}
	if res.ReacherCount(shared) < 3 {
		t.Errorf("reachers = %d, want >= 3 (onCreate + two listeners)", res.ReacherCount(shared))
	}
}

func TestStaticReachableEscapes(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	global := objBySite(t, m, "e/A.onCreate:2")
	if !res.Escaped(global) {
		t.Error("statically-reachable objects escape")
	}
}

func TestLocalObjectDoesNotEscape(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	local := objBySite(t, m, "e/A.onCreate:4")
	if res.Escaped(local) {
		t.Error("an object confined to one callback must not escape")
	}
	if res.ReacherCount(local) != 1 {
		t.Errorf("local reachers = %d, want 1", res.ReacherCount(local))
	}
}

// Heap reachability is transitive: an object stored in a field of an
// escaped object escapes too.
func TestTransitiveHeapEscape(t *testing.T) {
	b := appbuilder.New("esc2")
	act := b.Activity("e2/A")
	act.Field("box", "e2/V")
	b.Class("e2/V", framework.Object).Field("inner", "e2/V")
	oc := act.Method("onCreate", 1)
	box := oc.New("e2/V")
	oc.PutThis("box", box)
	inner := oc.New("e2/V")
	oc.PutField(box, "e2/V", "inner", inner)
	l := b.Class("e2/L", framework.Object, framework.OnClickListener)
	l.Field("outer", "e2/A")
	mb := l.Method("onClick", 1)
	o := mb.GetThis("outer")
	mb.GetField(o, "e2/A", "box")
	mb.Return()
	view := oc.New(framework.View)
	inst := oc.New("e2/L")
	oc.PutField(inst, "e2/L", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", inst)
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(m)
	in := objBySite(t, m, "e2/A.onCreate:2")
	if !res.Escaped(in) {
		t.Error("heap-transitive reachability must mark inner escaped")
	}
}

// TestSnapshotRoundTrip rebuilds a result from its snapshot, as the
// cold-start cache does, with two extra rows a corrupt blob could carry:
// they name no object and must be dropped, not indexed.
func TestSnapshotRoundTrip(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	objs, reachers, _ := res.Snapshot()
	back := FromSnapshot(append(objs, -1, 1<<30), append(reachers, 7, 7))
	for o := range objs {
		id := pointsto.ObjID(o)
		if back.ReacherCount(id) != res.ReacherCount(id) || back.Escaped(id) != res.Escaped(id) {
			t.Fatalf("object %d: rebuilt %d reachers, want %d", o, back.ReacherCount(id), res.ReacherCount(id))
		}
	}
	if back.ReacherCount(-1) != 0 || back.ReacherCount(1<<30) != 0 {
		t.Fatal("rows naming no object must be dropped")
	}
}
