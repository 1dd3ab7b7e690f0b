package race

import (
	"reflect"
	"testing"

	"nadroid/internal/appbuilder"
	"nadroid/internal/corpus"
	"nadroid/internal/escape"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/threadify"
)

// twoListenerApp builds an activity with two click listeners performing
// the given accesses on a shared field.
func twoListenerApp(t *testing.T, l1Free, l2Write bool) *threadify.Model {
	t.Helper()
	b := appbuilder.New("race")
	act := b.Activity("r/A")
	act.Field("f", "r/V")
	b.Class("r/V", framework.Object).Method("use", 0).Return()
	oc := act.Method("onCreate", 1)
	v := oc.New("r/V")
	oc.PutThis("f", v)
	mk := func(cls string, free, write bool) {
		l := b.Class(cls, framework.Object, framework.OnClickListener)
		l.Field("outer", "r/A")
		mb := l.Method("onClick", 1)
		o := mb.GetThis("outer")
		switch {
		case free:
			mb.Free(o, "r/A", "f")
		case write:
			nv := mb.New("r/V")
			mb.PutField(o, "r/A", "f", nv)
		default:
			f := mb.GetField(o, "r/A", "f")
			mb.Use(f, "r/V")
		}
		mb.Return()
		view := oc.New(framework.View)
		inst := oc.New(cls)
		oc.PutField(inst, cls, "outer", oc.This())
		oc.InvokeVoid(view, framework.View, "setOnClickListener", inst)
	}
	mk("r/L1", l1Free, false)
	mk("r/L2", false, l2Write)
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

// detectPairs runs the steps the shared detector context runs
// (internal/detect): collect accesses, solve escape, and join the uses
// with the frees.
func detectPairs(m *threadify.Model) ([]Access, []Pair) {
	accs := CollectAccesses(m)
	return accs, NewJoin(accs, escape.Analyze(m).Escaped).Pairs()
}

func TestCollectAccessesKinds(t *testing.T) {
	m := twoListenerApp(t, true, false)
	accs := CollectAccesses(m)
	var reads, frees, writes int
	for _, a := range accs {
		if a.Field.Name != "f" {
			continue
		}
		switch a.Kind {
		case Read:
			reads++
		case NullWrite:
			frees++
		case Write:
			writes++
		}
	}
	if frees == 0 {
		t.Error("the const-null store must be a NullWrite")
	}
	if reads == 0 {
		t.Error("the getfield must be a Read")
	}
	if writes == 0 {
		t.Error("onCreate's store of a fresh object must be a Write")
	}
}

func TestFieldCanonicalization(t *testing.T) {
	// Accessing an inherited field through the subclass must unify with
	// the declaring class.
	b := appbuilder.New("canon")
	base := b.Class("c/Base", framework.Activity)
	base.Field("f", "c/V")
	b.Class("c/V", framework.Object)
	sub := b.Class("c/Sub", "c/Base")
	m := sub.Method("m", 0)
	m.GetField(m.This(), "c/Sub", "f") // ref through subclass
	m.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	model, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := model.H.CanonicalField(ir.FieldRef{Class: "c/Sub", Name: "f"})
	if ref.Class != "c/Base" {
		t.Errorf("canonical class = %q, want c/Base", ref.Class)
	}
}

// TestUseFreeOnlyExcludesWriteWritePairs: L1 frees f. A read of f in L2
// races with the free as a (use, free) pair; a non-null store into f in
// L2 races with nothing, because writes never pair with writes.
func TestUseFreeOnlyExcludesWriteWritePairs(t *testing.T) {
	accs, pairs := detectPairs(twoListenerApp(t, true, false)) // L2 reads f
	if len(pairs) == 0 {
		t.Fatal("L2's read of f must race with L1's free")
	}
	for _, p := range pairs {
		if a, b := accs[p.A], accs[p.B]; a.Kind != Read || b.Kind != NullWrite {
			t.Errorf("pair kinds = %v/%v, want read/free", a.Kind, b.Kind)
		}
	}
	accs, pairs = detectPairs(twoListenerApp(t, true, true)) // L2 writes f
	for _, p := range pairs {
		a, b := accs[p.A], accs[p.B]
		t.Errorf("unexpected pair %v (%v) / %v (%v)", a.Instr, a.Kind, b.Instr, b.Kind)
	}
}

// TestSingleThreadAccessesDoNotRace: a field stored and read by
// onCreate alone lives on one modeled thread, so it yields no pair.
func TestSingleThreadAccessesDoNotRace(t *testing.T) {
	b := appbuilder.New("onethread")
	act := b.Activity("s/A")
	b.Class("s/Box", framework.Object).Field("v", "s/V")
	b.Class("s/V", framework.Object)
	act.Field("box", "s/Box")
	oc := act.Method("onCreate", 1)
	box := oc.New("s/Box")
	oc.PutThis("box", box)
	vv := oc.New("s/V")
	oc.PutField(box, "s/Box", "v", vv)
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, pairs := detectPairs(m); len(pairs) != 0 {
		t.Errorf("single-thread accesses cannot race: %v", pairs)
	}
}

func TestSameFieldDifferentObjectsDoNotRace(t *testing.T) {
	// Two activities each with their own field object: the races stay
	// within each synthetic instance; across instances the field is the
	// same but objects differ, and both components do race on their own
	// object. Verify object-level separation via an app where aliasing
	// rules them out: listener of A1 uses A1.f; listener of A2 frees A2.f.
	b := appbuilder.New("sep")
	b.Class("p/V", framework.Object).Method("use", 0).Return()
	for _, suffix := range []string{"1", "2"} {
		act := b.Activity("p/A" + suffix)
		act.Field("f", "p/V")
		oc := act.Method("onCreate", 1)
		v := oc.New("p/V")
		oc.PutThis("f", v)
		cls := "p/L" + suffix
		l := b.Class(cls, framework.Object, framework.OnClickListener)
		l.Field("outer", "p/A"+suffix)
		mb := l.Method("onClick", 1)
		o := mb.GetThis("outer")
		if suffix == "1" {
			f := mb.GetField(o, "p/A1", "f")
			mb.Use(f, "p/V")
		} else {
			mb.Free(o, "p/A2", "f")
		}
		mb.Return()
		view := oc.New(framework.View)
		inst := oc.New(cls)
		oc.PutField(inst, cls, "outer", oc.This())
		oc.InvokeVoid(view, framework.View, "setOnClickListener", inst)
		oc.Return()
	}
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	accs, pairs := detectPairs(m)
	for _, p := range pairs {
		a, b := accs[p.A], accs[p.B]
		t.Errorf("cross-activity pair should not exist: %v vs %v", a.Instr, b.Instr)
	}
}

// TestCollectAccessesConcatenatesThreads checks, over the 30 corpus apps
// and corpus.RandomSpec seeds 1–6, that CollectAccesses is the
// concatenation of every thread's CollectThreadAccesses renumbered in
// order, and that both are allocated at their final length.
func TestCollectAccessesConcatenatesThreads(t *testing.T) {
	var apps []corpus.App
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		apps = append(apps, app)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	for _, app := range apps {
		m, err := threadify.Build(app.Build(), threadify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want []Access
		for _, th := range m.Threads {
			part := CollectThreadAccesses(m, th.ID)
			if cap(part) != len(part) {
				t.Errorf("%s thread %d: cap %d != len %d", app.Name(), th.ID, cap(part), len(part))
			}
			for i, a := range part {
				if a.ID != i {
					t.Fatalf("%s thread %d: access %d has ID %d", app.Name(), th.ID, i, a.ID)
				}
				a.ID = len(want)
				want = append(want, a)
			}
		}
		got := CollectAccesses(m)
		if cap(got) != len(got) {
			t.Errorf("%s: cap %d != len %d", app.Name(), cap(got), len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d accesses, concatenation has %d", app.Name(), len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: access %d = %+v, want %+v", app.Name(), i, got[i], want[i])
			}
		}
	}
}
