package nadroid

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/corpus"
	"nadroid/internal/datalog"
	"nadroid/internal/detect"
	"nadroid/internal/evidence"
	"nadroid/internal/framework"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
)

// racyContext models pkg, builds its detection context and returns it
// with the racy pairs the engine derives.
func racyContext(t *testing.T, pkg *apk.Package) (*detect.Context, []race.Pair) {
	t.Helper()
	ctx := context.Background()
	m, err := threadify.BuildContext(ctx, pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("%s: %v", pkg.Name, err)
	}
	dc := detect.BuildContext(ctx, pkg.Name, m, detect.Options{})
	return dc, race.PairsFromEngine(ctx, dc.Engine)
}

// clickPair builds an activity whose onCreate runs setup and registers
// two click listeners, one running use and the other free, each with
// the activity in its outer field.
func clickPair(name string, setup, use, free func(mb *appbuilder.MethodBuilder, act int)) *apk.Package {
	b := appbuilder.New(name)
	act := b.Activity("x/A")
	act.StaticField("cur", "x/V")
	act.Field("h", "x/H")
	b.Class("x/H", framework.Object).Field("v", "x/V")
	b.Class("x/V", framework.Object).Method("use", 0).Return()
	oc := act.Method("onCreate", 1)
	setup(oc, oc.This())
	bodies := []func(*appbuilder.MethodBuilder, int){use, free}
	for i, cls := range []string{"x/User", "x/Freer"} {
		l := b.Class(cls, framework.Object, framework.OnClickListener)
		l.Field("outer", "x/A")
		mb := l.Method("onClick", 1)
		bodies[i](mb, mb.GetThis("outer"))
		mb.Return()
		inst := oc.New(cls)
		oc.PutField(inst, cls, "outer", oc.This())
		oc.InvokeVoid(oc.New(framework.View), framework.View, "setOnClickListener", inst)
	}
	oc.Return()
	return b.MustBuild()
}

// derivationFixtures are the two shapes no corpus pair has: a static
// field, and receivers that may each be either of two escaping objects.
func derivationFixtures() []*apk.Package {
	static := clickPair("StaticField",
		func(mb *appbuilder.MethodBuilder, act int) { mb.PutStatic("x/A", "cur", mb.New("x/V")) },
		func(mb *appbuilder.MethodBuilder, act int) { mb.Use(mb.GetStatic("x/A", "cur"), "x/V") },
		func(mb *appbuilder.MethodBuilder, act int) { mb.PutStatic("x/A", "cur", mb.NullReg()) })
	twoObjs := clickPair("TwoObjects",
		func(mb *appbuilder.MethodBuilder, act int) {
			for i := 0; i < 2; i++ {
				h := mb.New("x/H")
				mb.PutField(h, "x/H", "v", mb.New("x/V"))
				mb.PutField(act, "x/A", "h", h)
			}
		},
		func(mb *appbuilder.MethodBuilder, act int) {
			mb.Use(mb.GetField(mb.GetField(act, "x/A", "h"), "x/H", "v"), "x/V")
		},
		func(mb *appbuilder.MethodBuilder, act int) {
			mb.Free(mb.GetField(act, "x/A", "h"), "x/H", "v")
		})
	return []*apk.Package{static, twoObjs}
}

// TestRacyDerivationFixtures pins the tree on the two fixtures. The
// second fixture's accesses both point to h1 and h3, which both escape;
// the Racy join meets the use's objects in ascending order, so its
// proof names h1.
func TestRacyDerivationFixtures(t *testing.T) {
	tree := func(use, free, f, h, useThread, freeThread string) *evidence.Derivation {
		return &evidence.Derivation{
			Rel:   "Racy",
			Tuple: []string{use, free},
			Rule:  "Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)",
			Premises: []*evidence.Derivation{
				{Rel: "RdAcc", Tuple: []string{use, useThread, f, h}},
				{Rel: "WrAcc", Tuple: []string{free, freeThread, f, h}},
				{Rel: "Esc", Tuple: []string{h}},
			},
		}
	}
	want := []*evidence.Derivation{
		tree("a6", "a4", "f:x/A.cur", "h:static", "t3", "t2"),
		tree("a11", "a8", "f:x/H.v", "h1", "t3", "t2"),
	}
	for i, pkg := range derivationFixtures() {
		dc, pairs := racyContext(t, pkg)
		if len(pairs) != 1 {
			t.Fatalf("%s: %d racy pairs, want 1", pkg.Name, len(pairs))
		}
		if got := racyDerivation(dc, pairs[0]); !reflect.DeepEqual(got, want[i]) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want[i])
			t.Errorf("%s:\n got %s\nwant %s", pkg.Name, g, w)
		}
	}
}

// TestRacyDerivationCitesEngineFacts checks the tree of every racy pair
// of the corpus apps and random specs 1–40 against the engine that
// derived the pair: every cited tuple is in the engine, and the
// premises are RdAcc, WrAcc and Esc, in that order, joined on one field
// and one object from two different threads.
func TestRacyDerivationCitesEngineFacts(t *testing.T) {
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	for seed := uint64(1); seed <= 40; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	has := func(e *datalog.Engine, d *evidence.Derivation) bool {
		terms := make([]datalog.Sym, len(d.Tuple))
		for i, name := range d.Tuple {
			terms[i] = e.Sym(name)
		}
		return e.Has(d.Rel, terms...)
	}
	total := 0
	for _, app := range apps {
		pkg := app.Build()
		dc, pairs := racyContext(t, pkg)
		for _, p := range pairs {
			total++
			d := racyDerivation(dc, p)
			if d.Rel != "Racy" || d.Rule != race.RacyRule || !has(dc.Engine, d) {
				t.Fatalf("%s: pair %v: root %s%v under %q is not an engine Racy tuple", pkg.Name, p, d.Rel, d.Tuple, d.Rule)
			}
			if len(d.Premises) != 3 {
				t.Fatalf("%s: pair %v: %d premises, want 3", pkg.Name, p, len(d.Premises))
			}
			rd, wr, esc := d.Premises[0], d.Premises[1], d.Premises[2]
			if rd.Rel != "RdAcc" || wr.Rel != "WrAcc" || esc.Rel != "Esc" {
				t.Fatalf("%s: pair %v: premises %s, %s, %s, want RdAcc, WrAcc, Esc", pkg.Name, p, rd.Rel, wr.Rel, esc.Rel)
			}
			for _, prem := range d.Premises {
				if !prem.IsBase() || !has(dc.Engine, prem) {
					t.Fatalf("%s: pair %v: premise %s%v is not an engine fact", pkg.Name, p, prem.Rel, prem.Tuple)
				}
			}
			if rd.Tuple[0] != d.Tuple[0] || wr.Tuple[0] != d.Tuple[1] || rd.Tuple[1] == wr.Tuple[1] ||
				rd.Tuple[2] != wr.Tuple[2] || rd.Tuple[3] != wr.Tuple[3] || rd.Tuple[3] != esc.Tuple[0] {
				t.Fatalf("%s: pair %v: premises %v, %v, %v do not join into %v", pkg.Name, p, rd.Tuple, wr.Tuple, esc.Tuple, d.Tuple)
			}
		}
	}
	if total == 0 {
		t.Fatal("no racy pairs")
	}
}
