package nadroid

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/dynrace"
	"nadroid/internal/evidence"
	"nadroid/internal/framework"
	"nadroid/internal/interp"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
)

// racyContext models pkg, builds its detection context and returns it
// with the racy pairs the join derives.
func racyContext(t *testing.T, pkg *apk.Package) (*detect.Context, []race.Pair) {
	t.Helper()
	ctx := context.Background()
	m, err := threadify.BuildContext(ctx, pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("%s: %v", pkg.Name, err)
	}
	dc := detect.BuildContext(ctx, pkg.Name, m, detect.Options{})
	return dc, dc.Engine.Pairs()
}

// racyFacts is the database race.RacyRule is read over in a detection
// context, each tuple written as Rel(term, ...): an RdAcc or WrAcc
// tuple per use or free and object it may touch (h:static for a static
// field), Esc for h:static and every escaping object an access may
// touch, and Racy for every pair the join derives.
func racyFacts(dc *detect.Context) map[string]bool {
	set := make(map[string]bool)
	add := func(rel string, terms ...string) { set[rel+"("+strings.Join(terms, ", ")+")"] = true }
	add("Esc", "h:static")
	for _, a := range dc.Accesses {
		objs := []string{"h:static"}
		if !a.Static {
			objs = objs[:0]
			for _, o := range a.Objs {
				h := fmt.Sprintf("h%d", o)
				objs = append(objs, h)
				if dc.Escape.Escaped(o) {
					add("Esc", h)
				}
			}
		}
		rel := "RdAcc"
		switch a.Kind {
		case race.Write:
			continue
		case race.NullWrite:
			rel = "WrAcc"
		}
		for _, h := range objs {
			add(rel, fmt.Sprintf("a%d", a.ID), fmt.Sprintf("t%d", a.Thread), "f:"+a.Field.String(), h)
		}
	}
	for _, p := range dc.Engine.Pairs() {
		add("Racy", fmt.Sprintf("a%d", p.A), fmt.Sprintf("a%d", p.B))
	}
	return set
}

// cites reports whether the tuple at the root of d is in facts.
func cites(facts map[string]bool, d *evidence.Derivation) bool {
	return facts[d.Rel+"("+strings.Join(d.Tuple, ", ")+")"]
}

// RacyFacts and Cites give the external test package the same check.
var (
	RacyFacts = racyFacts
	Cites     = cites
)

// clickPair builds an activity whose onCreate runs setup and registers
// two click listeners, one running use and the other free, each with
// the activity in its outer field. The activity class x/A has a
// subclass x/Sub that declares nothing, so a ref may name x/A's fields
// through it.
func clickPair(name string, setup, use, free func(mb *appbuilder.MethodBuilder, act int)) *apk.Package {
	b := appbuilder.New(name)
	act := b.Activity("x/A")
	b.Class("x/Sub", "x/A")
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

// staticVia is the click pair over x/A's static field cur whose use
// names the field through owner (x/A or its subclass x/Sub).
func staticVia(owner string) *apk.Package {
	return clickPair("StaticVia"+owner[2:],
		func(mb *appbuilder.MethodBuilder, act int) { mb.PutStatic("x/A", "cur", mb.New("x/V")) },
		func(mb *appbuilder.MethodBuilder, act int) { mb.Use(mb.GetStatic(owner, "cur"), "x/V") },
		func(mb *appbuilder.MethodBuilder, act int) { mb.PutStatic("x/A", "cur", mb.NullReg()) })
}

// TestStaticFieldThroughSubclass checks that a use naming x/A's static
// field through the subclass x/Sub races with the free naming it on
// x/A, exactly as the same use naming x/A does: the access collection,
// the points-to static table and the interpreter's static slots all key
// a static field by its declaring class.
func TestStaticFieldThroughSubclass(t *testing.T) {
	for _, owner := range []string{"x/A", "x/Sub"} {
		res, err := Analyze(staticVia(owner), Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Potential != 1 || res.Stats.AfterUnsound != 1 || len(res.Harmful) != 1 {
			t.Errorf("use via %s: %d potential, %d surviving, %d harmful; want 1, 1, 1",
				owner, res.Stats.Potential, res.Stats.AfterUnsound, len(res.Harmful))
		}
	}
}

// TestDynamicRaceThroughSubclass checks that the dynamic detector pairs
// the use and the free of staticVia's field whichever class the use
// names: a recorded default-schedule run gives one use/free race either
// way, because trace events name a field by its declaring class.
func TestDynamicRaceThroughSubclass(t *testing.T) {
	for _, owner := range []string{"x/A", "x/Sub"} {
		pkg := staticVia(owner)
		w := interp.NewWorld(pkg, cha.New(pkg.Program), interp.Options{Record: true})
		interp.Run(w, nil)
		if races := dynrace.Analyze(w.Recorded(), dynrace.Options{UseFreeOnly: true}); len(races) != 1 {
			t.Errorf("use via %s: %d use/free races, want 1: %v", owner, len(races), races)
		}
	}
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
// of the corpus apps and random specs 1–40 against the facts the join
// reads (racyFacts): every cited tuple is one of them, and the premises
// are RdAcc, WrAcc and Esc, in that order, joined on one field and one
// object from two different threads.
func TestRacyDerivationCitesEngineFacts(t *testing.T) {
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	for seed := uint64(1); seed <= 40; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	total := 0
	for _, app := range apps {
		pkg := app.Build()
		dc, pairs := racyContext(t, pkg)
		facts := racyFacts(dc)
		for _, p := range pairs {
			total++
			d := racyDerivation(dc, p)
			if d.Rel != "Racy" || d.Rule != race.RacyRule || !cites(facts, d) {
				t.Fatalf("%s: pair %v: root %s%v under %q is not a derived Racy tuple", pkg.Name, p, d.Rel, d.Tuple, d.Rule)
			}
			if len(d.Premises) != 3 {
				t.Fatalf("%s: pair %v: %d premises, want 3", pkg.Name, p, len(d.Premises))
			}
			rd, wr, esc := d.Premises[0], d.Premises[1], d.Premises[2]
			if rd.Rel != "RdAcc" || wr.Rel != "WrAcc" || esc.Rel != "Esc" {
				t.Fatalf("%s: pair %v: premises %s, %s, %s, want RdAcc, WrAcc, Esc", pkg.Name, p, rd.Rel, wr.Rel, esc.Rel)
			}
			for _, prem := range d.Premises {
				if !prem.IsBase() || !cites(facts, prem) {
					t.Fatalf("%s: pair %v: premise %s%v is not a fact of the join", pkg.Name, p, prem.Rel, prem.Tuple)
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
