package filters

import (
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// accessKey is what atomicPair looks an access up by.
type accessKey struct {
	thread int
	instr  ir.InstrID
	kind   race.AccessKind
}

// lastAccessIndex is the reference for accessAt: a map over every
// access in collection order, so each key keeps its last access.
func lastAccessIndex(accs []race.Access) map[accessKey]int {
	idx := make(map[accessKey]int, len(accs))
	for i, a := range accs {
		idx[accessKey{a.Thread, a.Instr, a.Kind}] = i
	}
	return idx
}

// checkAccessAt compares accessAt with the reference on every key the
// accesses hold and on both sides of every warning pair, under both
// access kinds (most of those keys are absent).
func checkAccessAt(t *testing.T, name string, d *uaf.Detection) {
	t.Helper()
	ctx := NewContext(d)
	want := lastAccessIndex(d.Race.Accesses)
	check := func(k accessKey) {
		got, ok := ctx.accessAt(k.thread, k.instr, k.kind)
		w, wok := want[k]
		if ok != wok || got != w {
			t.Fatalf("%s: accessAt(%d, %v, %v) = %d, %v; the map gives %d, %v", name, k.thread, k.instr, k.kind, got, ok, w, wok)
		}
	}
	for _, a := range d.Race.Accesses {
		check(accessKey{a.Thread, a.Instr, a.Kind})
	}
	for _, w := range d.Warnings {
		for _, p := range w.Pairs {
			for _, kind := range []race.AccessKind{race.Read, race.NullWrite} {
				check(accessKey{p.Use, w.Use, kind})
				check(accessKey{p.Free, w.Free, kind})
			}
		}
	}
}

// TestAccessesOrderedByThreadThenMethod pins what accessAt's binary
// searches rely on, over the 30 corpus apps and corpus.RandomSpec seeds
// 1–6: the pipeline lists each thread's accesses together, in thread
// order, and a thread's by method. It also checks accessAt against the
// map it replaced. The incremental pipeline concatenates per-thread
// partitions into the same list (TestIncrementalMutationMatrix).
func TestAccessesOrderedByThreadThenMethod(t *testing.T) {
	var pkgs []*apk.Package
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		pkgs = append(pkgs, app.Build())
	}
	for seed := uint64(1); seed <= 6; seed++ {
		pkgs = append(pkgs, corpus.RandomSpec(seed).Build())
	}
	for _, pkg := range pkgs {
		m, err := threadify.Build(pkg, threadify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := detectUAF(t, m)
		accs := d.Race.Accesses
		for i := 1; i < len(accs); i++ {
			a, b := &accs[i-1], &accs[i]
			if a.Thread > b.Thread || a.Thread == b.Thread && a.Instr.Method > b.Instr.Method {
				t.Fatalf("%s: access %d (thread %d, %s) precedes access %d (thread %d, %s)",
					pkg.Name, i-1, a.Thread, a.Instr.Method, i, b.Thread, b.Instr.Method)
			}
		}
		checkAccessAt(t, pkg.Name, d)
	}
}

// TestAccessAtReturnsLastAccess builds a thread that reads a field under
// two receiver contexts: onClick calls one helper method on two helper
// objects, so its read has two accesses with the same (thread,
// instruction, kind). The corpus has no such key, so only a fixture
// tells the last access from the first; accessAt must give the last,
// as the map it replaced did.
func TestAccessAtReturnsLastAccess(t *testing.T) {
	const helperCls = "fx/H"
	fx := newFixture()
	h := fx.b.Class(helperCls, framework.Object)
	h.Field("outer", actCls)
	read := h.Method("read", 0)
	o := read.GetThis("outer")
	read.Use(read.GetField(o, actCls, "f"), valCls)
	read.Return()

	user, outer := fx.listener("fx/L1")
	for i := 0; i < 2; i++ {
		hr := user.New(helperCls)
		user.PutField(hr, helperCls, "outer", outer)
		user.InvokeVoid(hr, helperCls, "read")
	}
	user.Return()
	freer, outer2 := fx.listener("fx/L2")
	freer.Free(outer2, actCls, "f")
	freer.Return()
	fx.register("fx/L1", "fx/L2")

	d, _ := fx.detect(t)
	w := findWarning(t, d, "H.read", "L2.onClick")
	p := w.Pairs[0]
	var at []int
	for i, a := range d.Race.Accesses {
		if a.Thread == p.Use && a.Instr == w.Use && a.Kind == race.Read {
			at = append(at, i)
		}
	}
	if len(at) != 2 || d.Race.Accesses[at[0]].MCtx == d.Race.Accesses[at[1]].MCtx {
		t.Fatalf("fixture: the read has accesses %v in thread %d, want two under different receivers", at, p.Use)
	}
	if got, ok := NewContext(d).accessAt(p.Use, w.Use, race.Read); !ok || got != at[1] {
		t.Errorf("accessAt = %d, %v; want the last access, %d", got, ok, at[1])
	}
	checkAccessAt(t, "fixture", d)
}
