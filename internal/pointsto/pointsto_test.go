package pointsto

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nadroid/internal/appbuilder"
	"nadroid/internal/cha"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
)

// buildBoxApp constructs:
//
//	class Box { f; set(v){this.f=v} get(){return this.f} make(){this.f=new A} }
//	class Main { static main() { b1=new Box; b2=new Box; a1=new A; a2=new A;
//	             b1.set(a1); b2.set(a2); r1=b1.get(); r2=b2.get();
//	             b1.make(); b2.make(); m1=b1.get(); m2=b2.get() } }
func buildBoxApp(t *testing.T) (*cha.Hierarchy, *ir.Method) {
	t.Helper()
	b := appbuilder.New("boxapp")
	box := b.Class("Box", framework.Object)
	box.Field("f", "A")
	set := box.Method("set", 1)
	set.PutThis("f", set.Arg(0))
	set.Return()
	get := box.Method("get", 0)
	r := get.GetThis("f")
	get.ReturnReg(r)
	mk := box.Method("make", 0)
	a := mk.New("A")
	mk.PutThis("f", a)
	mk.Return()
	b.Class("A", framework.Object)

	mainCls := b.Class("Main", framework.Object)
	mb := mainCls.Method("main", 0)
	mb.Method().Static = true
	b1 := mb.New("Box")
	b2 := mb.New("Box")
	a1 := mb.New("A")
	a2 := mb.New("A")
	mb.InvokeVoid(b1, "Box", "set", a1)
	mb.InvokeVoid(b2, "Box", "set", a2)
	r1 := mb.Invoke(b1, "Box", "get")
	r2 := mb.Invoke(b2, "Box", "get")
	mb.InvokeVoid(b1, "Box", "make")
	mb.InvokeVoid(b2, "Box", "make")
	m1 := mb.Invoke(b1, "Box", "get")
	m2 := mb.Invoke(b2, "Box", "get")
	mb.Return()
	_ = []int{r1, r2, m1, m2}

	pkg, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	h := cha.New(pkg.Program)
	return h, mb.Method()
}

func TestObjectSensitivityDistinguishesReceivers(t *testing.T) {
	h, main := buildBoxApp(t)
	res := SolveWithSynthetics(h, nil, []Entry{{Method: main}}, Options{K: 2})
	// Flow-insensitively, b1.f holds {a1, make-alloc-under-b1}; the key
	// object-sensitivity property is that b1's and b2's contents are
	// disjoint.
	r1 := res.PointsTo(main.Ref(), NoRecv, regOfInvokeResult(main, "get", 0))
	r2 := res.PointsTo(main.Ref(), NoRecv, regOfInvokeResult(main, "get", 1))
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("r1=%v r2=%v, want two objects each (a_i + make alloc)", r1, r2)
	}
	if intersects(r1, r2) {
		t.Errorf("receiver contents must be disjoint: r1=%v r2=%v", r1, r2)
	}
}

func TestHeapContextK2SplitsInnerAllocs(t *testing.T) {
	h, main := buildBoxApp(t)
	res := SolveWithSynthetics(h, nil, []Entry{{Method: main}}, Options{K: 2})
	m1 := res.PointsTo(main.Ref(), NoRecv, regOfInvokeResult(main, "get", 2))
	m2 := res.PointsTo(main.Ref(), NoRecv, regOfInvokeResult(main, "get", 3))
	// Pick the make() allocations: objects whose site is inside Box.make.
	mk1 := filterBySite(res, m1, "Box.make")
	mk2 := filterBySite(res, m2, "Box.make")
	if len(mk1) != 1 || len(mk2) != 1 {
		t.Fatalf("mk1=%v mk2=%v, want one make alloc per receiver under k=2", mk1, mk2)
	}
	if mk1[0] == mk2[0] {
		t.Error("k=2 must split make()'s allocation by receiver")
	}
	o1, o2 := res.Obj(mk1[0]), res.Obj(mk2[0])
	if o1.Site != o2.Site {
		t.Errorf("same allocation site expected, got %q vs %q", o1.Site, o2.Site)
	}
	if o1.Ctx == o2.Ctx {
		t.Error("contexts must differ under k=2")
	}
}

func TestHeapContextK1MergesInnerAllocs(t *testing.T) {
	h, main := buildBoxApp(t)
	res := SolveWithSynthetics(h, nil, []Entry{{Method: main}}, Options{K: 1})
	m1 := res.PointsTo(main.Ref(), NoRecv, regOfInvokeResult(main, "get", 2))
	m2 := res.PointsTo(main.Ref(), NoRecv, regOfInvokeResult(main, "get", 3))
	mk1 := filterBySite(res, m1, "Box.make")
	mk2 := filterBySite(res, m2, "Box.make")
	if len(mk1) != 1 || len(mk2) != 1 {
		t.Fatalf("mk1=%v mk2=%v, want one make alloc each", mk1, mk2)
	}
	if mk1[0] != mk2[0] {
		t.Error("k=1 should merge make()'s allocation across receivers")
	}
}

func intersects(a, b []ObjID) bool {
	set := make(map[ObjID]bool, len(a))
	for _, o := range a {
		set[o] = true
	}
	for _, o := range b {
		if set[o] {
			return true
		}
	}
	return false
}

func filterBySite(res *Result, ids []ObjID, sitePrefix string) []ObjID {
	var out []ObjID
	for _, id := range ids {
		if strings.HasPrefix(res.Obj(id).Site, sitePrefix) {
			out = append(out, id)
		}
	}
	return out
}

// TestStaticFieldFlow: a static load sees what a static store put
// there, also when either ref names the field through a subclass of
// the class that declares it.
func TestStaticFieldFlow(t *testing.T) {
	for _, owners := range [][2]string{{"G", "G"}, {"G", "Sub"}, {"Sub", "G"}} {
		b := appbuilder.New("staticapp")
		b.Class("G", framework.Object).StaticField("shared", "A")
		b.Class("Sub", "G")
		b.Class("A", framework.Object)
		c := b.Class("Main", framework.Object)
		w := c.Method("writer", 0)
		w.Method().Static = true
		a := w.New("A")
		w.PutStatic(owners[0], "shared", a)
		w.Return()
		rd := c.Method("reader", 0)
		rd.Method().Static = true
		got := rd.GetStatic(owners[1], "shared")
		rd.ReturnReg(got)
		pkg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		h := cha.New(pkg.Program)
		res := SolveWithSynthetics(h, nil, []Entry{
			{Method: w.Method()},
			{Method: rd.Method()},
		}, Options{K: 2})
		pts := res.PointsTo(rd.Method().Ref(), NoRecv, got)
		if len(pts) != 1 {
			t.Fatalf("store via %s, load via %s: reader sees %v, want one object", owners[0], owners[1], pts)
		}
		if res.Obj(pts[0]).Class != "A" {
			t.Errorf("class = %q, want A", res.Obj(pts[0]).Class)
		}
	}
}

func TestSyntheticEntryReceivers(t *testing.T) {
	b := appbuilder.New("synthapp")
	act := b.Activity("MainActivity")
	act.Field("f", "A")
	on := act.Method("onCreate", 0)
	a := on.New("A")
	on.PutThis("f", a)
	on.Return()
	b.Class("A", framework.Object)
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := cha.New(pkg.Program)
	synth := []Obj{{Site: "synthetic:MainActivity", Class: "MainActivity"}}
	res := SolveWithSynthetics(h, synth, []Entry{
		{Method: on.Method(), Receivers: []ObjID{0}},
	}, Options{K: 2})
	// this.f of the synthetic receiver holds the A allocated in onCreate.
	pts := res.FieldPointsTo(0, "f")
	if len(pts) != 1 || res.Obj(pts[0]).Class != "A" {
		t.Fatalf("FieldPointsTo(synth, f) = %v, want one A", pts)
	}
	if !strings.HasPrefix(res.Obj(pts[0]).Ctx, "synthetic:MainActivity") {
		t.Errorf("heap ctx = %q, want receiver site prefix", res.Obj(pts[0]).Ctx)
	}
}

func TestSkipCallCutsEdges(t *testing.T) {
	b := appbuilder.New("skipapp")
	c := b.Class("C", framework.Object)
	callee := c.Method("callee", 0)
	callee.New("A")
	callee.Return()
	caller := c.Method("caller", 0)
	caller.InvokeThis("callee")
	caller.Return()
	b.Class("A", framework.Object)
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := cha.New(pkg.Program)
	synth := []Obj{{Site: "synthetic:C", Class: "C"}}
	skip := func(m *ir.Method, idx int, in ir.Instr) bool {
		return in.Op == ir.OpInvoke && in.Callee().Name == "callee"
	}
	res := SolveWithSynthetics(h, synth, []Entry{
		{Method: caller.Method(), Receivers: []ObjID{0}},
	}, Options{K: 2, SkipCall: skip})
	if res.Reachable("C.callee") {
		t.Error("skipped call must not make callee reachable")
	}
	res2 := SolveWithSynthetics(h, synth, []Entry{
		{Method: caller.Method(), Receivers: []ObjID{0}},
	}, Options{K: 2})
	if !res2.Reachable("C.callee") {
		t.Error("callee must be reachable without skip")
	}
}

func TestVirtualDispatchUsesRuntimeClass(t *testing.T) {
	b := appbuilder.New("dispatchapp")
	b.Class("Base", framework.Object).Method("m", 0).Return()
	sub := b.Class("Sub", "Base")
	sm := sub.Method("m", 0)
	sm.New("A")
	sm.Return()
	b.Class("A", framework.Object)
	c := b.Class("Main", framework.Object)
	mb := c.Method("main", 0)
	mb.Method().Static = true
	o := mb.New("Sub")
	// Static callee type is Base; runtime class is Sub.
	mb.InvokeVoid(o, "Base", "m")
	mb.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := cha.New(pkg.Program)
	res := SolveWithSynthetics(h, nil, []Entry{{Method: mb.Method()}}, Options{K: 2})
	if !res.Reachable("Sub.m") {
		t.Error("dispatch must reach Sub.m")
	}
	if res.Reachable("Base.m") {
		t.Error("dispatch must not reach Base.m for a Sub receiver")
	}
}

// regOfInvokeResult finds the destination register of the n-th invoke of
// the named method inside m.
func regOfInvokeResult(m *ir.Method, callee string, n int) int {
	count := 0
	for _, in := range m.Instrs {
		if in.Op == ir.OpInvoke && in.Callee().Name == callee {
			if count == n {
				return in.A
			}
			count++
		}
	}
	panic("invoke not found")
}

// Factory-classified invokes must behave as allocations: distinct call
// sites yield distinct abstract objects of the spec'd class.
func TestFactoryOracleAllocates(t *testing.T) {
	b := appbuilder.New("factory")
	c := b.Class("fa/C", framework.Object)
	c.Field("a", "fa/W")
	c.Field("b", "fa/W")
	b.Class("fa/W", framework.Object)
	b.Class("fa/PM", framework.Object).Method("make", 1).Method().Abstract = true
	m := c.Method("m", 0)
	pm := m.New("fa/PM")
	w1 := m.Invoke(pm, "fa/PM", "make")
	m.PutThis("a", w1)
	w2 := m.Invoke(pm, "fa/PM", "make")
	m.PutThis("b", w2)
	m.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := cha.New(pkg.Program)
	factory := func(caller *ir.Method, idx int, in ir.Instr) (string, bool) {
		if in.Op == ir.OpInvoke && in.Callee().Name == "make" {
			return "fa/W", true
		}
		return "", false
	}
	synth := []Obj{{Site: "synthetic:C", Class: "fa/C"}}
	res := SolveWithSynthetics(h, synth, []Entry{
		{Method: m.Method(), Receivers: []ObjID{0}},
	}, Options{K: 2, Factory: factory})
	a := res.FieldPointsTo(0, "a")
	bts := res.FieldPointsTo(0, "b")
	if len(a) != 1 || len(bts) != 1 {
		t.Fatalf("a=%v b=%v, want singletons", a, bts)
	}
	if a[0] == bts[0] {
		t.Error("distinct factory call sites must allocate distinct objects")
	}
	if res.Obj(a[0]).Class != "fa/W" {
		t.Errorf("factory class = %q, want fa/W", res.Obj(a[0]).Class)
	}
}

// The solver reserves its per-variable tables from measure's register
// total before it knows which methods are reached, so a method whose
// body names one high register must count for its size, not for its
// register number.
func TestRegisterTotalBoundsSparseRegisters(t *testing.T) {
	b := appbuilder.New("sparse")
	c := b.Class("S", framework.Object)
	dense := c.Method("dense", 1)
	dense.ReturnReg(dense.New("S"))
	sparse := c.Method("sparse", 0).Method()
	sparse.Instrs = []ir.Instr{{Op: ir.OpConstNull, A: 65535}, {Op: ir.OpReturn, A: ir.NoReg}}
	sparse.NumRegs = 65536
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := pkg.Program.Class("S").Method("dense")
	if got, want := measure(pkg.Program).regs, d.NumRegs+3; got != want {
		t.Errorf("register total = %d, want %d (dense %d registers, sparse 1 receiver + 2 instructions)", got, want, d.NumRegs)
	}
}

// activityApp builds n activities with the synthetic receivers and
// entries a solve of them starts from, as threadify seeds them. Each
// onCreate stores its receiver in a field, loads it back and passes it
// to a helper that copies it, so a solve interns methods, contexts,
// variables, fields and every kind of constraint list per activity; each
// activity also has an unreached allocation site, which the object
// tables are sized from. Only receivers flow: a points-to set is a dense
// bitset over object ids, so the set holding object i takes i/64 words,
// and a program whose every activity fills sets with its own objects
// grows quadratically in bytes for that reason alone.
func activityApp(t testing.TB, n int) (*cha.Hierarchy, []Obj, []Entry) {
	t.Helper()
	b := appbuilder.New("linear")
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("A%d", i)
		a := b.Class(name, framework.Activity)
		a.Field("f", name)
		oc := a.Method("onCreate", 1)
		oc.PutThis("f", oc.This())
		oc.InvokeVoid(oc.GetThis("f"), name, "helper", oc.This())
		oc.Return()
		helper := a.Method("helper", 1)
		r := helper.Reg()
		helper.Move(r, helper.Arg(0))
		helper.Return()
		unused := a.Method("unused", 0)
		unused.New(name)
		unused.Return()
		names = append(names, name)
	}
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var synths []Obj
	var entries []Entry
	for i, name := range names {
		synths = append(synths, Obj{Site: "synthetic:" + name, Class: name})
		m := pkg.Program.Class(name).Method("onCreate")
		entries = append(entries, Entry{Method: m, Receivers: []ObjID{ObjID(i)}})
	}
	return cha.New(pkg.Program), synths, entries
}

// solveCost returns the bytes and allocations of one solve of n
// activities, averaged over a few runs.
func solveCost(t *testing.T, n int) (bytes, allocs float64) {
	t.Helper()
	const runs = 5
	h, synths, entries := activityApp(t, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		SolveWithSynthetics(h, synths, entries, Options{K: 2})
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestSolveLinear bounds what a solve allocates as the program grows:
// past the fixed cost of an empty app, twice as many activities must cost
// at most 2.1 times the bytes and allocations. It is the solver's
// counterpart of dexasm's TestParseLinear and keeps the tables the solver
// sizes from the program linear in it. The dense receiver bitsets add
// n²/64 words, which reads 2.07 times here and would read 2.11 at
// 200 → 400 activities.
func TestSolveLinear(t *testing.T) {
	const n = 128
	baseBytes, baseAllocs := solveCost(t, 0)
	b1, a1 := solveCost(t, n)
	b2, a2 := solveCost(t, 2*n)
	b1, a1, b2, a2 = b1-baseBytes, a1-baseAllocs, b2-baseBytes, a2-baseAllocs
	t.Logf("%d → %d activities: %.0f → %.0f bytes, %.0f → %.0f allocations", n, 2*n, b1, b2, a1, a2)
	if b2 > 2.1*b1 || a2 > 2.1*a1 {
		t.Errorf("%d → %d activities cost %.0f → %.0f bytes and %.0f → %.0f allocations past an empty app, more than 2.1 times",
			n, 2*n, b1, b2, a1, a2)
	}
}

// wantSet fails unless register reg of method (under no receiver)
// points to exactly the objects allocated at want.
func wantSet(t *testing.T, res *Result, method *ir.Method, reg int, want []string) {
	t.Helper()
	var got []string
	for _, o := range res.PointsTo(method.Ref(), NoRecv, reg) {
		got = append(got, res.Obj(o).Site)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s r%d points to %v, want %v", method.Ref(), reg, got, want)
	}
}

// TestCopyCycles solves copy cycles by difference propagation alone:
// every register on a cycle ends pointing to the union of the objects
// allocated on it, and each (variable, object) fact crosses the worklist
// exactly once. The rings are n moves through n registers of one static
// method, each register also allocating an object; 200 is past the 128
// new copy edges that once started a cycle-collapse pass. The last case
// is a cycle through a static call's parameter and return value.
func TestCopyCycles(t *testing.T) {
	for _, n := range []int{2, 3, 4, 200} {
		t.Run(fmt.Sprintf("ring%d", n), func(t *testing.T) {
			b := appbuilder.New("ring")
			b.Class("A", framework.Object)
			mb := b.Class("Main", framework.Object).Method("main", 0)
			mb.Method().Static = true
			regs := make([]int, n)
			for i := range regs {
				regs[i] = mb.New("A")
			}
			for i, r := range regs {
				mb.Move(regs[(i+1)%n], r)
			}
			mb.Return()
			pkg, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			res := SolveWithSynthetics(cha.New(pkg.Program), nil, []Entry{{Method: mb.Method()}}, Options{K: 2})
			var sites []string
			for _, o := range res.Objects() {
				sites = append(sites, o.Site)
			}
			slices.Sort(sites)
			for _, r := range regs {
				wantSet(t, res, mb.Method(), r, sites)
			}
			st := res.Stats()
			if st.VarFacts != n*n || st.DeltaObjs != st.VarFacts {
				t.Errorf("var facts %d, delta objects %d; want %d each", st.VarFacts, st.DeltaObjs, n*n)
			}
			if st.Iterations > 2*n {
				t.Errorf("%d iterations for a ring of %d moves, want at most %d", st.Iterations, n, 2*n)
			}
		})
	}
	t.Run("static call", func(t *testing.T) {
		// main: r = new A; res = C.id(r); r = res
		// id(x): y = new B; y = x; return y
		b := appbuilder.New("callcycle")
		b.Class("A", framework.Object)
		b.Class("B", framework.Object)
		c := b.Class("C", framework.Object)
		id := c.Method("id", 1)
		id.Method().Static = true
		y := id.New("B")
		id.Move(y, id.Arg(0))
		id.ReturnReg(y)
		mb := c.Method("main", 0)
		mb.Method().Static = true
		r := mb.New("A")
		mb.Move(r, mb.InvokeStatic("C", "id", r))
		mb.Return()
		pkg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := SolveWithSynthetics(cha.New(pkg.Program), nil, []Entry{{Method: mb.Method()}}, Options{K: 2})
		sites := []string{"C.id:0", "C.main:0"}
		wantSet(t, res, mb.Method(), r, sites)
		wantSet(t, res, mb.Method(), r+1, sites)
		wantSet(t, res, id.Method(), id.Arg(0), sites)
		wantSet(t, res, id.Method(), y, sites)
		if st := res.Stats(); st.VarFacts != 8 || st.DeltaObjs != st.VarFacts {
			t.Errorf("var facts %d, delta objects %d; want 8 each", st.VarFacts, st.DeltaObjs)
		}
	})
}
