package ir

import (
	"sync"
	"testing"
	"testing/quick"
)

func sampleMethod(t *testing.T) *Method {
	t.Helper()
	// void m():
	//   r1 = this.f
	//   if r1 == null goto end
	//   r2 = this.f
	//   r3 = r2.use()
	// end:
	//   return
	m := NewMethod("C", "m", 0)
	m.NumRegs = 4
	f := FieldRef{Class: "C", Name: "f"}
	m.Instrs = []Instr{
		{Op: OpGetField, A: 1, B: 0, Field: f},
		{Op: OpIfNull, B: 1, Target: "end"},
		{Op: OpGetField, A: 2, B: 0, Field: f},
		{Op: OpInvoke, A: 3, B: 2, Callee: MethodRef{Class: "F", Name: "use"}},
		{Op: OpReturn, A: NoReg},
	}
	m.Labels["end"] = 4
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

func TestCFGBasicBlocks(t *testing.T) {
	m := sampleMethod(t)
	g := BuildCFG(m)
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(g.Blocks))
	}
	b0 := g.Blocks[0]
	if b0.Start != 0 || b0.End != 2 {
		t.Errorf("block0 range [%d,%d), want [0,2)", b0.Start, b0.End)
	}
	if len(b0.Succs) != 2 {
		t.Errorf("block0 succs %v, want 2 edges", b0.Succs)
	}
	if got := g.BlockOf(3); got != 1 {
		t.Errorf("BlockOf(3) = %d, want 1", got)
	}
}

func TestDominators(t *testing.T) {
	m := sampleMethod(t)
	g := BuildCFG(m)
	idom := g.Dominators()
	// Entry dominates everything.
	for b := range g.Blocks {
		if !g.Dominates(idom, 0, g.Blocks[b].Start) && g.Blocks[b].Start != g.Blocks[b].End {
			t.Errorf("entry should dominate block %d", b)
		}
	}
	// The guarded use (instr 3) is dominated by the null check (instr 1).
	if !g.Dominates(idom, 1, 3) {
		t.Error("if-null should dominate guarded use")
	}
	// The guarded use does not dominate the return.
	if g.Dominates(idom, 3, 4) {
		t.Error("guarded use must not dominate return (join point)")
	}
}

func TestOriginNullTracking(t *testing.T) {
	// r1 = null; this.f = r1  => free.
	m := NewMethod("C", "clear", 0)
	m.NumRegs = 2
	f := FieldRef{Class: "C", Name: "f"}
	m.Instrs = []Instr{
		{Op: OpConstNull, A: 1},
		{Op: OpPutField, B: 0, A: 1, Field: f},
		{Op: OpReturn, A: NoReg},
	}
	oi := ComputeOrigins(m)
	if !IsFree(oi, m, 1) {
		t.Error("putfield of const-null must be a free")
	}
	if IsFree(oi, m, 0) {
		t.Error("const-null itself is not a free")
	}
}

func TestOriginMergeLosesNull(t *testing.T) {
	// Null on one path, new on the other: store is not definitely a free.
	m := NewMethod("C", "maybe", 0)
	m.NumRegs = 2
	f := FieldRef{Class: "C", Name: "f"}
	m.Instrs = []Instr{
		{Op: OpIfCond, Target: "alloc"},        // 0
		{Op: OpConstNull, A: 1},                // 1
		{Op: OpGoto, Target: "store"},          // 2
		{Op: OpNew, A: 1, Type: "F"},           // 3 alloc:
		{Op: OpPutField, B: 0, A: 1, Field: f}, // 4 store:
		{Op: OpReturn, A: NoReg},               // 5
	}
	m.Labels["alloc"] = 3
	m.Labels["store"] = 4
	oi := ComputeOrigins(m)
	if got := oi.At(4, 1).Kind; got != OriginUnknown {
		t.Errorf("merged origin = %v, want unknown", got)
	}
	if IsFree(oi, m, 4) {
		t.Error("merged null/new store must not be a free")
	}
}

// TestOriginsTableSharedAcrossGoroutines asks one table for the origins
// of a few methods from several goroutines at once: each method gets one
// entry, every request sees it, and it answers like ComputeOrigins.
func TestOriginsTableSharedAcrossGoroutines(t *testing.T) {
	methods := []*Method{sampleMethod(t), sampleMethod(t), sampleMethod(t)}
	table := NewOrigins()
	const workers = 8
	got := make([][]*OriginInfo, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, m := range methods {
				got[g] = append(got[g], table.Of(m))
			}
		}(g)
	}
	wg.Wait()
	if n := table.Computed(); n != len(methods) {
		t.Fatalf("table computed %d entries for %d methods", n, len(methods))
	}
	for i, m := range methods {
		for g := 1; g < workers; g++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines %d and 0 got different entries for method %d", g, i)
			}
		}
		if got[0][i].CFG() == nil || got[0][i].At(3, 2) != ComputeOrigins(m).At(3, 2) {
			t.Errorf("method %d: entry does not answer like ComputeOrigins", i)
		}
	}
}

func TestUsesOfDef(t *testing.T) {
	m := sampleMethod(t)
	uses := UsesOfDef(m, 2) // r2 = this.f
	if len(uses) != 1 || uses[0] != 3 {
		t.Fatalf("UsesOfDef = %v, want [3]", uses)
	}
	// The first load's value feeds only the null check.
	uses = UsesOfDef(m, 0)
	if len(uses) != 1 || uses[0] != 1 {
		t.Fatalf("UsesOfDef(load0) = %v, want [1]", uses)
	}
}

func TestUsesOfDefFollowsMoves(t *testing.T) {
	m := NewMethod("C", "m", 0)
	m.NumRegs = 4
	m.Instrs = []Instr{
		{Op: OpNew, A: 1, Type: "F"},
		{Op: OpMove, A: 2, B: 1},
		{Op: OpInvoke, A: 3, B: 2, Callee: MethodRef{Class: "F", Name: "use"}},
		{Op: OpReturn, A: NoReg},
	}
	uses := UsesOfDef(m, 0)
	want := map[int]bool{1: true, 2: true}
	if len(uses) != 2 || !want[uses[0]] || !want[uses[1]] {
		t.Fatalf("UsesOfDef = %v, want move and invoke", uses)
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	m := NewMethod("C", "bad", 0)
	m.Instrs = []Instr{{Op: OpGoto, Target: "nowhere"}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for unresolved label")
	}
}

func TestValidateCatchesBadRegister(t *testing.T) {
	m := NewMethod("C", "bad", 0)
	m.Instrs = []Instr{{Op: OpMove, A: 5, B: 0}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for out-of-range register")
	}
}

func TestProgramDuplicateClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate class")
		}
	}()
	p := NewProgram()
	p.AddClass(NewClass("A", ""))
	p.AddClass(NewClass("A", ""))
}

func TestSplitRef(t *testing.T) {
	cases := []struct {
		ref       string
		cls, name string
		ok        bool
	}{
		{"java/lang/Object.toString", "java/lang/Object", "toString", true},
		{"C.m", "C", "m", true},
		{"noDotButTrailing.", "", "", false},
		{".leading", "", "", false},
		{"nodots", "", "", false},
	}
	for _, c := range cases {
		cls, name, ok := SplitRef(c.ref)
		if cls != c.cls || name != c.name || ok != c.ok {
			t.Errorf("SplitRef(%q) = (%q,%q,%v), want (%q,%q,%v)", c.ref, cls, name, ok, c.cls, c.name, c.ok)
		}
	}
}

// Property: mergeOrigin is commutative, idempotent, and OriginUndef is
// its identity — required for dataflow convergence.
func TestMergeOriginLattice(t *testing.T) {
	gen := func(k uint8, site int8) Origin {
		kind := OriginKind(int(k) % 8)
		s := int(site)%4 + 4 // positive site
		if kind == OriginUndef {
			s = -1 // Undef carries no site; -1 is its canonical form
		}
		return Origin{Kind: kind, Site: s}
	}
	comm := func(k1 uint8, s1 int8, k2 uint8, s2 int8) bool {
		a, b := gen(k1, s1), gen(k2, s2)
		return mergeOrigin(a, b) == mergeOrigin(b, a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	idem := func(k uint8, s int8) bool {
		a := gen(k, s)
		return mergeOrigin(a, a) == a
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Error(err)
	}
	ident := func(k uint8, s int8) bool {
		a := gen(k, s)
		undef := Origin{Kind: OriginUndef, Site: -1}
		return mergeOrigin(a, undef) == a && mergeOrigin(undef, a) == a
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dominates is reflexive and antisymmetric (for distinct
// reachable instructions in different blocks, at most one direction).
func TestDominatesPartialOrder(t *testing.T) {
	m := sampleMethod(t)
	g := BuildCFG(m)
	idom := g.Dominators()
	for i := range m.Instrs {
		if !g.Dominates(idom, i, i) {
			t.Errorf("Dominates must be reflexive at %d", i)
		}
	}
	for i := range m.Instrs {
		for j := range m.Instrs {
			if i == j || g.BlockOf(i) == g.BlockOf(j) {
				continue
			}
			if g.Dominates(idom, i, j) && g.Dominates(idom, j, i) {
				t.Errorf("antisymmetry violated between %d and %d", i, j)
			}
		}
	}
}

// String must render both invoke forms in the syntax dexasm.Parse
// accepts: a void invoke uses `call`, never a `r-1 =` destination.
func TestInvokeString(t *testing.T) {
	callee := MethodRef{Class: "C", Name: "m"}
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpInvoke, A: 1, B: 2, Callee: callee, Args: []int{3, 4}}, "r1 = r2.C.m(r3, r4)"},
		{Instr{Op: OpInvoke, A: NoReg, B: 2, Callee: callee, Args: []int{3}}, "call r2.C.m(r3)"},
		{Instr{Op: OpInvokeStatic, A: 1, Callee: callee}, "r1 = C.m()"},
		{Instr{Op: OpInvokeStatic, A: NoReg, Callee: callee, Args: []int{0, 5}}, "call C.m(r0, r5)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
