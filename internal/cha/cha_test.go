package cha

import (
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/corpus"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
)

func fixture(t *testing.T) *Hierarchy {
	t.Helper()
	b := appbuilder.New("cha")
	b.Class("c/Base", framework.Object).Method("m", 0).Return()
	sub := b.Class("c/Sub", "c/Base")
	sub.Method("m", 0).Return()
	b.Class("c/SubSub", "c/Sub") // inherits Sub.m
	b.Runnable("c/R").Method("run", 0).Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return New(pkg.Program)
}

func TestIsSubtypeOf(t *testing.T) {
	h := fixture(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"c/Sub", "c/Base", true},
		{"c/SubSub", "c/Base", true},
		{"c/Base", "c/Sub", false},
		{"c/R", framework.Runnable, true},
		{"c/R", framework.Object, true},
		{"c/Base", framework.Runnable, false},
		{"c/Base", "c/Base", true},
	}
	for _, c := range cases {
		if got := h.IsSubtypeOf(c.sub, c.super); got != c.want {
			t.Errorf("IsSubtypeOf(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestResolveWalksSuperChain(t *testing.T) {
	h := fixture(t)
	m := h.Resolve("c/SubSub", "m")
	if m == nil || m.Class != "c/Sub" {
		t.Fatalf("Resolve(SubSub, m) = %v, want Sub.m", m)
	}
	if h.Resolve("c/Base", "nonexistent") != nil {
		t.Error("unknown methods resolve to nil")
	}
	// Abstract framework methods resolve to nil.
	if h.Resolve("c/R", "nosuch") != nil {
		t.Error("missing method must be nil")
	}
}

func TestMethodByRef(t *testing.T) {
	h := fixture(t)
	if _, err := h.MethodByRef("c/Base.m"); err != nil {
		t.Errorf("MethodByRef: %v", err)
	}
	for _, bad := range []string{"nodots", "c/Missing.m", "c/Base.missing"} {
		if _, err := h.MethodByRef(bad); err == nil {
			t.Errorf("MethodByRef(%q) should fail", bad)
		}
	}
}

func TestFieldResolutionAcrossHierarchy(t *testing.T) {
	b := appbuilder.New("fields")
	b.Class("f/Base", framework.Object).Field("x", "f/V")
	b.Class("f/Sub", "f/Base")
	b.Class("f/V", framework.Object)
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := New(pkg.Program)
	if f := h.CanonicalField(ir.FieldRef{Class: "f/Sub", Name: "x"}); f != (ir.FieldRef{Class: "f/Base", Name: "x"}) {
		t.Errorf("field x should resolve to f/Base, got %v", f)
	}
	missing := ir.FieldRef{Class: "f/Sub", Name: "missing"}
	if f := h.CanonicalField(missing); f != missing {
		t.Errorf("a field no class declares keeps its ref, got %v", f)
	}
}

// corpusPackages builds the 30 corpus apps and corpus.RandomSpec seeds
// 1–6.
func corpusPackages() []*apk.Package {
	var pkgs []*apk.Package
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		pkgs = append(pkgs, app.Build())
	}
	for seed := uint64(1); seed <= 6; seed++ {
		pkgs = append(pkgs, corpus.RandomSpec(seed).Build())
	}
	return pkgs
}

// walkSubtype is the reference IsSubtypeOf: a walk up Super and
// Interfaces from sub.
func walkSubtype(prog *ir.Program, sub, super string) bool {
	if sub == super {
		return true
	}
	c := prog.Class(sub)
	if c == nil {
		return false
	}
	if c.Super != "" && walkSubtype(prog, c.Super, super) {
		return true
	}
	for _, i := range c.Interfaces {
		if walkSubtype(prog, i, super) {
			return true
		}
	}
	return false
}

// TestIsSubtypeOfMatchesWalk checks the ancestor bitsets against the
// walk for every pair of class names a program declares or names as a
// supertype, plus a name it never mentions. Corpus programs declare
// their framework classes, so a hand-built program names undeclared
// supertypes, one of them through a declared interface.
func TestIsSubtypeOfMatchesWalk(t *testing.T) {
	ext := ir.NewProgram()
	a := ir.NewClass("x/A", "ext/Base")
	a.Interfaces = []string{"ext/I", "x/J"}
	j := ir.NewClass("x/J", "")
	j.IsIface = true
	j.Interfaces = []string{"ext/K"}
	for _, c := range []*ir.Class{a, j, ir.NewClass("x/B", "x/A"), ir.NewClass("x/C", "ext/Base")} {
		ext.AddClass(c)
	}
	pkgs := append(corpusPackages(), &apk.Package{Name: "undeclared", Program: ext})
	for _, pkg := range pkgs {
		prog := pkg.Program
		h := New(prog)
		names := []string{"no/Such"}
		seen := map[string]bool{}
		for _, c := range prog.Classes() {
			for _, name := range append([]string{c.Name, c.Super}, c.Interfaces...) {
				if name != "" && !seen[name] {
					seen[name] = true
					names = append(names, name)
				}
			}
		}
		for _, sub := range names {
			for _, super := range names {
				if got, want := h.IsSubtypeOf(sub, super), walkSubtype(prog, sub, super); got != want {
					t.Errorf("%s: IsSubtypeOf(%s, %s) = %v, want %v", pkg.Name, sub, super, got, want)
				}
			}
		}
	}
}
