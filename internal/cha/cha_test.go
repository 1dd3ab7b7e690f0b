package cha

import (
	"testing"

	"nadroid/internal/appbuilder"
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
	f := h.DeclaringClassOfField(ir.FieldRef{Class: "f/Sub", Name: "x"})
	if f == nil || f.Class != "f/Base" {
		t.Errorf("field x should resolve to f/Base, got %v", f)
	}
	if h.DeclaringClassOfField(ir.FieldRef{Class: "f/Sub", Name: "missing"}) != nil {
		t.Error("missing fields resolve to nil")
	}
}
