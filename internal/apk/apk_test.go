package apk

import (
	"testing"

	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
)

func TestValidateCatchesMissingComponentClass(t *testing.T) {
	prog := ir.NewProgram()
	framework.Declare(prog)
	man := manifest.New("demo")
	man.Add(&manifest.Component{Kind: manifest.ActivityComponent, Class: "demo/Missing", Reachable: true})
	pkg := &Package{Name: "demo", Program: prog, Manifest: man}
	if err := pkg.Validate(); err == nil {
		t.Fatal("expected error for missing component class")
	}
}

func TestValidateCatchesBadIR(t *testing.T) {
	prog := ir.NewProgram()
	framework.Declare(prog)
	c := ir.NewClass("demo/A", framework.Activity)
	m := ir.NewMethod("demo/A", "onCreate", 1)
	m.Instrs = []ir.Instr{ir.Instr{Op: ir.OpGoto}.WithTarget("nowhere")}
	c.AddMethod(m)
	prog.AddClass(c)
	man := manifest.New("demo")
	man.Add(&manifest.Component{Kind: manifest.ActivityComponent, Class: "demo/A", Reachable: true})
	pkg := &Package{Name: "demo", Program: prog, Manifest: man}
	if err := pkg.Validate(); err == nil {
		t.Fatal("expected IR validation error")
	}
}

func TestValidOKAndSize(t *testing.T) {
	prog := ir.NewProgram()
	framework.Declare(prog)
	c := ir.NewClass("demo/A", framework.Activity)
	m := ir.NewMethod("demo/A", "onCreate", 1)
	m.Instrs = []ir.Instr{{Op: ir.OpReturn, A: ir.NoReg}}
	c.AddMethod(m)
	prog.AddClass(c)
	man := manifest.New("demo")
	man.Add(&manifest.Component{Kind: manifest.ActivityComponent, Class: "demo/A", Reachable: true})
	pkg := &Package{Name: "demo", Program: prog, Manifest: man}
	if err := pkg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if pkg.Size() != 1 {
		t.Errorf("Size = %d, want 1", pkg.Size())
	}
}
