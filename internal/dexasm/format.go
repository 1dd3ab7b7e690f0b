// Package dexasm defines a textual assembly format for application
// packages — the stand-in for APK files on disk. It exists so apps can
// be authored or archived outside Go code and fed to cmd/nadroid, and so
// golden tests can diff program dumps.
//
//	app demo
//
//	manifest {
//	  activity demo/Main main
//	  service demo/Svc
//	  activity demo/Hidden unreachable
//	}
//
//	class demo/Main extends android/app/Activity {
//	  field f demo/V
//	  method onCreate(1) {
//	    r2 = new demo/V
//	    r0.demo/Main.f = r2
//	    return
//	  }
//	}
//
// Instruction mnemonics follow the IR printer; labels are lines ending
// with ':'.
package dexasm

import (
	"fmt"
	"sort"
	"strings"

	"nadroid/internal/apk"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
)

// Format renders a package to dexasm text. Classes are emitted in
// program order; framework classes (abstract skeletons) are skipped —
// the parser re-declares them.
func Format(pkg *apk.Package) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s\n\n", pkg.Name)

	b.WriteString("manifest {\n")
	for _, c := range pkg.Manifest.Components() {
		fmt.Fprintf(&b, "  %s %s", c.Kind, c.Class)
		if c.Main {
			b.WriteString(" main")
		}
		if !c.Reachable {
			b.WriteString(" unreachable")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")

	for _, c := range pkg.Program.Classes() {
		if isFrameworkClass(c) {
			continue
		}
		b.WriteString("\n")
		writeClass(&b, c)
	}
	return b.String()
}

// isFrameworkClass detects the framework skeletons Declare installs:
// they contain only abstract methods and live outside the app's
// namespace. The heuristic is "all methods abstract and no fields", which
// holds for every class framework.Declare emits.
func isFrameworkClass(c *ir.Class) bool {
	if len(c.Fields) > 0 {
		return false
	}
	for _, m := range c.Methods {
		if !m.Abstract {
			return false
		}
	}
	// A concrete empty class authored by an app is rare but legal; keep
	// it if its name is not in a framework namespace.
	for _, prefix := range []string{"java/", "android/"} {
		if strings.HasPrefix(c.Name, prefix) {
			return true
		}
	}
	return len(c.Methods) > 0 // abstract-only app interfaces round-trip as framework-like
}

func writeClass(b *strings.Builder, c *ir.Class) {
	fmt.Fprintf(b, "class %s extends %s", c.Name, c.Super)
	if len(c.Interfaces) > 0 {
		fmt.Fprintf(b, " implements %s", strings.Join(c.Interfaces, " "))
	}
	if c.Outer != "" {
		fmt.Fprintf(b, " inner %s", c.Outer)
	}
	b.WriteString(" {\n")
	for _, f := range c.Fields {
		if f.Static {
			fmt.Fprintf(b, "  static-field %s %s\n", f.Name, f.Type)
		} else {
			fmt.Fprintf(b, "  field %s %s\n", f.Name, f.Type)
		}
	}
	for _, m := range c.Methods {
		writeMethod(b, m)
	}
	b.WriteString("}\n")
}

func writeMethod(b *strings.Builder, m *ir.Method) {
	mods := ""
	if m.Static {
		mods = "static "
	}
	if m.Synch {
		mods += "synchronized "
	}
	if m.Abstract {
		fmt.Fprintf(b, "  %sabstract method %s(%d)\n", mods, m.Name, m.NumArgs)
		return
	}
	fmt.Fprintf(b, "  %smethod %s(%d) {\n", mods, m.Name, m.NumArgs)
	labelAt := make(map[int][]string)
	for lbl, idx := range m.Labels {
		labelAt[idx] = append(labelAt[idx], lbl)
	}
	for i, in := range m.Instrs {
		for _, l := range sorted(labelAt[i]) {
			fmt.Fprintf(b, "  %s:\n", l)
		}
		fmt.Fprintf(b, "    %s\n", in.String())
	}
	for _, l := range sorted(labelAt[len(m.Instrs)]) {
		fmt.Fprintf(b, "  %s:\n", l)
	}
	b.WriteString("  }\n")
}

func sorted(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// componentKindFromName parses a manifest component keyword.
func componentKindFromName(s string) (manifest.ComponentKind, bool) {
	switch s {
	case "activity":
		return manifest.ActivityComponent, true
	case "service":
		return manifest.ServiceComponent, true
	case "receiver":
		return manifest.ReceiverComponent, true
	}
	return 0, false
}
