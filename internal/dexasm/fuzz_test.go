package dexasm_test

import (
	"testing"

	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
)

// FuzzParse feeds arbitrary text to the parser, the decoder behind
// `nadroid app.dexasm` and POST /v1/analyze bodies. Parse must never
// panic, every method it accepts must keep its arg count within 0–255
// and its registers within r0–r65535 and have a body allocated at its
// final size, a class hierarchy must build over whatever it accepts
// (cha.New panics on what the analysis cannot handle), and the
// accepted program must format to text that parses back and formats
// identically (Format is a fixed point after one round). The seeds are
// every formatted corpus app, inputs that once panicked, made the
// analysis run out of memory, or parsed to a different program than
// they spell, and the line-rule inputs (CRLF, no trailing newline,
// blank and comment lines in a body, a label before a closing brace).
func FuzzParse(f *testing.F) {
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		f.Add(dexasm.Format(app.Build()))
	}
	f.Add("class 0 extends 0\nfield 0 0\nfield 0 0")
	f.Add("app cyc\nclass cyc/B extends cyc/C {\n}\nclass cyc/C extends cyc/B {\n}\n")
	f.Add("app a\nclass X extends android/app/Activity {\n  method onCreate(-3) {\n    return\n  }\n}\n")
	f.Add("app a\nclass X extends android/app/Activity {\n  method onCreate(50000000) {\n    return\n  }\n}\n")
	f.Add("app a\nclass X extends android/app/Activity {\n  method onCreate(1) {\n    r20000000 = null\n    return\n  }\n}\n")
	f.Add("app a\nclass X extends java/lang/Object {\n  method m(0) {\n  L:\n    nop\n  L:\n    goto L\n  }\n}\n")
	f.Add("app a\nclass X extends java/lang/Object {\n  method m(0) {\n    r1 = r+2\n    return r-1\n  }\n}\n")
	for _, src := range dexasm.LineRuleSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pkg, err := dexasm.Parse(src)
		if err != nil {
			return
		}
		for _, c := range pkg.Program.Classes() {
			for _, m := range c.Methods {
				if m.NumArgs < 0 || m.NumArgs > 255 || m.NumRegs > 65536 {
					t.Fatalf("accepted %s with %d args and %d registers", m.Ref(), m.NumArgs, m.NumRegs)
				}
				if cap(m.Instrs) != len(m.Instrs) {
					t.Fatalf("%s: body of %d instructions has capacity %d", m.Ref(), len(m.Instrs), cap(m.Instrs))
				}
			}
		}
		cha.New(pkg.Program)
		text := dexasm.Format(pkg)
		again, err := dexasm.Parse(text)
		if err != nil {
			t.Fatalf("formatted output does not parse: %v\n%s", err, text)
		}
		if text2 := dexasm.Format(again); text2 != text {
			t.Fatalf("format is not a fixed point:\n%s", firstDiff(text, text2))
		}
	})
}
