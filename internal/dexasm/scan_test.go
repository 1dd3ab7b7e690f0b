package dexasm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"nadroid/internal/corpus"
)

// lineRuleCases are inputs whose line handling the in-place scanner must
// keep as strings.Split + strings.TrimSpace had it: CRLF line ends, a
// missing trailing newline, blank and comment lines inside a body, a
// label right before a method's closing brace, and lone carriage
// returns, which end no line. want is the formatted program or the
// error, as the line-splitting parser gave them.
var lineRuleCases = []struct{ src, want string }{
	{"app a\r\nclass X extends java/lang/Object {\r\n  field f X\r\n  method m(0) {\r\n  L:\r\n    r1 = r0.X.f\r\n    if r1 == null goto L\r\n    return\r\n  }\r\n}\r\n",
		"app a\n\nmanifest {\n}\n\nclass X extends java/lang/Object {\n  field f X\n  method m(0) {\n  L:\n    r1 = r0.X.f\n    if r1 == null goto L\n    return\n  }\n}\n"},
	{"app a\r\n\r\n# note\r\nclass X extends java/lang/Object {\r\n  method m(0) {\r\n    bogus\r\n  }\r\n}\r\n",
		`dexasm: line 6: cannot parse instruction "bogus"`},
	{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    return\n  }\n}",
		"app a\n\nmanifest {\n}\n\nclass X extends java/lang/Object {\n  method m(0) {\n    return\n  }\n}\n"},
	{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    return",
		"dexasm: line 4: unterminated method X.m"},
	{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n\n    # comment\n    // another\n    nop\n   \t\n    return\n  }\n}\n",
		"app a\n\nmanifest {\n}\n\nclass X extends java/lang/Object {\n  method m(0) {\n    nop\n    return\n  }\n}\n"},
	{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    goto end\n  end:\n  }\n}\n",
		"app a\n\nmanifest {\n}\n\nclass X extends java/lang/Object {\n  method m(0) {\n    goto end\n  end:\n  }\n}\n"},
	{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    goto end\n  end:\n}\n",
		"dexasm: line 7: unterminated class X"},
	{"app a\n\n\nclass X extends java/lang/Object {\n  method m(2) {\n    r3 = r1\n\n    r9 = r2.X.m(r1,\tr3 , r0)\n    return r9\n  }\n}\n\n\n",
		"app a\n\nmanifest {\n}\n\nclass X extends java/lang/Object {\n  method m(2) {\n    r3 = r1\n    r9 = r2.X.m(r1, r3, r0)\n    return r9\n  }\n}\n"},
	{"\n\n  app a  \n  manifest {\n\tactivity  X   main\r\n }\n class  X  extends  android/app/Activity  implements  java/lang/Runnable  inner  Y {\n}\r\n",
		"app a\n\nmanifest {\n  activity X main\n}\n\nclass X extends android/app/Activity implements java/lang/Runnable inner Y {\n}\n"},
	{"", "dexasm: missing app declaration"},
	{"\r\n", "dexasm: missing app declaration"},
	{"app a\rclass X extends java/lang/Object {\r}\r",
		"app a\rclass X extends java/lang/Object {\r}\n\nmanifest {\n}\n"},
}

// LineRuleSeeds returns the line-rule inputs, for FuzzParse's corpus.
func LineRuleSeeds() []string {
	out := make([]string, len(lineRuleCases))
	for i, c := range lineRuleCases {
		out[i] = c.src
	}
	return out
}

func TestScannerKeepsLineRules(t *testing.T) {
	for _, c := range lineRuleCases {
		got := ""
		if pkg, err := Parse(c.src); err != nil {
			got = err.Error()
		} else {
			got = Format(pkg)
		}
		if got != c.want {
			t.Errorf("Parse(%q):\n got %q\nwant %q", c.src, got, c.want)
		}
	}
}

// splitLines is the reference line reader: the numbered non-blank lines
// of strings.Split(src, "\n"), each trimmed.
func splitLines(src string) []string {
	var out []string
	for i, raw := range strings.Split(src, "\n") {
		if line := strings.TrimSpace(raw); !isBlank(line) {
			out = append(out, fmt.Sprintf("%d:%s", i+1, line))
		}
	}
	return out
}

// TestScannerMatchesSplit checks that the parser's in-place reader
// yields the lines and line numbers strings.Split + TrimSpace did, on
// the line-rule inputs, every formatted corpus app and random text of
// newlines, carriage returns, spaces, comment markers and braces.
func TestScannerMatchesSplit(t *testing.T) {
	srcs := LineRuleSeeds()
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		srcs = append(srcs, Format(app.Build()))
	}
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"\n", "\r\n", "\r", " ", "\t", "#", "//", "}", "x:", "nop", "\u00a0", "\u2028"}
	for i := 0; i < 500; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		srcs = append(srcs, b.String())
	}
	for _, src := range srcs {
		p := &parser{src: src}
		var got []string
		for line, ok := p.next(); ok; line, ok = p.next() {
			got = append(got, fmt.Sprintf("%d:%s", p.pos, line))
		}
		want := splitLines(src)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("lines of %q:\n got %q\nwant %q", src, got, want)
		}
		if p.pos != strings.Count(src, "\n")+1 {
			t.Fatalf("%q: read %d lines, strings.Split lists %d", src, p.pos, strings.Count(src, "\n")+1)
		}
	}
}

// parseCost returns the bytes and allocations of one Parse of src,
// averaged over runs.
func parseCost(t *testing.T, src string) (bytes, allocs float64) {
	t.Helper()
	const runs = 20
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Parse(src)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestParseLinear bounds what Parse allocates as its input doubles: past
// the fixed cost of an empty app, N classes, one call line with N
// arguments and one class header with N interfaces must cost at most
// 2.1 times as many bytes and allocations at 2N as at N.
func TestParseLinear(t *testing.T) {
	const empty = "app a\n"
	classes := func(n int) string {
		var b strings.Builder
		b.WriteString(empty)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "class C%d extends java/lang/Object {\n  field f C%d\n  method m(1) {\n    r2 = r0.C%d.f\n    return r2\n  }\n}\n", i, i, i)
		}
		return b.String()
	}
	callArgs := func(n int) string {
		return empty + "class X extends java/lang/Object {\n  static method m(1) {\n    call X.m(" +
			strings.Repeat("r1, ", n-1) + "r1)\n    return\n  }\n}\n"
	}
	interfaces := func(n int) string {
		var b strings.Builder
		b.WriteString(empty + "class X extends java/lang/Object implements")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " I%d", i)
		}
		b.WriteString(" {\n}\n")
		return b.String()
	}
	baseBytes, baseAllocs := parseCost(t, empty)
	for _, c := range []struct {
		name string
		src  func(int) string
		n    int
	}{{"classes", classes, 500}, {"call arguments", callArgs, 5000}, {"interfaces", interfaces, 5000}} {
		b1, a1 := parseCost(t, c.src(c.n))
		b2, a2 := parseCost(t, c.src(2*c.n))
		b1, a1, b2, a2 = b1-baseBytes, a1-baseAllocs, b2-baseBytes, a2-baseAllocs
		t.Logf("%s: %d → %d: %.0f → %.0f bytes, %.0f → %.0f allocations", c.name, c.n, 2*c.n, b1, b2, a1, a2)
		if b2 > 2.1*b1 || a2 > 2.1*a1 {
			t.Errorf("%s: %d → %d costs %.0f → %.0f bytes and %.0f → %.0f allocations past an empty app, more than 2.1 times",
				c.name, c.n, 2*c.n, b1, b2, a1, a2)
		}
	}
}
