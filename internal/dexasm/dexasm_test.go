package dexasm

import (
	"context"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/filters"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

const sample = `
app demo

manifest {
  activity demo/Main main
  activity demo/Hidden unreachable
  service demo/Svc
}

class demo/V extends java/lang/Object {
  method use(0) {
    return
  }
}

class demo/Main extends android/app/Activity {
  field f demo/V
  static-field shared demo/V
  method onCreate(1) {
    r2 = new demo/V
    r0.demo/Main.f = r2
    static demo/Main.shared = r2
    r3 = r0.demo/Main.f
    call r3.demo/V.use()
    return
  }
  method onPause(0) {
    r1 = null
    r0.demo/Main.f = r1
    return
  }
  synchronized method guarded(0) {
    r1 = r0.demo/Main.f
    if r1 == null goto skip
    r2 = r0.demo/Main.f
    call r2.demo/V.use()
  skip:
    return
  }
}

class demo/Hidden extends android/app/Activity {
}

class demo/Svc extends android/app/Service {
  method onDestroy(0) {
    return
  }
}

class demo/Helper extends java/lang/Object inner demo/Main {
  method help(1) {
    r2 = r1
    r3 = 42
    r4 = "hello"
    return r2
  }
}
`

func TestParseSample(t *testing.T) {
	pkg, err := Parse(sample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if pkg.Name != "demo" {
		t.Errorf("name = %q", pkg.Name)
	}
	if got := len(pkg.Manifest.Components()); got != 3 {
		t.Errorf("components = %d, want 3", got)
	}
	hidden := pkg.Manifest.Component("demo/Hidden")
	if hidden == nil || hidden.Reachable {
		t.Error("demo/Hidden must be declared unreachable")
	}
	main := pkg.Program.Class("demo/Main")
	if main == nil {
		t.Fatal("missing demo/Main")
	}
	if main.Field("f") == nil || main.Field("shared") == nil || !main.Field("shared").Static {
		t.Error("field declarations wrong")
	}
	g := main.Method("guarded")
	if g == nil || !g.Synch {
		t.Fatal("guarded must be synchronized")
	}
	if _, ok := g.Labels["skip"]; !ok {
		t.Error("missing label skip")
	}
	helper := pkg.Program.Class("demo/Helper")
	if helper == nil || helper.Outer != "demo/Main" {
		t.Error("inner-class attribution lost")
	}
}

func TestRoundTripStable(t *testing.T) {
	pkg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text1 := Format(pkg)
	pkg2, err := Parse(text1)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text1)
	}
	text2 := Format(pkg2)
	if text1 != text2 {
		t.Errorf("format/parse round trip unstable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

// cyclicHierarchy parses line by line, but no class hierarchy can be
// built over it.
const cyclicHierarchy = "app cyc\nclass cyc/B extends cyc/C {\n}\nclass cyc/C extends cyc/B {\n}\n"

// negativeArity declares a method whose register file would be smaller
// than its receiver, which the points-to solver indexes.
const negativeArity = "app a\nmanifest {\n  activity X main\n}\nclass X extends android/app/Activity {\n  method onCreate(-3) {\n    return\n  }\n}\n"

// duplicateLabel defines L twice in one method.
const duplicateLabel = "app a\nclass X extends java/lang/Object {\n  method m(0) {\n  L:\n    nop\n  L:\n    goto L\n  }\n}\n"

// plusRegister and minusRegister spell registers with a sign.
const (
	plusRegister  = "app a\nclass X extends java/lang/Object {\n  method m(0) {\n    r1 = r+2\n    return\n  }\n}\n"
	minusRegister = "app a\nclass X extends java/lang/Object {\n  method m(0) {\n    return r-1\n  }\n}\n"
)

func TestParseErrors(t *testing.T) {
	bad := []struct {
		src string
		// want is a substring of the error ("" accepts any error).
		want string
	}{
		{"class X extends Y {", ""},              // no app
		{"app a\nmanifest {\n  widget X\n}", ""}, // unknown component kind
		{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    r1 = frobnicate\n  }\n}", ""},
		{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    goto nowhere\n  }\n}", ""}, // unresolved label caught by validation
		// Duplicate declarations are errors, not IR panics.
		{"class 0 extends 0\nfield 0 0\nfield 0 0", "dexasm: line 3: duplicate field 0.0"},
		{"app a\nclass X extends java/lang/Object {\n  field f X\n  static-field f X\n}", "dexasm: line 4: duplicate field X.f"},
		{"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    return\n  }\n  method m(1) {\n    return\n  }\n}", "dexasm: line 6: duplicate method X.m"},
		{"app a\nclass X extends java/lang/Object {\n}\nclass X extends java/lang/Object {\n}", "dexasm: line 4: duplicate class X"},
		{"app a\nclass android/app/Activity extends java/lang/Object {\n}", "dexasm: line 2: duplicate class android/app/Activity"},
		{"app a\nmanifest {\n  activity X\n  service X\n}", "dexasm: line 4: duplicate component X"},
		// A cyclic hierarchy is an error, not a panic in cha.New.
		{cyclicHierarchy, "dexasm: line 2: cyclic class hierarchy at cyc/B"},
		{"app a\nclass X extends X {\n}", "dexasm: line 2: cyclic class hierarchy at X"},
		{"app a\nclass I extends java/lang/Object implements J {\n}\nclass J extends java/lang/Object implements I {\n}", "dexasm: line 2: cyclic class hierarchy at I"},
		// Arities and registers beyond the JVM and Dalvik limits are
		// errors, not panics or gigabyte frames in the analysis.
		{negativeArity, "dexasm: line 6: arg count -3 of X.onCreate outside [0, 255]"},
		{"app a\nclass X extends java/lang/Object {\n  method onCreate(50000000) {\n    return\n  }\n}", "dexasm: line 3: arg count 50000000 of X.onCreate outside [0, 255]"},
		{"app a\nclass X extends java/lang/Object {\n  method onCreate(0) {\n    r20000000 = null\n    return\n  }\n}", "dexasm: line 4: register r20000000 above r65535 in X.onCreate"},
		// A label defined twice is an error: the later definition used to
		// win, retargeting every goto and dropping the first from Format.
		{duplicateLabel, "dexasm: line 6: duplicate label L in X.m"},
		// A register is "r" and decimal digits: a sign used to be read
		// as part of the number, so r+2 was r2 and r-1 was ir.NoReg.
		{plusRegister, "dexasm: line 4: cannot parse instruction \"r1 = r+2\""},
		{minusRegister, "dexasm: line 4: cannot parse instruction \"return r-1\""},
	}
	for _, c := range bad {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %q, want an error containing %q", c.src, err, c.want)
		}
	}
}

func TestFormatSkipsFrameworkClasses(t *testing.T) {
	pkg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(pkg)
	if strings.Contains(text, "class android/app/Activity") {
		t.Error("framework skeletons must not be serialized")
	}
	if !strings.Contains(text, "class demo/Main") {
		t.Error("app classes must be serialized")
	}
}

// The checked-in golden file (generated by `nadroid -dump ConnectBot`)
// must keep parsing and yield the same analysis results as the in-memory
// corpus build — a guard against format drift.
func TestGoldenFileMatchesCorpus(t *testing.T) {
	data, err := os.ReadFile("testdata/connectbot.dexasm")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Parse(string(data))
	if err != nil {
		t.Fatalf("golden parse: %v", err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := detectUAF(t, m)
	st := filters.Run(d)
	if st.AfterUnsound != 13 {
		t.Errorf("golden ConnectBot survivors = %d, want 13", st.AfterUnsound)
	}
}

// detectUAF runs the pipeline's uaf detector over the shared detector
// context and returns its unfiltered warnings.
func detectUAF(t testing.TB, m *threadify.Model) *uaf.Detection {
	t.Helper()
	ctx := context.Background()
	det, _ := detect.ByName("uaf")
	res, err := detect.Run(ctx, detect.BuildContext(ctx, "", m, detect.Options{}), []detect.Detector{det})
	if err != nil {
		t.Fatal(err)
	}
	return res.UAF
}

// Property: random small corpus specs round-trip byte-identically and
// preserve program size.
func TestRandomSpecRoundTrip(t *testing.T) {
	f := func(nTrue, nIG, nMHB, nUR, nFP uint8) bool {
		spec := corpus.Spec{
			Name:         "rnd",
			TrueService:  int(nTrue % 3),
			IGLooper:     int(nIG % 4),
			MHBService:   int(nMHB % 3),
			URReturn:     int(nUR % 3),
			FPPathInsens: int(nFP % 2),
		}
		pkg := spec.Build()
		text := Format(pkg)
		pkg2, err := Parse(text)
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		return Format(pkg2) == text && pkg2.Size() == pkg.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
