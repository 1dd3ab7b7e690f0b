package nadroid_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/explore"
)

// sparseRegisterApp renders an activity whose onCreate calls n methods
// that each name only register reg.
func sparseRegisterApp(n int, reg string) string {
	var b strings.Builder
	b.WriteString("app Sparse\n\nmanifest {\n  activity sp/A main\n}\n\nclass sp/A extends android/app/Activity {\n  method onCreate(1) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    call r0.sp/A.m%d()\n", i)
	}
	b.WriteString("    return\n  }\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  method m%d(0) {\n    %s = null\n    return\n  }\n", i, reg)
	}
	b.WriteString("}\n")
	return b.String()
}

// analyzeBytes returns one cold AnalyzeSource of src under opts and
// what it allocates.
func analyzeBytes(t *testing.T, src string, opts nadroid.Options) (*nadroid.Result, float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := nadroid.AnalyzeSource(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return res, float64(after.TotalAlloc - before.TotalAlloc)
}

// analyzeTime returns the fastest of runs cold AnalyzeSource calls of
// src.
func analyzeTime(t *testing.T, src string, runs int) time.Duration {
	t.Helper()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := nadroid.AnalyzeSource(context.Background(), src, nadroid.Options{}); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	return best
}

// A method that names one high register (r65535) costs the analysis one
// variable per context, not one per register number: the points-to
// solver once grew every per-variable table by 65,536 slots per such
// context, so a 3 KB file with 40 of them allocated 2.76 GB, and escape
// analysis once looked up every register number of every context, so
// that file took about 500 times as long as one whose methods name r1.
// One cold analysis of the file must stay under 1 MB, doubling the
// methods may at most double what it allocates, and at its best of 20
// runs it may take at most 10 times as long as the r1 file does.
func TestSparseRegistersBoundAnalysis(t *testing.T) {
	src20, src40 := sparseRegisterApp(20, "r65535"), sparseRegisterApp(40, "r65535")
	_, b20 := analyzeBytes(t, src20, nadroid.Options{})
	_, b40 := analyzeBytes(t, src40, nadroid.Options{})
	t.Logf("20 methods (%d bytes): %.0f bytes allocated; 40 methods (%d bytes): %.0f", len(src20), b20, len(src40), b40)
	if b40 >= 1<<20 {
		t.Errorf("40 methods naming r65535 allocate %.0f bytes in one analysis, want under 1 MiB", b40)
	}
	if b40 > 2.1*b20 {
		t.Errorf("20 → 40 methods naming r65535 allocate %.0f → %.0f bytes, more than 2.1 times", b20, b40)
	}
	const runs = 20
	low, high := analyzeTime(t, sparseRegisterApp(40, "r1"), runs), analyzeTime(t, src40, runs)
	t.Logf("40 methods, best of %d analyses: %v naming r1, %v naming r65535 (%.1fx)", runs, low, high, float64(high)/float64(low))
	if high > 10*low {
		t.Errorf("40 methods naming r65535 take %v at best, more than 10 times the %v of methods naming r1", high, low)
	}
}

// sparseUseApp renders ConnectBot with its value class's use method,
// which every validated schedule calls, naming register reg.
func sparseUseApp(t *testing.T, reg string) string {
	t.Helper()
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("ConnectBot missing from corpus")
	}
	const use = "class ConnectBot/V extends java/lang/Object {\n  method use(0) {\n"
	src := dexasm.Format(app.Build())
	if strings.Count(src, use) != 1 {
		t.Fatalf("ConnectBot's rendering has %d use methods of ConnectBot/V, want 1", strings.Count(src, use))
	}
	return strings.Replace(src, use, use+"    "+reg+" = null\n", 1)
}

// Validation runs each schedule's methods in the interpreter, which
// once gave every call a frame of one register per register number: a
// validated ConnectBot whose use method names only r65535 allocated
// 280 MB against 1.4 MB naming r1. A frame now holds the registers its
// method names, so naming r65535 may cost at most 1.5 times what naming
// r1 does, and both confirm the same 13 harmful warnings.
func TestSparseRegistersBoundValidation(t *testing.T) {
	opts := nadroid.Options{Validate: true, Workers: 1, Explore: explore.Options{MaxSchedules: 3000}}
	low, bLow := analyzeBytes(t, sparseUseApp(t, "r1"), opts)
	high, bHigh := analyzeBytes(t, sparseUseApp(t, "r65535"), opts)
	t.Logf("validated ConnectBot: %.0f bytes allocated naming r1, %.0f naming r65535 (%.2fx)", bLow, bHigh, bHigh/bLow)
	if bHigh > 1.5*bLow {
		t.Errorf("naming r65535 allocates %.0f bytes, more than 1.5 times the %.0f of naming r1", bHigh, bLow)
	}
	harmful := func(res *nadroid.Result) []string {
		var fields []string
		for _, v := range res.Harmful {
			fields = append(fields, v.Warning.Field.String()+" "+v.Warning.Use.String())
		}
		return fields
	}
	if got, want := harmful(high), harmful(low); len(want) != 13 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("harmful warnings naming r65535:\n%s\nnaming r1 (want 13):\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
