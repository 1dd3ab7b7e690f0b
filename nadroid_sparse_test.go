package nadroid_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"nadroid"
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

// analyzeBytes returns what one cold AnalyzeSource of src allocates.
func analyzeBytes(t *testing.T, src string) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := nadroid.AnalyzeSource(context.Background(), src, nadroid.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// A method that names one high register (r65535) costs the solve one
// variable per context, not one per register number: the points-to
// solver once grew every per-variable table by 65,536 slots per such
// context, so a 3 KB file with 40 of them allocated 2.76 GB. One cold
// analysis of that file must stay under 1 MB, and doubling the methods
// may at most double what it allocates.
func TestSparseRegistersBoundAnalysis(t *testing.T) {
	src20, src40 := sparseRegisterApp(20, "r65535"), sparseRegisterApp(40, "r65535")
	b20, b40 := analyzeBytes(t, src20), analyzeBytes(t, src40)
	t.Logf("20 methods (%d bytes): %.0f bytes allocated; 40 methods (%d bytes): %.0f", len(src20), b20, len(src40), b40)
	if b40 >= 1<<20 {
		t.Errorf("40 methods naming r65535 allocate %.0f bytes in one analysis, want under 1 MiB", b40)
	}
	if b40 > 2.1*b20 {
		t.Errorf("20 → 40 methods naming r65535 allocate %.0f → %.0f bytes, more than 2.1 times", b20, b40)
	}
}
