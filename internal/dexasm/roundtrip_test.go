package dexasm_test

import (
	"slices"
	"testing"

	"nadroid"
	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/fingerprint"
)

// TestCorpusRoundTrip proves the dexasm text format is a faithful wire
// format for every corpus app: Format is parseable, and re-formatting
// the parse reproduces the text byte for byte. nadroid-serve accepts
// dexasm as its wire input and content-addresses results by the
// canonical re-format, so a lossy round trip would corrupt both the
// analyses and the cache keys.
func TestCorpusRoundTrip(t *testing.T) {
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			pkg := app.Build()
			text := dexasm.Format(pkg)
			reparsed, err := dexasm.Parse(text)
			if err != nil {
				t.Fatalf("parse of formatted app: %v", err)
			}
			if reparsed.Name != pkg.Name {
				t.Errorf("name %q -> %q", pkg.Name, reparsed.Name)
			}
			text2 := dexasm.Format(reparsed)
			if text2 != text {
				t.Errorf("re-format differs from original format (lossy round trip)\nfirst diff near:\n%s",
					firstDiff(text, text2))
			}
		})
	}
}

// TestCorpusRoundTripPreservesAnalysis checks that the text format
// keeps everything the analysis reads: for every corpus app (Table 1
// and the async supplement) and random specs 1–6, the program that
// Parse(Format(pkg)) yields gets the same warning fingerprints and the
// same report text as pkg itself.
func TestCorpusRoundTripPreservesAnalysis(t *testing.T) {
	var specs []corpus.Spec
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		specs = append(specs, app.Spec)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		specs = append(specs, corpus.RandomSpec(seed))
	}
	for _, spec := range specs {
		pkg := spec.Build()
		reparsed, err := dexasm.Parse(dexasm.Format(pkg))
		if err != nil {
			t.Fatalf("%s: parse of formatted app: %v", spec.Name, err)
		}
		fps, report := analyzeForRoundTrip(t, pkg)
		fps2, report2 := analyzeForRoundTrip(t, reparsed)
		if !slices.Equal(fps, fps2) {
			t.Errorf("%s: fingerprints differ after round trip:\n got %v\nwant %v", spec.Name, fps2, fps)
		}
		if report2 != report {
			t.Errorf("%s: report differs after round trip:\n%s", spec.Name, firstDiff(report, report2))
		}
	}
}

// analyzeForRoundTrip runs the pipeline on pkg and returns the sorted
// fingerprints of every warning it produced (UAF warnings the filters
// removed included) and the report text.
func analyzeForRoundTrip(t *testing.T, pkg *apk.Package) ([]string, string) {
	t.Helper()
	res, err := nadroid.Analyze(pkg, nadroid.Options{})
	if err != nil {
		t.Fatalf("%s: %v", pkg.Name, err)
	}
	var fps []string
	for _, w := range res.Detection.Warnings {
		fps = append(fps, string(fingerprint.Warning(res.Model, w)))
	}
	for _, w := range res.Detect.Warnings {
		fps = append(fps, string(w.Fingerprint))
	}
	slices.Sort(fps)
	return fps, res.Report.String()
}

// firstDiff returns a short window around the first differing byte.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	win := func(s string) string {
		hi := i + 80
		if hi > len(s) {
			hi = len(s)
		}
		if lo > len(s) {
			return ""
		}
		return s[lo:hi]
	}
	return "want: …" + win(a) + "…\ngot:  …" + win(b) + "…"
}
