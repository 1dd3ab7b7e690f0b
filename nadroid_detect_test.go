// nadroid_detect_test.go is the acceptance gate for the pluggable
// detector subsystem: the async-error families must report exactly the
// corpus's seeded ground truth (and recognize the benign covered
// variants), detector selection must hide families end to end, and the
// shared analysis context must be computed exactly once per run.
package nadroid_test

import (
	"context"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/obs"
)

// familyCounts tallies generic detector warnings per family.
func familyCounts(res *nadroid.Result) map[string]int {
	counts := make(map[string]int)
	for _, w := range res.Detect.Warnings {
		counts[w.Detector]++
	}
	return counts
}

// TestAsyncDetectorGroundTruth checks every seeded async-error instance
// is reported and every benign (joined / cancelled) variant is
// recognized as covered, on each supplemental corpus app, each Table 1
// app (which seeds none) and RandomSpec seeds 1–6.
func TestAsyncDetectorGroundTruth(t *testing.T) {
	apps := corpus.AsyncApps()
	if len(apps) == 0 {
		t.Fatal("no async corpus apps")
	}
	apps = append(apps, corpus.Apps()...)
	for seed := uint64(1); seed <= 6; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	for _, app := range apps {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			res, err := nadroid.Analyze(app.Build(), nadroid.Options{})
			if err != nil {
				t.Fatal(err)
			}
			counts := familyCounts(res)
			if got, want := counts["leaked-thread"], app.Spec.LeakedThread; got != want {
				t.Errorf("leaked-thread warnings = %d, want %d (seeded; %d benign join variants must stay covered)",
					got, want, app.Spec.LeakedThreadJoin)
			}
			if got, want := counts["lost-result"], app.Spec.LostResult; got != want {
				t.Errorf("lost-result warnings = %d, want %d (seeded; %d benign cancel variants must stay covered)",
					got, want, app.Spec.LostResultCancel)
			}
			// The warnings surface in the report (Extras) and are
			// detector-qualified there.
			if got, want := len(res.Report.Extras), app.Spec.LeakedThread+app.Spec.LostResult; got != want {
				t.Errorf("report extras = %d, want %d", got, want)
			}
			for _, w := range res.Detect.Warnings {
				if w.Fingerprint == "" {
					t.Errorf("%s warning %q has no fingerprint", w.Detector, w.Subject)
				}
				if !strings.Contains(res.Report.String(), w.Detector+"/"+w.Tag) {
					t.Errorf("report text missing detector-qualified tag %s/%s", w.Detector, w.Tag)
				}
			}
		})
	}
}

// TestDetectorSelectionHidesFamilies disables each async family in turn
// and checks its warnings vanish while the other family's remain.
func TestDetectorSelectionHidesFamilies(t *testing.T) {
	app, ok := corpus.ByName("AsyncGrabBag")
	if !ok {
		t.Fatal("AsyncGrabBag missing from corpus")
	}
	cases := []struct {
		name      string
		detectors []string
		wantLeak  int
		wantLost  int
	}{
		{"default-all", nil, 1, 1},
		{"no-leaked-thread", []string{"uaf", "nosleep", "lost-result"}, 0, 1},
		{"no-lost-result", []string{"uaf", "nosleep", "leaked-thread"}, 1, 0},
		{"uaf-only", []string{"uaf"}, 0, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := nadroid.Analyze(app.Build(), nadroid.Options{Detectors: tc.detectors})
			if err != nil {
				t.Fatal(err)
			}
			counts := familyCounts(res)
			if counts["leaked-thread"] != tc.wantLeak {
				t.Errorf("leaked-thread = %d, want %d", counts["leaked-thread"], tc.wantLeak)
			}
			if counts["lost-result"] != tc.wantLost {
				t.Errorf("lost-result = %d, want %d", counts["lost-result"], tc.wantLost)
			}
			for _, d := range res.Detect.Enabled {
				if _, ok := res.Detect.Counts[d]; !ok {
					t.Errorf("enabled detector %s missing from Counts", d)
				}
			}
			if len(res.Detect.Counts) != len(res.Detect.Enabled) {
				t.Errorf("Counts has %d entries, Enabled has %d", len(res.Detect.Counts), len(res.Detect.Enabled))
			}
		})
	}
}

// TestDisablingUAFSkipsFilteringPipeline runs with the classic detector
// off: no potential pairs, an empty report, and the structured UAF
// result absent — while the async families still work.
func TestDisablingUAFSkipsFilteringPipeline(t *testing.T) {
	app, _ := corpus.ByName("AsyncGrabBag")
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{Detectors: []string{"leaked-thread", "lost-result"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection != nil {
		t.Error("Detection should be nil with the uaf detector disabled")
	}
	if res.Stats.Potential != 0 || len(res.Report.Entries) != 0 {
		t.Errorf("uaf-disabled run still has potential=%d entries=%d", res.Stats.Potential, len(res.Report.Entries))
	}
	if got := familyCounts(res)["leaked-thread"]; got != 1 {
		t.Errorf("leaked-thread = %d, want 1", got)
	}
}

// TestUnknownDetectorRejected checks selection errors surface before
// analysis runs.
func TestUnknownDetectorRejected(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	_, err := nadroid.Analyze(app.Build(), nadroid.Options{Detectors: []string{"use-after-free"}})
	if err == nil {
		t.Fatal("unknown detector name accepted")
	}
	if !strings.Contains(err.Error(), "use-after-free") || !strings.Contains(err.Error(), "uaf") {
		t.Errorf("error %q should name the offender and the valid set", err)
	}
}

// TestSharedContextComputedOnce: all four detectors ride one shared
// analysis context — accesses, escape, MHB, and the Datalog engine are
// built exactly once per analysis.
func TestSharedContextComputedOnce(t *testing.T) {
	app, _ := corpus.ByName("AsyncGrabBag")
	metrics := obs.NewMetrics()
	ctx := obs.WithMetrics(context.Background(), metrics)
	if _, err := nadroid.AnalyzeContext(ctx, app.Build(), nadroid.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Get("detect_context_builds"); got != 1 {
		t.Fatalf("detect_context_builds = %d, want exactly 1", got)
	}
	// The per-app fact base is populated once, not once per detector.
	if got := metrics.Get("race_accesses"); got <= 0 {
		t.Fatalf("race_accesses = %d, want > 0", got)
	}
}
