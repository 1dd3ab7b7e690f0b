package nadroid_test

import (
	"context"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/explore"
)

func TestAnalyzeFullPipeline(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing corpus app")
	}
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AfterUnsound != 13 {
		t.Errorf("surviving = %d, want 13", res.Stats.AfterUnsound)
	}
	if res.Report == nil || len(res.Report.Entries) != 13 {
		t.Error("report must list the survivors")
	}
	if res.Timing.Detection <= 0 {
		t.Error("timing must be recorded")
	}
	if res.Harmful != nil {
		t.Error("Harmful must be nil without Validate")
	}
}

func TestAnalyzeSoundOnly(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	soundOnly, err := nadroid.Analyze(app.Build(), nadroid.Options{SkipUnsoundFilters: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := nadroid.Analyze(app.Build(), nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if soundOnly.Stats.AfterUnsound < full.Stats.AfterUnsound {
		t.Errorf("sound-only must keep at least as many warnings: %d vs %d",
			soundOnly.Stats.AfterUnsound, full.Stats.AfterUnsound)
	}
	if soundOnly.Stats.AfterSound != full.Stats.AfterSound {
		t.Errorf("sound stage must agree: %d vs %d", soundOnly.Stats.AfterSound, full.Stats.AfterSound)
	}
}

func TestAnalyzeNoFiltersKeepsPotential(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{
		SkipSoundFilters:   true,
		SkipUnsoundFilters: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AfterUnsound != res.Stats.Potential {
		t.Errorf("no filters: %d != potential %d", res.Stats.AfterUnsound, res.Stats.Potential)
	}
}

func TestAnalyzeK1IsLessPrecise(t *testing.T) {
	app, _ := corpus.ByName("FireFox")
	k1, err := nadroid.Analyze(app.Build(), nadroid.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := nadroid.Analyze(app.Build(), nadroid.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k1.Stats.Potential < k2.Stats.Potential {
		t.Errorf("k=1 must not report fewer potential warnings: %d vs %d",
			k1.Stats.Potential, k2.Stats.Potential)
	}
}

func TestAnalyzeWithValidation(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Harmful) != 13 {
		t.Errorf("validated = %d, want 13", len(res.Harmful))
	}
	for _, w := range res.Harmful {
		if !strings.HasPrefix(w.Field.Class, "ConnectBot/") {
			t.Errorf("unexpected field %v", w.Field)
		}
	}
}

// TestAnalyzeSourceRejectsNegativeArity checks that a method declared
// with a negative arg count is a parse error: its register file would
// be smaller than the receiver the points-to solver indexes.
func TestAnalyzeSourceRejectsNegativeArity(t *testing.T) {
	const src = "app a\nmanifest {\n  activity X main\n}\nclass X extends android/app/Activity {\n  method onCreate(-3) {\n    return\n  }\n}\n"
	_, err := nadroid.AnalyzeSource(context.Background(), src, nadroid.Options{})
	if err == nil || !strings.Contains(err.Error(), "dexasm: line 6: arg count -3") {
		t.Fatalf("AnalyzeSource = %v, want the dexasm arg-count error", err)
	}
}
