// nadroid_parallel_test.go is the acceptance test for the pipeline's
// worker knob (Options.Workers, which bounds the validation sweep): a
// full pipeline run must produce byte-identical output — warning sets,
// filter attribution, report text, harmful set, witnesses — for any
// worker count.
package nadroid_test

import (
	"context"
	"reflect"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/explore"
	"nadroid/internal/fingerprint"
)

// runWorkers runs the full pipeline (with validation) on one app at a
// given worker count. Provenance is on so each harmful warning's
// witness is in Result.Evidence.
func runWorkers(t *testing.T, app corpus.App, workers int) *nadroid.Result {
	t.Helper()
	res, err := nadroid.AnalyzeContext(context.Background(), app.Build(), nadroid.Options{
		Workers:    workers,
		Validate:   true,
		Explore:    explore.Options{MaxSchedules: 200},
		Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPipelineParallelMatchesSequential covers three Table 1 apps and
// corpus.RandomSpec seeds 1–6; -short keeps ConnectBot, which alone
// exercises every parallel path, and seed 1.
func TestPipelineParallelMatchesSequential(t *testing.T) {
	names := []string{"ConnectBot", "Mms", "K9Mail"}
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		names, seeds = names[:1], seeds[:1]
	}
	var apps []corpus.App
	for _, name := range names {
		a, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("%s missing from corpus", name)
		}
		apps = append(apps, a)
	}
	for _, seed := range seeds {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	for _, a := range apps {
		app := a.Name()
		seq := runWorkers(t, a, 1)
		for _, workers := range []int{2, 8} {
			par := runWorkers(t, a, workers)

			if !reflect.DeepEqual(par.Stats, seq.Stats) {
				t.Errorf("%s workers=%d: filter stats differ:\n got %+v\nwant %+v", app, workers, par.Stats, seq.Stats)
			}
			if got, want := par.Report.CSV(), seq.Report.CSV(); got != want {
				t.Errorf("%s workers=%d: report CSV differs:\n got %s\nwant %s", app, workers, got, want)
			}
			if got, want := par.Report.String(), seq.Report.String(); got != want {
				t.Errorf("%s workers=%d: report text differs", app, workers)
			}
			if len(par.Detection.Warnings) != len(seq.Detection.Warnings) {
				t.Fatalf("%s workers=%d: warning count %d != %d", app, workers,
					len(par.Detection.Warnings), len(seq.Detection.Warnings))
			}
			// fingerprint.Snap captures everything filters may touch on a
			// warning: the stable identity, surviving pairs, and per-pair
			// filter attribution.
			for i := range seq.Detection.Warnings {
				got := fingerprint.Snap(par.Detection.Model, par.Detection.Warnings[i])
				want := fingerprint.Snap(seq.Detection.Model, seq.Detection.Warnings[i])
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d: warning %d differs:\n got %+v\nwant %+v", app, workers, i, got, want)
				}
			}
			gotHarmful := make([]string, 0, len(par.Harmful))
			for _, v := range par.Harmful {
				gotHarmful = append(gotHarmful, v.Warning.Key())
			}
			wantHarmful := make([]string, 0, len(seq.Harmful))
			for _, v := range seq.Harmful {
				wantHarmful = append(wantHarmful, v.Warning.Key())
			}
			if !reflect.DeepEqual(gotHarmful, wantHarmful) {
				t.Errorf("%s workers=%d: harmful set differs:\n got %v\nwant %v", app, workers, gotHarmful, wantHarmful)
			}
			// Every worker reads the sweep's one class hierarchy; each
			// witness must still be the sequential sweep's schedule,
			// found after the same number of executions.
			for _, v := range seq.Harmful {
				w := v.Warning
				fp := string(fingerprint.Warning(seq.Model, w))
				want := seq.Evidence[fp]
				if want == nil || want.Witness == nil {
					t.Fatalf("%s: harmful warning %s has no witness in the sequential evidence", app, w.Key())
				}
				got := par.Evidence[fp]
				if got == nil {
					t.Errorf("%s workers=%d: no evidence for harmful warning %s", app, workers, w.Key())
					continue
				}
				if !reflect.DeepEqual(got.Witness, want.Witness) {
					t.Errorf("%s workers=%d: witness of %s differs:\n got %+v\nwant %+v", app, workers, w.Key(), got.Witness, want.Witness)
				}
			}
		}
	}
}
