// nadroid_parallel_test.go is the acceptance test for the pipeline's
// worker knob (Options.Workers, which bounds the validation sweep): a
// full pipeline run must produce byte-identical output — warning sets,
// filter attribution, report text, harmful set — for any worker count.
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

// runWorkers runs the full pipeline (with validation) on one corpus app
// at a given worker count.
func runWorkers(t *testing.T, app string, workers int) *nadroid.Result {
	t.Helper()
	a, ok := corpus.ByName(app)
	if !ok {
		t.Fatalf("%s missing from corpus", app)
	}
	res, err := nadroid.AnalyzeContext(context.Background(), a.Build(), nadroid.Options{
		Workers:  workers,
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineParallelMatchesSequential(t *testing.T) {
	apps := []string{"ConnectBot", "Mms", "K9Mail"}
	if testing.Short() {
		apps = apps[:1] // ConnectBot alone exercises every parallel path
	}
	for _, app := range apps {
		seq := runWorkers(t, app, 1)
		for _, workers := range []int{2, 8} {
			par := runWorkers(t, app, workers)

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
			for _, w := range par.Harmful {
				gotHarmful = append(gotHarmful, w.Key())
			}
			wantHarmful := make([]string, 0, len(seq.Harmful))
			for _, w := range seq.Harmful {
				wantHarmful = append(wantHarmful, w.Key())
			}
			if !reflect.DeepEqual(gotHarmful, wantHarmful) {
				t.Errorf("%s workers=%d: harmful set differs:\n got %v\nwant %v", app, workers, gotHarmful, wantHarmful)
			}
		}
	}
}
