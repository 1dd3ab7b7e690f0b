// nadroid_golden_test.go is the full-corpus differential gate for the
// points-to core: every app's warning counts, report text, and CSV must
// stay byte-for-byte identical to the goldens captured from the seed
// solver (the map-based solver this repo grew up with), at worker
// counts 1 and 8. Any solver rewrite that shifts a points-to set, a
// spawn-edge discovery, or a thread numbering shows up here as a diff
// against testdata/golden/.
//
// Regenerate (only when an intentional semantic change is reviewed):
//
//	go test -run TestCorpusGolden -update-golden
package nadroid_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/explore"
	"nadroid/internal/fingerprint"
	"nadroid/internal/obs"
	"nadroid/internal/uaf"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current solver")

// goldenCounts is the per-app record in testdata/golden/corpus.json.
type goldenCounts struct {
	App          string `json:"app"`
	Potential    int    `json:"potential"`
	AfterSound   int    `json:"after_sound"`
	AfterUnsound int    `json:"after_unsound"`
}

const goldenDir = "testdata/golden"

func goldenReportPath(app string) string { return filepath.Join(goldenDir, app+".report.txt") }
func goldenCSVPath(app string) string    { return filepath.Join(goldenDir, app+".csv") }

// runCorpus analyzes the full corpus at one worker count — both the
// corpus-level fan-out (nadroid.AnalyzeCorpus) and each app's phase
// pools use it — and returns per-app counts plus rendered report/CSV
// text.
func runCorpus(t *testing.T, workers int) ([]goldenCounts, map[string]string, map[string]string) {
	t.Helper()
	var work []nadroid.CorpusApp
	for _, app := range corpus.Apps() {
		work = append(work, nadroid.CorpusApp{Name: app.Name(), Build: app.Build})
	}
	results := nadroid.AnalyzeCorpus(work, nadroid.CorpusOptions{
		Workers:  workers,
		Analysis: nadroid.Options{Workers: workers},
	})
	var counts []goldenCounts
	reports := make(map[string]string)
	csvs := make(map[string]string)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.App, r.Err)
		}
		counts = append(counts, goldenCounts{
			App:          r.App,
			Potential:    r.Result.Stats.Potential,
			AfterSound:   r.Result.Stats.AfterSound,
			AfterUnsound: r.Result.Stats.AfterUnsound,
		})
		reports[r.App] = r.Result.Report.String()
		csvs[r.App] = r.Result.Report.CSV()
	}
	return counts, reports, csvs
}

func TestCorpusGolden(t *testing.T) {
	if *updateGolden {
		counts, reports, csvs := runCorpus(t, 1)
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "corpus.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		for app, text := range reports {
			if err := os.WriteFile(goldenReportPath(app), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for app, text := range csvs {
			if err := os.WriteFile(goldenCSVPath(app), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("golden: rewrote %s for %d apps", goldenDir, len(counts))
		return
	}

	data, err := os.ReadFile(filepath.Join(goldenDir, "corpus.json"))
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	var want []goldenCounts
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByApp := make(map[string]goldenCounts, len(want))
	for _, w := range want {
		wantByApp[w.App] = w
	}

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			counts, reports, csvs := runCorpus(t, workers)
			if len(counts) != len(want) {
				t.Fatalf("corpus has %d apps, goldens have %d", len(counts), len(want))
			}
			for _, got := range counts {
				w, ok := wantByApp[got.App]
				if !ok {
					t.Errorf("%s: no golden entry", got.App)
					continue
				}
				if got != w {
					t.Errorf("%s: counts differ: got %+v want %+v", got.App, got, w)
				}
				wantReport, err := os.ReadFile(goldenReportPath(got.App))
				if err != nil {
					t.Fatalf("%s: %v", got.App, err)
				}
				if reports[got.App] != string(wantReport) {
					t.Errorf("%s: report text differs from golden:\n got:\n%s\nwant:\n%s",
						got.App, reports[got.App], wantReport)
				}
				wantCSV, err := os.ReadFile(goldenCSVPath(got.App))
				if err != nil {
					t.Fatalf("%s: %v", got.App, err)
				}
				if csvs[got.App] != string(wantCSV) {
					t.Errorf("%s: report CSV differs from golden", got.App)
				}
			}
		})
	}
}

// goldenWitness is one surviving warning's validation outcome in
// testdata/golden/witnesses.json. Harmless warnings carry only their
// fingerprint: the schedules they exhaust are pinned by the per-app
// counters instead.
type goldenWitness struct {
	Fingerprint    string `json:"fingerprint"`
	Harmful        bool   `json:"harmful"`
	Schedule       []int  `json:"schedule,omitempty"`
	Executions     int    `json:"executions,omitempty"`
	OpaqueBranches bool   `json:"opaque_branches,omitempty"`
	NPE            string `json:"npe,omitempty"`
}

// goldenValidation is one app's record in testdata/golden/witnesses.json.
type goldenValidation struct {
	App               string          `json:"app"`
	SchedulesExecuted int64           `json:"validation_schedules_executed"`
	SchedulesPruned   int64           `json:"validation_schedules_pruned"`
	Warnings          []goldenWitness `json:"warnings"`
}

const goldenWitnessPath = goldenDir + "/witnesses.json"

// witnessSeeds are the corpus.RandomSpec seeds the witness golden pins
// next to the 27 Table 1 apps (the seeds explore's resume test checks).
var witnessSeeds = []uint64{1, 2, 3, 4, 5, 6}

// runWitnesses validates the surviving warnings of every corpus app and
// of each witnessSeeds random spec at the CLI's default budget, and
// returns each warning's witness plus the app's schedule counters.
func runWitnesses(t *testing.T) []goldenValidation {
	t.Helper()
	apps := corpus.Apps()
	for _, seed := range witnessSeeds {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	var out []goldenValidation
	for _, app := range apps {
		m := obs.NewMetrics()
		ctx := obs.WithMetrics(context.Background(), m)
		res, err := nadroid.AnalyzeContext(ctx, app.Build(), nadroid.Options{
			Validate:   true,
			Explore:    explore.Options{MaxSchedules: 3000},
			Provenance: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		harmful := make(map[*uaf.Warning]bool)
		for _, w := range res.Harmful {
			harmful[w] = true
		}
		gv := goldenValidation{
			App:               app.Name(),
			SchedulesExecuted: m.Get("validation_schedules_executed"),
			SchedulesPruned:   m.Get("validation_schedules_pruned"),
			Warnings:          []goldenWitness{},
		}
		seen := make(map[string]bool)
		for _, w := range res.Detection.Alive() {
			fp := string(fingerprint.Warning(res.Model, w))
			if seen[fp] {
				t.Fatalf("%s: two surviving warnings share fingerprint %s", app.Name(), fp)
			}
			seen[fp] = true
			gw := goldenWitness{Fingerprint: fp, Harmful: harmful[w]}
			if ev := res.Evidence[fp]; ev != nil && ev.Witness != nil {
				gw.Schedule = ev.Witness.Schedule
				gw.Executions = ev.Witness.Executions
				gw.OpaqueBranches = ev.Witness.OpaqueBranchesTaken
				gw.NPE = ev.Witness.NPE
			}
			gv.Warnings = append(gv.Warnings, gw)
		}
		out = append(out, gv)
	}
	return out
}

// TestWitnessGolden pins the explorer's output on every corpus app and
// on the random specs Random1…Random6: each surviving warning's witness
// (schedule, executions, branch policy, NPE) and each app's executed
// and pruned schedule counts. An explorer or interpreter change that
// shifts the search order, the option keys or the pruning shows up
// here, including on the false positives that exhaust their budget
// without a witness.
func TestWitnessGolden(t *testing.T) {
	got := runWitnesses(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWitnessPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: rewrote %s for %d apps", goldenWitnessPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenWitnessPath)
	if err != nil {
		t.Fatalf("reading witness golden (regenerate with -update-golden): %v", err)
	}
	var want []goldenValidation
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d apps, witness golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: validation differs from golden:\n got %+v\nwant %+v", want[i].App, got[i], want[i])
		}
	}
}
