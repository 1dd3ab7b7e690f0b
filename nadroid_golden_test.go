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
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/explore"
	"nadroid/internal/fingerprint"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
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
	Fingerprint string `json:"fingerprint"`
	Harmful     bool   `json:"harmful"`
	Schedule    []int  `json:"schedule,omitempty"`
	Executions  int    `json:"executions,omitempty"`
	NPE         string `json:"npe,omitempty"`
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
		for _, v := range res.Harmful {
			harmful[v.Warning] = true
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

// goldenSolve is one app's record in testdata/golden/pointsto.json: the
// points-to solve's statistics, the sizes of the call and spawn graphs
// it discovered, and a digest of every points-to set (solveDigest).
type goldenSolve struct {
	App        string `json:"app"`
	Iterations int    `json:"iterations"`
	DeltaObjs  int    `json:"delta_objs"`
	VarFacts   int    `json:"var_facts"`
	Objects    int    `json:"objects"`
	MCtxs      int    `json:"mctxs"`
	CallEdges  int    `json:"call_edges"`
	SpawnEdges int    `json:"spawn_edges"`
	Sets       string `json:"sets"`
}

const goldenSolvePath = goldenDir + "/pointsto.json"

// solveDigest is the SHA-256 of everything a points-to solve concludes,
// read through the public accessors so that it does not depend on how
// the solver numbers variables, contexts or fields: the object table,
// each context's register sets (contexts in (method, receiver) order),
// every (object, field) set for the field names the program's
// instructions use, every static set, the sorted call edges and the
// sorted spawn edges. Empty sets are left out.
func solveDigest(m *threadify.Model) string {
	pts := m.PTS
	h := sha256.New()
	ids := func(set pointsto.Bitset) string { return fmt.Sprint(set.AppendIDs(nil)) }
	for id, o := range pts.Objects() {
		fmt.Fprintf(h, "obj %d %s %s\n", id, o, o.Class)
	}
	type mctx struct {
		method string
		recv   pointsto.ObjID
	}
	ctxs := make([]mctx, pts.NumContexts())
	for i := range ctxs {
		ctxs[i].method, ctxs[i].recv = pts.Context(int32(i))
	}
	slices.SortFunc(ctxs, func(a, b mctx) int {
		return cmp.Or(strings.Compare(a.method, b.method), cmp.Compare(a.recv, b.recv))
	})
	for _, c := range ctxs {
		fmt.Fprintf(h, "ctx %s %d\n", c.method, c.recv)
		mth, err := m.H.MethodByRef(c.method)
		if err != nil {
			continue
		}
		for reg := 0; reg < mth.NumRegs; reg++ {
			if set := pts.VarSet(c.method, c.recv, reg); set.Count() > 0 {
				fmt.Fprintf(h, "r%d %s\n", reg, ids(set))
			}
		}
	}
	var fields, statics []string
	for _, c := range m.H.Program().Classes() {
		for _, mth := range c.Methods {
			for _, in := range mth.Instrs {
				switch in.Op {
				case ir.OpGetField, ir.OpPutField:
					fields = append(fields, in.Field().Name)
				case ir.OpGetStatic, ir.OpPutStatic:
					statics = append(statics, m.H.CanonicalField(in.Field()).String())
				}
			}
		}
	}
	slices.Sort(fields)
	slices.Sort(statics)
	fields, statics = slices.Compact(fields), slices.Compact(statics)
	for o := range pts.Objects() {
		for _, f := range fields {
			if set := pts.FieldSet(pointsto.ObjID(o), f); set.Count() > 0 {
				fmt.Fprintf(h, "field %d %s %s\n", o, f, ids(set))
			}
		}
	}
	for _, f := range statics {
		if set := pts.StaticSet(f); set.Count() > 0 {
			fmt.Fprintf(h, "static %s %s\n", f, ids(set))
		}
	}
	for _, e := range pts.CallEdges() {
		fmt.Fprintf(h, "call %+v\n", e)
	}
	spawns := make([]string, 0, len(pts.SpawnEdges()))
	for _, e := range pts.SpawnEdges() {
		spawns = append(spawns, fmt.Sprintf("spawn %+v\n", e))
	}
	slices.Sort(spawns)
	for _, s := range spawns {
		io.WriteString(h, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runSolves threadifies every corpus app (Table 1 plus the async
// supplement) and each witnessSeeds random spec, and returns the
// statistics of each app's points-to solve.
func runSolves(t *testing.T) []goldenSolve {
	t.Helper()
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	for _, seed := range witnessSeeds {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	var out []goldenSolve
	for _, app := range apps {
		m, err := threadify.Build(app.Build(), threadify.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		st := m.PTS.Stats()
		out = append(out, goldenSolve{
			App:        app.Name(),
			Iterations: st.Iterations,
			DeltaObjs:  st.DeltaObjs,
			VarFacts:   st.VarFacts,
			Objects:    st.Objects,
			MCtxs:      st.MCtxs,
			CallEdges:  len(m.PTS.CallEdges()),
			SpawnEdges: len(m.PTS.SpawnEdges()),
			Sets:       solveDigest(m),
		})
	}
	return out
}

// TestPointsToGolden pins the points-to solve on the 30 corpus apps and
// on Random1…Random6: worklist iterations, difference-propagation
// volume, points-to facts, objects, method contexts, call and spawn
// edges, and the digest of every set. A solver change that reorders the
// worklist or moves a points-to set shows up here even when no warning
// moves.
func TestPointsToGolden(t *testing.T) {
	got := runSolves(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSolvePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: rewrote %s for %d apps", goldenSolvePath, len(got))
		return
	}
	data, err := os.ReadFile(goldenSolvePath)
	if err != nil {
		t.Fatalf("reading points-to golden (regenerate with -update-golden): %v", err)
	}
	var want []goldenSolve
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d apps, points-to golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: solve differs from golden:\n got %+v\nwant %+v", want[i].App, got[i], want[i])
		}
	}
}

// goldenEvidence is one app's record in testdata/golden/evidence.json:
// the number of evidence records a validated provenance run assembles
// and the SHA-256 of the evidence map's JSON (the full records would
// weigh about 1.9 MB for the whole set).
type goldenEvidence struct {
	App     string `json:"app"`
	Records int    `json:"records"`
	SHA256  string `json:"sha256"`
}

const goldenEvidencePath = goldenDir + "/evidence.json"

// runEvidence analyzes every corpus app (Table 1 plus the async
// supplement) and each witnessSeeds random spec with validation and
// provenance on, at the CLI's default budget, and digests each app's
// evidence map.
func runEvidence(t *testing.T) []goldenEvidence {
	t.Helper()
	var apps []corpus.App
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		apps = append(apps, app)
	}
	for _, seed := range witnessSeeds {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	var out []goldenEvidence
	for _, app := range apps {
		res, err := nadroid.Analyze(app.Build(), nadroid.Options{
			Validate:   true,
			Explore:    explore.Options{MaxSchedules: 3000},
			Provenance: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		data, err := json.Marshal(res.Evidence)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		out = append(out, goldenEvidence{
			App:     app.Name(),
			Records: len(res.Evidence),
			SHA256:  fmt.Sprintf("%x", sha256.Sum256(data)),
		})
	}
	return out
}

// TestEvidenceGolden pins every evidence record — derivation, aliasing
// chain, filter trail and witness — on the 30 corpus apps and on
// Random1…Random6, as a record count and a digest per app.
func TestEvidenceGolden(t *testing.T) {
	got := runEvidence(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEvidencePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: rewrote %s for %d apps", goldenEvidencePath, len(got))
		return
	}
	data, err := os.ReadFile(goldenEvidencePath)
	if err != nil {
		t.Fatalf("reading evidence golden (regenerate with -update-golden): %v", err)
	}
	var want []goldenEvidence
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d apps, evidence golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: evidence differs from golden (got %d records, sha256 %s; want %d, %s); "+
				"diff `nadroid -app %s -validate -provenance -json` against the parent commit",
				want[i].App, got[i].Records, got[i].SHA256, want[i].Records, want[i].SHA256, want[i].App)
		}
	}
}
