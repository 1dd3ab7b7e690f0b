package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nadroid/internal/filters"
	"nadroid/internal/ir"
	"nadroid/internal/uaf"
)

// TestTable1ValidatedMatchesPaper is the headline reproduction: running
// the full pipeline with dynamic validation over all 27 apps must
// confirm exactly the paper's 88 true harmful UAFs, and never validate a
// seeded false positive.
func TestTable1ValidatedMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full validated corpus run (30s+); skipped with -short")
	}
	rows, err := Table1(Table1Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.TrueHarmful
		if r.TrueHarmful != r.SeededTrue {
			t.Errorf("%s: validated %d, seeded %d — %s",
				r.App, r.TrueHarmful, r.SeededTrue,
				map[bool]string{true: "missed true bugs", false: "validated a false positive"}[r.TrueHarmful < r.SeededTrue])
		}
		if r.AfterUnsound != r.SeededTrue+r.SeededFP {
			t.Errorf("%s: surviving %d != seeded true %d + fp %d", r.App, r.AfterUnsound, r.SeededTrue, r.SeededFP)
		}
	}
	if total != 88 {
		t.Errorf("total true harmful = %d, want the paper's 88", total)
	}
	// §8.8 shape: detection dominates the static phases.
	tm := Timing(rows)
	if tm.DetectionPct < 80 {
		t.Errorf("detection = %.1f%% of static time, want the dominant share (paper: 95.7%%)", tm.DetectionPct)
	}
	if tm.ModelingPct > 10 || tm.FilteringPct > 10 {
		t.Errorf("modeling/filtering = %.1f%%/%.1f%%, want small shares (paper: 1.2%%/3.1%%)",
			tm.ModelingPct, tm.FilteringPct)
	}
	out := RenderTable1(rows, true)
	if !strings.Contains(out, "ConnectBot") || !strings.Contains(out, "EC-PC:12") {
		t.Errorf("render missing expected content:\n%s", out)
	}
}

// TestFigure5Shape asserts the filter-effectiveness ordering and rough
// magnitudes of Figure 5.
func TestFigure5Shape(t *testing.T) {
	f, err := Figure5Data()
	if err != nil {
		t.Fatal(err)
	}
	pct := func(n, of int) float64 { return 100 * float64(n) / float64(of) }
	ig := pct(f.SoundRemoved[filters.NameIG], f.Potential)
	mhb := pct(f.SoundRemoved[filters.NameMHB], f.Potential)
	ia := pct(f.SoundRemoved[filters.NameIA], f.Potential)
	if !(ig > mhb && mhb > ia) {
		t.Errorf("Figure 5(a) ordering IG > MHB > IA violated: %.0f/%.0f/%.0f", ig, mhb, ia)
	}
	if ig < 40 {
		t.Errorf("IG alone = %.0f%%, want the dominant filter (paper: 66%%)", ig)
	}
	all := pct(f.Potential-f.AfterSound, f.Potential)
	if all < 65 {
		t.Errorf("sound filters = %.0f%%, want the large majority (paper: 88%%)", all)
	}
	// Figure 5(b): UR and MA are the big unsound filters.
	ur := pct(f.UnsoundRemoved[filters.NameUR], f.AfterSound)
	ma := pct(f.UnsoundRemoved[filters.NameMA], f.AfterSound)
	tt := pct(f.UnsoundRemoved[filters.NameTT], f.AfterSound)
	mayHB := pct(f.UnsoundRemoved["mayHB"], f.AfterSound)
	for name, v := range map[string]float64{"UR": ur, "MA": ma, "TT": tt, "mayHB": mayHB} {
		if v <= 0 {
			t.Errorf("%s filtered nothing", name)
		}
	}
	allU := pct(f.AfterSound-f.AfterUnsound, f.AfterSound)
	if allU < 50 {
		t.Errorf("unsound filters = %.0f%% of remainder, want most (paper: 70%%)", allU)
	}
	if s := RenderFigure5(f); !strings.Contains(s, "Figure 5(a)") || !strings.Contains(s, "Figure 5(b)") {
		t.Error("render missing sections")
	}
}

// TestTable3Shape asserts the DEvA comparison outcome distribution: most
// DEvA-harmful warnings are detected-and-filtered by nAdroid (MHB
// dominating, CHB covering the finish cases), exactly one is agreed
// harmful, and exactly one (the Fragment case) is not detected.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12 {
		t.Fatalf("rows = %d, want the Table 3 set (~14)", len(rows))
	}
	var filtered, reported, notDetected, mhb, chb int
	for _, r := range rows {
		switch {
		case !r.Detected:
			notDetected++
			if !strings.Contains(r.Field, "Frag") {
				t.Errorf("only the Fragment case may be undetected, got %s", r.Field)
			}
		case r.Filtered:
			filtered++
			switch r.FilteredBy {
			case filters.NameMHB:
				mhb++
			case filters.NameCHB:
				chb++
			}
		default:
			reported++
		}
	}
	if notDetected != 1 {
		t.Errorf("not detected = %d, want 1 (Fragment, §8.1)", notDetected)
	}
	if reported != 1 {
		t.Errorf("reported = %d, want 1 (the MyTracks back-button bug)", reported)
	}
	if filtered < 10 {
		t.Errorf("filtered = %d, want >= 10", filtered)
	}
	if mhb < chb || chb != 2 {
		t.Errorf("filter split MHB=%d CHB=%d, want MHB-dominated with CHB=2 (paper: 9/2)", mhb, chb)
	}
	if s := RenderTable3(rows); !strings.Contains(s, "Not detected") || !strings.Contains(s, "Detected & Reported") {
		t.Error("render missing verdicts")
	}
}

// TestTable1SubsetNoValidation checks the cheap path and renderers.
func TestTable1SubsetNoValidation(t *testing.T) {
	rows, err := Table1(Table1Options{Apps: []string{"ConnectBot", "Swiftnotes"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string]Table1Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	cb := byApp["ConnectBot"]
	if cb.AfterUnsound != 13 || cb.SeededTrue != 13 {
		t.Errorf("ConnectBot row wrong: %+v", cb)
	}
	if cb.TrueHarmful != 0 {
		t.Error("TrueHarmful must be 0 without validation")
	}
	sw := byApp["Swiftnotes"]
	if sw.Potential != 0 || sw.AfterUnsound != 0 {
		t.Errorf("Swiftnotes should be clean: %+v", sw)
	}
}

// TestWriteArtifacts produces the Result/ folder layout and spot-checks
// its contents.
func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	err := WriteArtifacts(dir, Table1Options{Apps: []string{"ConnectBot", "ToDoList"}})
	if err != nil {
		t.Fatal(err)
	}
	main, err := os.ReadFile(filepath.Join(dir, "ResultAnalysis.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(main), "ConnectBot") || !strings.Contains(string(main), "filter,removed,basis") {
		t.Errorf("ResultAnalysis.csv malformed:\n%s", main)
	}
	for _, f := range []string{"Train/Table3.txt", "Injected/Table2.txt", "apps/ConnectBot.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	appCSV, _ := os.ReadFile(filepath.Join(dir, "apps", "ConnectBot.csv"))
	if !strings.Contains(string(appCSV), "f_svc") {
		t.Errorf("ConnectBot.csv missing warnings:\n%s", appCSV)
	}
}

// TestComparePaperAllCheckpointsHold is the one-shot reproduction gate.
func TestComparePaperAllCheckpointsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction sweep; skipped with -short")
	}
	rows, err := ComparePaper(3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s / %s: paper %s, measured %s", r.Artifact, r.Quantity, r.Paper, r.Measured)
		}
	}
	if s := RenderComparison(rows); !strings.Contains(s, "reproduction checkpoints hold") {
		t.Error("render malformed")
	}
}

// TestFieldVerdicts checks the Table 3 verdict on a hand-built filtered
// detection. A field is reported while any of its warnings survives.
// Otherwise it names the filter that removed its last pair: the latest
// of its filters in pipeline order, whatever the warning or map order.
func TestFieldVerdicts(t *testing.T) {
	field := func(name string) ir.FieldRef { return ir.FieldRef{Class: "t/A", Name: name} }
	dead := func(f string, by ...string) *uaf.Warning {
		w := &uaf.Warning{Field: field(f), FilteredBy: make(map[uaf.ThreadPair]string)}
		for i, name := range by {
			w.FilteredBy[uaf.ThreadPair{Use: i, Free: i + 1}] = name
		}
		return w
	}
	alive := func(f string) *uaf.Warning {
		return &uaf.Warning{Field: field(f), Pairs: []uaf.ThreadPair{{Use: 1, Free: 2}}}
	}
	d := &uaf.Detection{Warnings: []*uaf.Warning{
		dead("survives", filters.NameMHB),
		alive("survives"),
		dead("twoWarnings", filters.NameTT),
		dead("twoWarnings", filters.NameIG),
		dead("twoFilters", filters.NameUR, filters.NameMHB, filters.NameCHB),
		dead("one", filters.NameIA),
	}}
	want := map[string]struct {
		reported bool
		by       string
	}{
		"t/A.survives":    {reported: true},
		"t/A.twoWarnings": {by: filters.NameTT},
		"t/A.twoFilters":  {by: filters.NameUR},
		"t/A.one":         {by: filters.NameIA},
	}
	got := fieldVerdicts(d)
	if len(got) != len(want) {
		t.Fatalf("verdicts = %v, want %d fields", got, len(want))
	}
	for f, w := range want {
		v, ok := got[f]
		if !ok {
			t.Errorf("%s: no verdict", f)
			continue
		}
		if v.reported != w.reported || (!w.reported && v.by != w.by) {
			t.Errorf("%s: verdict = %+v, want reported=%v by=%q", f, v, w.reported, w.by)
		}
	}
}
