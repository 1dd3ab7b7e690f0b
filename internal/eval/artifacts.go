package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/inject"
)

// WriteArtifacts reproduces the paper artifact's Result/ folder layout:
//
//	<dir>/ResultAnalysis.csv   — the Table 1 / Figure 5 data (§A.5)
//	<dir>/Train/Table3.txt     — the DEvA comparison
//	<dir>/Injected/Table2.txt  — the false-negative study
//	<dir>/apps/<name>.csv      — per-app warning reports
//
// The paper's artifact generates the same files from run-all.sh.
func WriteArtifacts(dir string, opts Table1Options) error {
	for _, sub := range []string{"", "Train", "Injected", "apps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}

	rows, err := Table1(opts)
	if err != nil {
		return err
	}
	fig5, err := Figure5Data()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "ResultAnalysis.csv"),
		[]byte(resultAnalysisCSV(rows, fig5)), 0o644); err != nil {
		return err
	}

	t3, err := Table3()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "Train", "Table3.txt"),
		[]byte(RenderTable3(t3)), 0o644); err != nil {
		return err
	}

	t2, err := inject.Run(nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "Injected", "Table2.txt"),
		[]byte(RenderTable2(t2)), 0o644); err != nil {
		return err
	}

	// Per-app warning CSVs.
	want := map[string]bool{}
	for _, a := range opts.Apps {
		want[a] = true
	}
	for _, app := range corpus.Apps() {
		if len(want) > 0 && !want[app.Name()] {
			continue
		}
		res, err := nadroid.Analyze(app.Build(), nadroid.Options{})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "apps", app.Name()+".csv")
		if err := os.WriteFile(path, []byte(res.Report.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// resultAnalysisCSV renders the combined per-app table plus the filter
// aggregates, mirroring the artifact's single-CSV shape.
func resultAnalysisCSV(rows []Table1Row, f *Figure5) string {
	var b strings.Builder
	b.WriteString("group,app,loc,ec,pc,t,potential,after_sound,after_unsound,true_harmful,seeded_true,seeded_fp\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.Group, r.App, r.LOC, r.EC, r.PC, r.T,
			r.Potential, r.AfterSound, r.AfterUnsound,
			r.TrueHarmful, r.SeededTrue, r.SeededFP)
	}
	b.WriteString("\nfilter,removed,basis\n")
	for _, name := range []string{"MHB", "IG", "IA"} {
		fmt.Fprintf(&b, "%s,%d,%d\n", name, f.SoundRemoved[name], f.Potential)
	}
	for _, name := range []string{"mayHB", "MA", "UR", "TT"} {
		fmt.Fprintf(&b, "%s,%d,%d\n", name, f.UnsoundRemoved[name], f.AfterSound)
	}
	return b.String()
}
