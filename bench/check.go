package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nadroid"
	"nadroid/internal/report"
)

// golden is the reference output of one app, read from the repository's
// testdata/golden (captured from the seed solver, never from the code
// under test).
type golden struct {
	Potential    int `json:"potential"`
	AfterSound   int `json:"after_sound"`
	AfterUnsound int `json:"after_unsound"`
	report, csv  string
}

// loadGoldens reads corpus.json and every app's report text and CSV.
func loadGoldens(dir string) (map[string]golden, error) {
	data, err := os.ReadFile(filepath.Join(dir, "corpus.json"))
	if err != nil {
		return nil, fmt.Errorf("reading goldens: %w", err)
	}
	var rows []struct {
		App string `json:"app"`
		golden
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("parsing %s/corpus.json: %w", dir, err)
	}
	out := make(map[string]golden, len(rows))
	for _, r := range rows {
		g := r.golden
		rep, err := os.ReadFile(filepath.Join(dir, r.App+".report.txt"))
		if err != nil {
			return nil, fmt.Errorf("reading goldens: %w", err)
		}
		csv, err := os.ReadFile(filepath.Join(dir, r.App+".csv"))
		if err != nil {
			return nil, fmt.Errorf("reading goldens: %w", err)
		}
		g.report, g.csv = string(rep), string(csv)
		out[r.App] = g
	}
	return out, nil
}

// expectation is what one op of a workload must produce.
type expectation struct {
	golden
	// harmful is the seeded true-harmful count (corpus.Spec.TrueTotal);
	// -1 when the workload does not validate.
	harmful     int
	disposition string
}

// checkResult compares one analysis result with its expectation.
func checkResult(want expectation, res *nadroid.Result, err error) error {
	if err != nil {
		return err
	}
	st := res.Stats
	if st.Potential != want.Potential || st.AfterSound != want.AfterSound || st.AfterUnsound != want.AfterUnsound {
		return fmt.Errorf("counts %d/%d/%d, want %d/%d/%d", st.Potential, st.AfterSound, st.AfterUnsound,
			want.Potential, want.AfterSound, want.AfterUnsound)
	}
	if err := checkReport(want, res.Report); err != nil {
		return err
	}
	if want.harmful >= 0 && len(res.Harmful) != want.harmful {
		return fmt.Errorf("%d validated harmful, want %d", len(res.Harmful), want.harmful)
	}
	if res.Disposition != want.disposition {
		return fmt.Errorf("disposition %q, want %q", res.Disposition, want.disposition)
	}
	return nil
}

// checkReport compares a rendered report and CSV with the golden text.
func checkReport(want expectation, rep *report.Report) error {
	if rep.String() != want.report {
		return fmt.Errorf("report text differs from golden")
	}
	if rep.CSV() != want.csv {
		return fmt.Errorf("report CSV differs from golden")
	}
	return nil
}
