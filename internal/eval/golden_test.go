package eval

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nadroid/internal/inject"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the evaluation golden from the current pipeline")

// goldenEvaluationPath pins Figure 5, Table 2 and Table 3, next to the
// repository's other goldens.
var goldenEvaluationPath = filepath.Join("..", "..", "testdata", "golden", "evaluation.json")

// evaluationGolden is the record in testdata/golden/evaluation.json.
type evaluationGolden struct {
	Figure5 *Figure5    `json:"figure5"`
	Table2  []table2App `json:"table2"`
	Table3  []Table3Row `json:"table3"`
}

// table2App is one injection-study app with every planted site's
// outcome, in planting order.
type table2App struct {
	App   string       `json:"app"`
	Sites []table2Site `json:"sites"`
}

type table2Site struct {
	Kind    string `json:"kind"`
	Field   string `json:"field"`
	Outcome string `json:"outcome"`
}

func runEvaluation(t *testing.T) []byte {
	t.Helper()
	f, err := Figure5Data()
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := inject.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	g := evaluationGolden{Figure5: f, Table3: rows3}
	for _, r := range rows2 {
		app := table2App{App: r.App}
		for _, s := range r.Results {
			app.Sites = append(app.Sites, table2Site{
				Kind:    s.Site.Kind.String(),
				Field:   s.Site.Class + "." + s.Site.Field,
				Outcome: s.Outcome.String(),
			})
		}
		g.Table2 = append(g.Table2, app)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestEvaluationGolden pins every Figure 5 count (each filter alone,
// RHB/CHB/PHB included), every Table 2 site outcome and every Table 3
// verdict. The shape tests above check the paper's claims; this one
// catches any change in the numbers themselves.
//
// Regenerate (only when an intentional semantic change is reviewed):
//
//	go test ./internal/eval -run TestEvaluationGolden -update-golden
func TestEvaluationGolden(t *testing.T) {
	got := runEvaluation(t)
	if *updateGolden {
		if err := os.WriteFile(goldenEvaluationPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: rewrote %s", goldenEvaluationPath)
		return
	}
	want, err := os.ReadFile(goldenEvaluationPath)
	if err != nil {
		t.Fatalf("reading evaluation golden (regenerate with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("evaluation differs from %s:\n got:\n%s\nwant:\n%s", goldenEvaluationPath, got, want)
	}
}
