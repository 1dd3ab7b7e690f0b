package report

import (
	"context"
	"strings"
	"testing"

	"nadroid/internal/corpus"
	"nadroid/internal/datalog"
	"nadroid/internal/detect"
	"nadroid/internal/evidence"
	"nadroid/internal/filters"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

func connectBot(t *testing.T) (*threadify.Model, *uaf.Detection) {
	t.Helper()
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing ConnectBot")
	}
	m, err := threadify.Build(app.Build(), threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := detectUAF(t, m)
	filters.Run(d)
	return m, d
}

// detectUAF runs the pipeline's uaf detector over the shared detector
// context and returns its unfiltered warnings.
func detectUAF(t testing.TB, m *threadify.Model) *uaf.Detection {
	t.Helper()
	ctx := context.Background()
	det, _ := detect.ByName("uaf")
	res, err := detect.Run(ctx, detect.BuildContext(ctx, "", m, detect.Options{}), []detect.Detector{det})
	if err != nil {
		t.Fatal(err)
	}
	return res.UAF
}

func TestClassificationCategories(t *testing.T) {
	m, d := connectBot(t)
	rep := New("ConnectBot", d)
	// ConnectBot seeds 12 EC-PC (service UAFs) + 1 PC-PC (posted).
	if rep.ByCategory[ECPC] != 12 {
		t.Errorf("EC-PC = %d, want 12", rep.ByCategory[ECPC])
	}
	if rep.ByCategory[PCPC] != 1 {
		t.Errorf("PC-PC = %d, want 1", rep.ByCategory[PCPC])
	}
	_ = m
}

func TestRankingPutsSuspiciousFirst(t *testing.T) {
	_, d := connectBot(t)
	rep := New("ConnectBot", d)
	if len(rep.Entries) < 2 {
		t.Fatal("expected multiple entries")
	}
	rank := map[Category]int{CNT: 5, CRT: 4, PCPC: 3, ECPC: 2, ECEC: 1, TT: 0}
	for i := 1; i < len(rep.Entries); i++ {
		if rank[rep.Entries[i-1].Category] < rank[rep.Entries[i].Category] {
			t.Errorf("ordering violated at %d: %v before %v", i,
				rep.Entries[i-1].Category, rep.Entries[i].Category)
		}
	}
}

func TestLineagesPresent(t *testing.T) {
	_, d := connectBot(t)
	rep := New("ConnectBot", d)
	for _, e := range rep.Entries {
		if e.UseLineage == "" || e.FreeLineage == "" {
			t.Errorf("entry %s missing lineage", e.Warning.Key())
		}
		if !strings.HasPrefix(e.UseLineage, "main") {
			t.Errorf("lineage must start at the dummy main: %q", e.UseLineage)
		}
	}
}

// TestFingerprintsEmbedded: every entry carries a stable fingerprint,
// distinct per warning, present in both renderings.
func TestFingerprintsEmbedded(t *testing.T) {
	_, d := connectBot(t)
	rep := New("ConnectBot", d)
	seen := map[string]bool{}
	for _, e := range rep.Entries {
		fp := string(e.Fingerprint)
		if len(fp) != 16 {
			t.Fatalf("entry %s: fingerprint %q not 16 hex chars", e.Warning.Key(), fp)
		}
		if seen[fp] {
			t.Errorf("duplicate fingerprint %s", fp)
		}
		seen[fp] = true
		if !strings.Contains(rep.String(), "fp "+fp) {
			t.Errorf("String() missing fingerprint %s", fp)
		}
		if !strings.Contains(rep.CSV(), ","+fp+"\n") {
			t.Errorf("CSV() missing fingerprint column %s", fp)
		}
	}
}

func TestCSVShape(t *testing.T) {
	_, d := connectBot(t)
	rep := New("ConnectBot", d)
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(rep.Entries)+1 {
		t.Fatalf("CSV rows = %d, want %d + header", len(lines), len(rep.Entries))
	}
	if !strings.HasPrefix(lines[0], "app,field,use,free,category") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "ConnectBot,") {
			t.Errorf("row missing app column: %q", line)
		}
	}
}

// TestCSVWithEvidenceShape: the provenance-mode export is the classic
// schema plus one summary column — "-" cells without records, kind
// summaries with them — while CSV() itself is untouched.
func TestCSVWithEvidenceShape(t *testing.T) {
	_, d := connectBot(t)
	rep := New("ConnectBot", d)

	noEv := rep.CSVWithEvidence(nil)
	lines := strings.Split(strings.TrimSpace(noEv), "\n")
	if lines[0] != "app,field,use,free,category,use_lineage,free_lineage,fingerprint,evidence" {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",-") {
			t.Errorf("row without a record must end in the '-' cell: %q", line)
		}
	}

	ev := map[string]*evidence.Evidence{
		string(rep.Entries[0].Fingerprint): {
			Derivation: &datalog.Derivation{Rel: "Racy"},
			Filters:    []filters.Verdict{{Filter: "MHB"}},
		},
	}
	withEv := strings.Split(strings.TrimSpace(rep.CSVWithEvidence(ev)), "\n")
	if !strings.HasSuffix(withEv[1], ",derivation+filters:1") {
		t.Errorf("row with a record = %q, want derivation+filters:1 cell", withEv[1])
	}
}

func TestStringRendering(t *testing.T) {
	_, d := connectBot(t)
	rep := New("ConnectBot", d)
	s := rep.String()
	for _, want := range []string{"13 potential UAF warning(s)", "use :", "free:", "via main"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		ECEC: "EC-EC", ECPC: "EC-PC", PCPC: "PC-PC", CRT: "C-RT", CNT: "C-NT", TT: "T-T",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%v String = %q, want %q", int(c), c.String(), name)
		}
	}
	if len(Categories()) != 6 {
		t.Errorf("Categories() = %d entries", len(Categories()))
	}
}

func TestClassifyPairDirectly(t *testing.T) {
	m, d := connectBot(t)
	_ = d
	// Build synthetic pairs over the real model's thread kinds.
	var ec, pc, th int
	for _, t2 := range m.Threads {
		switch t2.Kind {
		case threadify.KindEntryCallback:
			ec = t2.ID
		case threadify.KindPostedCallback:
			pc = t2.ID
		case threadify.KindTaskBody, threadify.KindNativeThread:
			th = t2.ID
		}
	}
	if got := Classify(m, uaf.ThreadPair{Use: ec, Free: ec}); got != ECEC {
		t.Errorf("EC/EC = %v", got)
	}
	if got := Classify(m, uaf.ThreadPair{Use: ec, Free: pc}); got != ECPC {
		t.Errorf("EC/PC = %v", got)
	}
	if got := Classify(m, uaf.ThreadPair{Use: pc, Free: pc}); got != PCPC {
		t.Errorf("PC/PC = %v", got)
	}
	_ = th // ConnectBot has no native threads; C-RT/C-NT covered elsewhere
}
