// nadroid_explain_test.go is the acceptance test for the provenance
// subsystem: analyzing an app with one injected EC-PC UAF in provenance
// mode must yield an evidence record whose Racy derivation rests on
// exactly the injected accesses, whose filter trail covers the
// full §6 pipeline, and whose every cited fact exists in the engine
// database — and the record must arrive identically through the CLI
// store path and the HTTP explain endpoint, for any worker count.
package nadroid_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/datalog"
	"nadroid/internal/detect"
	"nadroid/internal/evidence"
	"nadroid/internal/explore"
	"nadroid/internal/server"
	"nadroid/internal/store"
)

func TestExplainEndToEnd(t *testing.T) {
	app, ok := corpus.ByName("Swiftnotes")
	if !ok {
		t.Fatal("Swiftnotes missing from corpus")
	}
	injected, sites := app.Spec.BuildInjected([]corpus.InjectionKind{corpus.InjectECPC})
	if len(sites) != 1 {
		t.Fatalf("injected sites = %d, want 1", len(sites))
	}

	// The same analysis at both ends of the worker range: provenance must
	// not depend on evaluation parallelism.
	byWorkers := make(map[int][]byte)
	var res *nadroid.Result
	var fp string
	for _, workers := range []int{1, 8} {
		r, err := nadroid.AnalyzeContext(context.Background(), injected,
			nadroid.Options{Provenance: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Evidence) == 0 {
			t.Fatal("provenance mode produced no evidence records")
		}
		blob, err := json.Marshal(r.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		byWorkers[workers] = blob
		res = r
	}
	if string(byWorkers[1]) != string(byWorkers[8]) {
		t.Fatal("evidence differs between -workers 1 and -workers 8")
	}

	// Locate the injected warning: its field names the artificial site.
	for _, e := range res.Report.Entries {
		f := e.Warning.Field.String()
		if strings.Contains(f, sites[0].Class) && strings.Contains(f, sites[0].Field) {
			if fp != "" {
				t.Fatalf("injected site matches more than one warning")
			}
			fp = string(e.Fingerprint)
			if got := e.Category.String(); got != "EC-PC" {
				t.Errorf("injected warning category = %s, want EC-PC", got)
			}
		}
	}
	if fp == "" {
		t.Fatalf("no warning matches the injected site %s.%s", sites[0].Class, sites[0].Field)
	}

	ev, ok := res.EvidenceFor(fp)
	if !ok {
		t.Fatalf("no evidence record for the injected warning %s", fp)
	}
	if ev.Derivation == nil {
		t.Fatal("evidence has no derivation tree")
	}
	if ev.Derivation.Rel != "Racy" {
		t.Errorf("derivation root = %s, want Racy", ev.Derivation.Rel)
	}

	// The derivation's premises are exactly the injected accesses: every
	// access premise carries the injected field symbol, and the root's
	// tuple names the two access IDs the warning raced on.
	leaves := ev.Derivation.Premises
	if len(leaves) == 0 {
		t.Fatal("derivation has no premises")
	}
	wantField := ""
	for _, e := range res.Report.Entries {
		if string(e.Fingerprint) == fp {
			wantField = "f:" + e.Warning.Field.String()
		}
	}
	accessLeaves := 0
	for _, leaf := range leaves {
		if !leaf.IsBase() {
			t.Errorf("premise %s%v is not a base fact", leaf.Rel, leaf.Tuple)
		}
		switch leaf.Rel {
		case "RdAcc", "WrAcc":
			accessLeaves++
			found := false
			for _, col := range leaf.Tuple {
				if col == wantField {
					found = true
				}
			}
			if !found {
				t.Errorf("premise %s%v does not mention the injected field %s", leaf.Rel, leaf.Tuple, wantField)
			}
		case "Esc":
			// The escape fact is the third premise of the race rule.
		default:
			t.Errorf("unexpected premise relation %s (tuple %v)", leaf.Rel, leaf.Tuple)
		}
	}
	if accessLeaves != 2 {
		t.Errorf("access premises = %d, want the 2 injected accesses", accessLeaves)
	}

	// Every fact cited anywhere in the tree exists in the engine database.
	// Detection is deterministic from the model, so rebuilding the context
	// reproduces the engine the pipeline derived the pair in.
	dc := detect.BuildContext(context.Background(), injected.Name, res.Model, detect.Options{})
	detectors, err := detect.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detect.Run(context.Background(), dc, detectors); err != nil {
		t.Fatal(err)
	}
	var checkFacts func(d *evidence.Derivation)
	checkFacts = func(d *evidence.Derivation) {
		terms := make([]datalog.Sym, len(d.Tuple))
		for i, name := range d.Tuple {
			terms[i] = dc.Engine.Sym(name)
		}
		if !dc.Engine.Has(d.Rel, terms...) {
			t.Errorf("cited fact %s%v not in the engine database", d.Rel, d.Tuple)
		}
		for _, p := range d.Premises {
			checkFacts(p)
		}
	}
	checkFacts(ev.Derivation)

	// The filter trail covers the full default pipeline — three sound and
	// six unsound filters, each with a verdict and a reason — and the
	// surviving warning was kept by every one of them.
	if len(ev.Filters) != 9 {
		t.Fatalf("filter trail has %d verdicts, want all 9 filters: %+v", len(ev.Filters), ev.Filters)
	}
	for _, v := range ev.Filters {
		if v.Filter == "" || v.Reason == "" {
			t.Errorf("filter verdict missing name or reason: %+v", v)
		}
		if !v.Kept {
			t.Errorf("filter %s killed the injected warning: %s", v.Filter, v.Reason)
		}
	}
	if ev.Aliasing == nil {
		t.Error("evidence has no aliasing chain")
	}

	// CLI path: persist the run, retrieve the record through the same
	// store lookup `nadroid explain` uses — by full fingerprint and by
	// unique prefix.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	persistAnalysis(t, st, injected, server.OptionsWire{Provenance: true})
	wantBlob, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{fp, fp[:12]} {
		raw, _, ok := st.EvidenceFor(app.Name(), query)
		if !ok {
			t.Fatalf("store EvidenceFor(%q) found nothing", query)
		}
		var got evidence.Evidence
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		gotBlob, _ := json.Marshal(&got)
		if string(gotBlob) != string(wantBlob) {
			t.Errorf("stored evidence for %q differs from the in-memory record", query)
		}
	}
	if ren := ev.Render(); !strings.Contains(ren, "derivation:") || !strings.Contains(ren, "filters:") {
		t.Errorf("human rendering lacks derivation/filter sections:\n%s", ren)
	}

	// HTTP path: the explain endpoint serves the same record.
	srv := server.New(server.Config{Workers: 1, Store: st})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/apps/%s/warnings/%s/explain", ts.URL, app.Name(), fp))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain endpoint status = %d: %s", resp.StatusCode, body)
	}
	var wire struct {
		App      string             `json:"app"`
		Run      string             `json:"run"`
		Evidence *evidence.Evidence `json:"evidence"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("explain body not JSON: %v\n%s", err, body)
	}
	if wire.App != app.Name() || wire.Run == "" || wire.Evidence == nil {
		t.Fatalf("explain envelope = %+v, want app/run/evidence", wire)
	}
	httpBlob, _ := json.Marshal(wire.Evidence)
	if string(httpBlob) != string(wantBlob) {
		t.Error("HTTP evidence differs from the in-memory record")
	}

	// Text rendering over HTTP, and a 404 for unknown fingerprints.
	resp, err = http.Get(fmt.Sprintf("%s/v1/apps/%s/warnings/%s/explain?format=text", ts.URL, app.Name(), fp[:12]))
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(text), "derivation:") {
		t.Errorf("text explain status = %d body:\n%s", resp.StatusCode, text)
	}
	resp, err = http.Get(ts.URL + "/v1/apps/" + app.Name() + "/warnings/ffffffffffff/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint explain status = %d, want 404", resp.StatusCode)
	}
}

// TestHarmfulWitnessesReplay checks what `nadroid -validate -explain`
// relies on: every witness the pipeline keeps on Result.Harmful — found
// by the pruned search — replays under explore.Replay to a narrative
// that reaches the witness's NPE, on the 27 Table 1 apps and the random
// specs Random1…Random6.
func TestHarmfulWitnessesReplay(t *testing.T) {
	apps := corpus.Apps()
	for _, seed := range witnessSeeds {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	opts := explore.Options{MaxSchedules: 3000}
	total := 0
	for _, app := range apps {
		pkg := app.Build()
		res, err := nadroid.Analyze(pkg, nadroid.Options{Validate: true, Explore: opts})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		for _, v := range res.Harmful {
			if v.Witness == nil {
				t.Errorf("%s: harmful warning %s carries no witness", app.Name(), v.Warning.Key())
				continue
			}
			total++
			narrative := strings.Join(explore.Replay(pkg, res.Model, v.Warning, v.Witness, opts), "\n")
			if !strings.Contains(narrative, "NPE "+v.Witness.NPE.String()) {
				t.Errorf("%s: replay of %s does not reach %v:\n%s", app.Name(), v.Warning.Key(), v.Witness.NPE, narrative)
			}
		}
	}
	if total != 107 {
		t.Errorf("replayed %d witnesses, want the 107 of the Table 1 apps and Random1…Random6", total)
	}
}
