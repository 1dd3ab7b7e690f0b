// nadroid_trace_test.go is the acceptance test for the observability
// layer: one traced corpus run must produce a span tree whose nesting
// mirrors the pipeline (modeling → points-to solve, detection with its
// sub-stages, per-filter filtering, per-schedule validation), deep
// counters for every phase, and a loadable Chrome trace export.
package nadroid_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/explore"
	"nadroid/internal/obs"
)

func findChild(t *testing.T, s *obs.Span, name string) *obs.Span {
	t.Helper()
	for _, c := range s.Children() {
		if c.Name() == name {
			return c
		}
	}
	var names []string
	for _, c := range s.Children() {
		names = append(names, c.Name())
	}
	t.Fatalf("span %q has no child %q (children: %v)", s.Name(), name, names)
	return nil
}

func TestAnalyzeTraceTree(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("ConnectBot missing from corpus")
	}
	tracer := obs.NewTracer()
	metrics := obs.NewMetrics()
	ctx := obs.WithTracer(context.Background(), tracer)
	ctx = obs.WithMetrics(ctx, metrics)

	res, err := nadroid.AnalyzeContext(ctx, app.Build(), nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Potential == 0 {
		t.Fatal("analysis found nothing; trace assertions would be vacuous")
	}

	roots := tracer.Roots()
	if len(roots) != 1 || roots[0].Name() != "analyze" {
		t.Fatalf("want one analyze root, got %v", roots)
	}
	analyze := roots[0]

	// Modeling nests the points-to solve.
	modeling := findChild(t, analyze, "modeling")
	solve := findChild(t, modeling, "pointsto.solve")
	if solve.Duration() <= 0 {
		t.Error("pointsto.solve span has no duration")
	}
	// The solve span carries the worklist volume: iterations (drains)
	// and delta_objs (objects moved by difference propagation).
	solveAttrs := map[string]bool{}
	for _, a := range solve.Attrs() {
		solveAttrs[a.Key] = true
	}
	for _, key := range []string{"iterations", "delta_objs", "var_facts"} {
		if !solveAttrs[key] {
			t.Errorf("pointsto.solve span missing attr %q (have %v)", key, solve.Attrs())
		}
	}

	// Detection has at least two sub-stages (shared-context build plus
	// one span per enabled detector).
	detection := findChild(t, analyze, "detection")
	if n := len(detection.Children()); n < 2 {
		t.Errorf("detection has %d sub-spans, want ≥2", n)
	}
	findChild(t, detection, "race.collect-accesses")
	findChild(t, detection, "hb.build")
	// The Racy join's fact count lands on its span and in race_facts.
	var facts interface{}
	for _, a := range findChild(t, detection, "detect.facts").Attrs() {
		if a.Key == "facts" {
			facts = a.Val
		}
	}
	if n, ok := facts.(int); !ok || n <= 0 || int64(n) != metrics.Get("race_facts") {
		t.Errorf("detect.facts span has facts=%v, race_facts counter %d", facts, metrics.Get("race_facts"))
	}
	// The Racy join's probe runs inside the uaf detector's span.
	findChild(t, findChild(t, detection, "detect:uaf"), "race.pair")
	for _, name := range []string{"detect:nosleep", "detect:leaked-thread", "detect:lost-result"} {
		findChild(t, detection, name)
	}

	// Filtering fans out per filter.
	filtering := findChild(t, analyze, "filtering")
	var filterSpans int
	for _, c := range filtering.Children() {
		if strings.HasPrefix(c.Name(), "filter:") {
			filterSpans++
		}
	}
	if filterSpans < 3 {
		t.Errorf("filtering has %d filter:* spans, want ≥3", filterSpans)
	}

	// Validation fans out per warning and per schedule.
	validation := findChild(t, analyze, "validation")
	validate := findChild(t, validation, "validate")
	foundSchedule := false
	for _, c := range validate.Children() {
		if c.Name() == "schedule" {
			foundSchedule = true
			break
		}
	}
	if !foundSchedule {
		t.Error("validate span has no per-schedule children")
	}

	// Deep counters from every phase.
	for _, name := range []string{
		"pointsto_iterations", "pointsto_delta_objs", "pointsto_var_facts",
		"race_facts",
		"race_accesses", "race_pairs",
		"uaf_warnings",
		"threads_modeled",
		"validation_schedules_executed",
		"detect_context_builds",
	} {
		if metrics.Get(name) <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, metrics.Get(name))
		}
	}
	var filterCounter bool
	for _, name := range metrics.Names() {
		if strings.HasPrefix(name, "filter_examined{filter=") {
			filterCounter = true
			break
		}
	}
	if !filterCounter {
		t.Errorf("no per-filter counters recorded; have %v", metrics.Names())
	}
	var detectorCounters int
	for _, name := range metrics.Names() {
		if strings.HasPrefix(name, "detector_warnings{detector=") {
			detectorCounters++
		}
	}
	if detectorCounters != 4 {
		t.Errorf("want one detector_warnings counter per registered detector (4), got %d; have %v",
			detectorCounters, metrics.Names())
	}

	// The Chrome export is loadable JSON with one event per span.
	data, err := tracer.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("ChromeTrace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != tracer.SpanCount() {
		t.Errorf("chrome events = %d, want %d", len(doc.TraceEvents), tracer.SpanCount())
	}
}

// TestAnalyzeUntracedStaysClean guards the no-op path: with nothing
// attached to the context, analysis runs and no tracer state leaks.
func TestAnalyzeUntracedStaysClean(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	res, err := nadroid.AnalyzeContext(context.Background(), app.Build(), nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Potential == 0 {
		t.Fatal("untraced analysis lost its results")
	}
}
