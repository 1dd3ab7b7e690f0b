// obs_test.go covers the observability surface added to the service:
// the /metrics exposition format (parser-based), the per-job trace
// endpoint, the JSON health check, and pprof gating.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nadroid/internal/obs"
	"nadroid/internal/store"
)

// expoLine matches one Prometheus-style exposition line:
// name{labels} value  or  name value.
var expoLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.+eEIinf]+)$`)

// TestMetricsExposition parses every /metrics line after a real
// analysis: names are well-formed, values are numeric, histogram le
// labels are numeric milliseconds (not duration strings), buckets are
// cumulative-monotone, and the +Inf bucket equals the _count line.
func TestMetricsExposition(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	resp, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]string{"app": "ConnectBot"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}

	resp, data := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(data)

	type bucket struct {
		le  string
		val float64
	}
	buckets := map[string][]bucket{} // phase -> cumulative buckets in output order
	counts := map[string]float64{}
	var waitBuckets []bucket // nadroid_queue_wait_bucket in output order
	seen := map[string]bool{}
	vals := map[string]float64{} // last value per family (unlabeled families)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		m := expoLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		seen[name] = true
		if labels == "" {
			vals[name] = val
		}
		switch name {
		case "nadroid_phase_latency_bucket":
			phase := labelValue(t, labels, "phase")
			le := labelValue(t, labels, "le")
			if le != "+Inf" {
				if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("le label %q is not numeric (line %q)", le, line)
				}
			}
			buckets[phase] = append(buckets[phase], bucket{le, val})
		case "nadroid_phase_latency_count":
			counts[labelValue(t, labels, "phase")] = val
		case "nadroid_queue_wait_bucket":
			waitBuckets = append(waitBuckets, bucket{labelValue(t, labels, "le"), val})
		}
	}

	for _, name := range []string{
		"nadroid_build_info", "nadroid_jobs_done_total", "nadroid_cache_misses_total",
		"nadroid_go_goroutines", "nadroid_go_heap_alloc_bytes",
		"nadroid_store_hits_total", "nadroid_store_misses_total", "nadroid_store_puts_total",
		"nadroid_store_gc_removed_total", "nadroid_store_load_errors_total",
		"nadroid_store_runs", "nadroid_store_warm_loaded",
		"nadroid_store_bytes", "nadroid_ircache_bytes",
		"nadroid_suppressed_warnings_total",
	} {
		if !seen[name] {
			t.Errorf("metric family %s missing from exposition", name)
		}
	}
	// The analysis above was persisted, so the store families are live.
	if vals["nadroid_store_puts_total"] != 1 || vals["nadroid_store_runs"] != 1 {
		t.Errorf("store families not fed by the analysis: puts=%v runs=%v",
			vals["nadroid_store_puts_total"], vals["nadroid_store_runs"])
	}
	// The run wrote a cold-start blob and an incremental partition, so
	// the size gauges are non-zero (and the cache area is part of the
	// store total).
	if vals["nadroid_ircache_bytes"] <= 0 || vals["nadroid_store_bytes"] < vals["nadroid_ircache_bytes"] {
		t.Errorf("size gauges not live: store_bytes=%v ircache_bytes=%v",
			vals["nadroid_store_bytes"], vals["nadroid_ircache_bytes"])
	}

	// The analysis must have surfaced deep pipeline counters.
	for _, name := range []string{
		"nadroid_pipeline_pointsto_iterations",
		"nadroid_pipeline_race_facts",
		"nadroid_pipeline_race_pairs",
		"nadroid_pipeline_filter_examined",
	} {
		if !seen[name] {
			t.Errorf("pipeline counter %s missing; exposition:\n%s", name, text)
		}
	}

	// The queue gauge and wait histogram are live: exactly one job went
	// through the pool, so the wait histogram counted it and the depth
	// gauge is back to zero.
	if depth, ok := vals["nadroid_queue_depth"]; !ok || depth != 0 {
		t.Errorf("nadroid_queue_depth = %v (present=%v), want 0 after the sync analysis", depth, ok)
	}
	if len(waitBuckets) == 0 {
		t.Fatal("no nadroid_queue_wait_bucket lines rendered")
	}
	if last := waitBuckets[len(waitBuckets)-1]; last.le != "+Inf" || last.val != 1 {
		t.Errorf("queue wait +Inf bucket = %+v, want le=+Inf val=1", last)
	}
	prevWait := -1.0
	for _, bk := range waitBuckets {
		if bk.val < prevWait {
			t.Errorf("queue wait buckets not cumulative (%v after %v)", bk.val, prevWait)
		}
		prevWait = bk.val
	}
	if vals["nadroid_queue_wait_count"] != 1 {
		t.Errorf("nadroid_queue_wait_count = %v, want 1", vals["nadroid_queue_wait_count"])
	}
	if _, ok := vals["nadroid_queue_wait_sum_ms"]; !ok {
		t.Error("nadroid_queue_wait_sum_ms missing")
	}

	if len(buckets) == 0 {
		t.Fatal("no phase latency buckets rendered")
	}
	for phase, bs := range buckets {
		last := bs[len(bs)-1]
		if last.le != "+Inf" {
			t.Errorf("phase %s: last bucket le = %q, want +Inf", phase, last.le)
		}
		prevBound := -1.0
		prevCum := -1.0
		for _, bk := range bs {
			if bk.le != "+Inf" {
				bound, _ := strconv.ParseFloat(bk.le, 64)
				if bound <= prevBound {
					t.Errorf("phase %s: bucket bounds not increasing (%v after %v)", phase, bound, prevBound)
				}
				prevBound = bound
			}
			if bk.val < prevCum {
				t.Errorf("phase %s: cumulative count decreased (%v after %v)", phase, bk.val, prevCum)
			}
			prevCum = bk.val
		}
		if counts[phase] != last.val {
			t.Errorf("phase %s: _count %v != +Inf bucket %v", phase, counts[phase], last.val)
		}
	}

	// Stable ordering: two renders agree apart from runtime gauge values.
	_, data2 := getBody(t, ts.URL+"/metrics")
	if names1, names2 := lineNames(string(data)), lineNames(string(data2)); names1 != names2 {
		t.Errorf("metric line order unstable:\n%s\nvs\n%s", names1, names2)
	}
}

// labelValue extracts key="v" from a {…} label blob.
func labelValue(t *testing.T, labels, key string) string {
	t.Helper()
	re := regexp.MustCompile(key + `="([^"]*)"`)
	m := re.FindStringSubmatch(labels)
	if m == nil {
		t.Fatalf("label %s missing in %q", key, labels)
	}
	return m[1]
}

func lineNames(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		name, _, _ := strings.Cut(line, " ")
		b.WriteString(name)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestJobTraceEndpoint runs an async analysis and fetches its span tree:
// the acceptance criterion's nesting (analyze → modeling → pointsto.solve,
// detection with ≥2 sub-spans, filtering with per-filter children) must
// arrive over the wire, and ?format=chrome must serve parseable
// trace_event JSON.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/analyze?async=true", map[string]string{"app": "ConnectBot"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, data)
	}
	var jw JobWire
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, jw.ID))
		if err := json.Unmarshal(data, &jw); err != nil {
			t.Fatal(err)
		}
		if jw.State == StateDone {
			break
		}
		if jw.State == StateFailed || jw.State == StateCanceled {
			t.Fatalf("job ended %s: %s", jw.State, jw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s", jw.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, jw.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, data)
	}
	var tw struct {
		Job   string          `json:"job"`
		Spans int             `json:"spans"`
		Roots []*obs.SpanNode `json:"roots"`
	}
	if err := json.Unmarshal(data, &tw); err != nil {
		t.Fatalf("trace body not JSON: %v\n%s", err, data)
	}
	if tw.Job != jw.ID || tw.Spans == 0 || len(tw.Roots) != 1 {
		t.Fatalf("trace envelope = %+v, want job %s with one root", tw, jw.ID)
	}
	analyze := tw.Roots[0]
	if analyze.Name != "analyze" {
		t.Fatalf("root span = %q, want analyze", analyze.Name)
	}
	child := func(n *obs.SpanNode, name string) *obs.SpanNode {
		for _, c := range n.Children {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("span %q has no child %q (children: %v)", n.Name, name, spanNames(n.Children))
		return nil
	}
	modeling := child(analyze, "modeling")
	child(modeling, "pointsto.solve")
	detection := child(analyze, "detection")
	if len(detection.Children) < 2 {
		t.Fatalf("detection children = %v, want ≥2 sub-spans", spanNames(detection.Children))
	}
	filtering := child(analyze, "filtering")
	var filterSpans int
	for _, c := range filtering.Children {
		if strings.HasPrefix(c.Name, "filter:") {
			filterSpans++
		}
	}
	if filterSpans < 2 {
		t.Fatalf("filtering children = %v, want ≥2 filter:* spans", spanNames(filtering.Children))
	}

	resp, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/trace?format=chrome", ts.URL, jw.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace status = %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(chrome.TraceEvents) != tw.Spans {
		t.Fatalf("chrome events = %d, want %d (one per span)", len(chrome.TraceEvents), tw.Spans)
	}

	// Unknown jobs and bad subresources still 404.
	resp, _ = getBody(t, ts.URL+"/v1/jobs/job-99999999/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status = %d, want 404", resp.StatusCode)
	}
	resp, _ = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/bogus", ts.URL, jw.ID))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus subresource status = %d, want 404", resp.StatusCode)
	}
}

// TestSpanBudgetDropped forces a tiny per-job span budget and checks the
// loss is visible on both surfaces: the trace response's "dropped" field
// and the nadroid_pipeline_spans_dropped counter in /metrics.
func TestSpanBudgetDropped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SpanLimit: 3})

	resp, data := postJSON(t, ts.URL+"/v1/analyze?async=true", map[string]string{"app": "ConnectBot"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, data)
	}
	var jw JobWire
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for jw.State != StateDone {
		if jw.State == StateFailed || jw.State == StateCanceled {
			t.Fatalf("job ended %s: %s", jw.State, jw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s", jw.State)
		}
		time.Sleep(10 * time.Millisecond)
		_, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, jw.ID))
		if err := json.Unmarshal(data, &jw); err != nil {
			t.Fatal(err)
		}
	}

	_, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, jw.ID))
	var tw struct {
		Spans   int `json:"spans"`
		Dropped int `json:"dropped"`
	}
	if err := json.Unmarshal(data, &tw); err != nil {
		t.Fatalf("trace body not JSON: %v\n%s", err, data)
	}
	if tw.Spans != 3 || tw.Dropped == 0 {
		t.Errorf("trace = %+v, want exactly 3 spans kept and a nonzero dropped count", tw)
	}

	_, data = getBody(t, ts.URL+"/metrics")
	line := ""
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "nadroid_pipeline_spans_dropped ") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("nadroid_pipeline_spans_dropped missing from /metrics")
	}
	n, err := strconv.Atoi(strings.TrimPrefix(line, "nadroid_pipeline_spans_dropped "))
	if err != nil || n != tw.Dropped {
		t.Errorf("spans_dropped counter = %q, want %d (the trace's dropped count)", line, tw.Dropped)
	}
}

func spanNames(nodes []*obs.SpanNode) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Name)
	}
	return out
}

// TestHealthzBuildInfo checks the JSON health document carries the
// build/version facts.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status    string `json:"status"`
		Workers   int    `json:"workers"`
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
		KDefault  int    `json:"k_default"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, data)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Errorf("healthz = %+v, want status ok / workers 3", h)
	}
	if h.Version == "" || !strings.HasPrefix(h.GoVersion, "go") || h.KDefault != 2 {
		t.Errorf("build info = %+v, want version, goX.Y, k_default 2", h)
	}
}

// TestPprofGating: the profiler is mounted only when asked for.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, _ := getBody(t, off.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag status = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, data := getBody(t, on.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "goroutine") {
		t.Errorf("pprof index status = %d, want 200 with profile listing", resp.StatusCode)
	}
}

// TestValidationMetricsExposition runs a store-backed, validated
// analysis and asserts the validation counter families — schedule
// executions, prune counts, and witness-cache traffic — surface both in
// the /metrics exposition and in the per-job trace's counter snapshot.
func TestValidationMetricsExposition(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})

	resp, data := postJSON(t, ts.URL+"/v1/analyze?async=true", map[string]interface{}{
		"app":     "Aard", // deep enough searches for the pruner to collapse classes
		"options": map[string]interface{}{"validate": true, "max_schedules": 500},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, data)
	}
	var jw JobWire
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, jw.ID))
		if err := json.Unmarshal(data, &jw); err != nil {
			t.Fatal(err)
		}
		if jw.State == StateDone {
			break
		}
		if jw.State == StateFailed || jw.State == StateCanceled {
			t.Fatalf("job ended %s: %s", jw.State, jw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 60s", jw.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	families := []string{
		"nadroid_pipeline_validation_schedules_executed",
		"nadroid_pipeline_validation_schedules_pruned",
		"nadroid_pipeline_validation_witness_cache_hits",
		"nadroid_pipeline_validation_witness_cache_misses",
		"nadroid_pipeline_ircache_misses",
	}

	resp, expo := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(expo), "\n"), "\n") {
		m := expoLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		if m[2] == "" {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("non-numeric value in %q: %v", line, err)
			}
			vals[m[1]] = v
		}
	}
	for _, name := range families {
		if _, ok := vals[name]; !ok {
			t.Errorf("metric family %s missing from exposition", name)
		}
	}
	if vals["nadroid_pipeline_validation_schedules_executed"] <= 0 {
		t.Errorf("validation_schedules_executed = %v, want > 0",
			vals["nadroid_pipeline_validation_schedules_executed"])
	}
	if vals["nadroid_pipeline_validation_schedules_pruned"] <= 0 {
		t.Errorf("validation_schedules_pruned = %v, want > 0 (pruner not biting)",
			vals["nadroid_pipeline_validation_schedules_pruned"])
	}
	// First run against an empty store: every witness lookup missed.
	if vals["nadroid_pipeline_validation_witness_cache_misses"] <= 0 {
		t.Errorf("witness_cache_misses = %v, want > 0 on a cold store",
			vals["nadroid_pipeline_validation_witness_cache_misses"])
	}

	// The same counters ride on the finished job's trace response.
	resp, data = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, jw.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, data)
	}
	var tw struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &tw); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"validation_schedules_executed", "validation_schedules_pruned",
		"validation_witness_cache_misses",
	} {
		if tw.Counters[name] <= 0 {
			t.Errorf("per-job trace counter %s = %d, want > 0", name, tw.Counters[name])
		}
	}
}
