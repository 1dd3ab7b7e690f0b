package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testConfig measures no longer than the minimum (window 0), with a
// single set-up, on a subset of the corpus.
func testConfig(t *testing.T, apps ...string) *config {
	t.Helper()
	g, err := loadGoldens("../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	return &config{seed: 1, setupReps: 1, only: apps, goldens: g}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metric tables in step, and checks every layer metric names the
// end-to-end metric and workload it should move.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wls, allWorkloads)
	}
	type decl struct{ unit, better string }
	declared := func(ds []metricDecl) map[string]decl {
		m := make(map[string]decl)
		for _, d := range ds {
			m[d.name] = decl{d.unit, d.better}
		}
		return m
	}
	e2e := make(map[string]decl)
	for _, m := range b.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := make(map[string]decl)
	for _, m := range b.PerLayer {
		layer[m.Name] = decl{m.Unit, m.Better}
	}
	if !reflect.DeepEqual(e2e, declared(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program declares %v", e2e, declared(endToEnd))
	}
	if !reflect.DeepEqual(layer, declared(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json %v, program declares %v", layer, declared(perLayer))
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d layer metrics; at most 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := make(map[string]bool)
	for _, name := range append(append(wls, keys(e2e)...), keys(layer)...) {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		if len(d.moves) == 0 {
			t.Errorf("%s names no end-to-end metric it should move", d.name)
		}
		for _, mv := range d.moves {
			if _, ok := e2e[mv.metric]; !ok || !contains(wls, mv.workload) {
				t.Errorf("%s should move %s on %s: no such metric or workload", d.name, mv.metric, mv.workload)
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestSmokeEveryWorkload runs every workload on two apps, untraced (for
// the 200 ops op_p95_ms needs) and traced (one sweep of each kind), and
// checks the emitted metric names.
func TestSmokeEveryWorkload(t *testing.T) {
	var e2e, layer []string
	for _, d := range endToEnd {
		e2e = append(e2e, d.name)
	}
	for _, d := range perLayer {
		layer = append(layer, d.name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, trace := range []bool{false, true} {
		for _, name := range allWorkloads {
			w, _ := workloadByName(name)
			c := testConfig(t, "ConnectBot", "Aard")
			c.trace = trace
			out, err := c.run(w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.Failed != 0 || out.Ops == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, out.Failed, out.Ops, out.Failures)
			}
			want := e2e
			if trace {
				want = layer
			}
			if got := keys(out.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, want %v", name, trace, got, want)
			}
			for n, r := range out.Metrics {
				if r.Unit != unitOf(n) {
					t.Errorf("%s: %s reported in %q", name, n, r.Unit)
				}
			}
		}
	}
}

// TestTamperedExpectationCountsAsFailure checks that a wrong reference
// is counted against the op, and the run carries on.
func TestTamperedExpectationCountsAsFailure(t *testing.T) {
	c := testConfig(t, "ConnectBot", "Aard")
	g := c.goldens["ConnectBot"]
	g.report += "tampered\n"
	c.goldens["ConnectBot"] = g
	w, _ := workloadByName(wCold)
	out, err := c.run(w)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ops == 0 || out.Failed != out.Ops/2 {
		t.Fatalf("ops %d failed %d, want every ConnectBot op, half (%v)", out.Ops, out.Failed, out.Failures)
	}
	if !strings.HasPrefix(out.Failures[0], "ConnectBot: ") {
		t.Errorf("failure %q not attributed to ConnectBot", out.Failures[0])
	}
	if summary(out).Correct {
		t.Error("summary reports correct despite a failed op")
	}
}

// TestSeedPicksOrderAndEdits checks two seeds give different sweep
// orders and edited methods, and both pass every reference check.
func TestSeedPicksOrderAndEdits(t *testing.T) {
	w, _ := workloadByName(wEdit)
	var outs []*outcome
	for _, seed := range []int64{1, 2} {
		c := testConfig(t, validateApps...)
		c.seed = seed
		out, err := c.run(w)
		if err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 {
			t.Errorf("seed %d: %d of %d ops failed: %v", seed, out.Failed, out.Ops, out.Failures)
		}
		if len(out.Edits) != len(validateApps) {
			t.Errorf("seed %d: edits %v", seed, out.Edits)
		}
		outs = append(outs, out)
	}
	if reflect.DeepEqual(outs[0].FirstOrder, outs[1].FirstOrder) {
		t.Errorf("seeds 1 and 2 give the same order %v", outs[0].FirstOrder)
	}
	if reflect.DeepEqual(outs[0].Edits, outs[1].Edits) {
		t.Errorf("seeds 1 and 2 edit the same methods %v", outs[0].Edits)
	}
}
