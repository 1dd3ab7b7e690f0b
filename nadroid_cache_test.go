package nadroid_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/explore"
	"nadroid/internal/obs"
	"nadroid/internal/store"
)

// The derived caches (IR cold-start blobs, witness outcomes) must be
// behavior-transparent: a warm run returns the same Result as a cold
// run, any key ingredient changing must miss, and corruption must fall
// back to the cold path. These tests drive the public AnalyzeSource
// entry against a real corpus app.

func cacheTestOptions(st *store.Store) nadroid.Options {
	return nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 3000},
		Store:    st,
		IRCache:  true,
	}
}

// resultSummary reduces a Result to the comparable facts: pipeline
// stats, report size, and the confirmed-harmful set.
func resultSummary(res *nadroid.Result) string {
	harm := make([]string, 0, len(res.Harmful))
	for _, w := range res.Harmful {
		harm = append(harm, fmt.Sprintf("%s|%s|%s", w.Field, w.Use, w.Free))
	}
	sort.Strings(harm)
	return fmt.Sprintf("pot=%d sound=%d unsound=%d entries=%d harmful=%v",
		res.Stats.Potential, res.Stats.AfterSound, res.Stats.AfterUnsound,
		len(res.Report.Entries), harm)
}

func TestIRCacheWarmStart(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("ConnectBot missing from corpus")
	}
	src := dexasm.Format(app.Build())
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cold := obs.NewMetrics()
	coldRes, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), cold), src, cacheTestOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Get("ircache_misses") != 1 || cold.Get("ircache_hits") != 0 {
		t.Fatalf("cold run: ircache hits=%d misses=%d, want 0/1",
			cold.Get("ircache_hits"), cold.Get("ircache_misses"))
	}
	coldWitnessMisses := cold.Get("validation_witness_cache_misses")
	if coldWitnessMisses == 0 || cold.Get("validation_witness_cache_hits") != 0 {
		t.Fatalf("cold run: witness hits=%d misses=%d, want 0/>0",
			cold.Get("validation_witness_cache_hits"), coldWitnessMisses)
	}

	warm := obs.NewMetrics()
	warmRes, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), warm), src, cacheTestOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Get("ircache_hits") != 1 || warm.Get("ircache_misses") != 0 {
		t.Fatalf("warm run: ircache hits=%d misses=%d, want 1/0",
			warm.Get("ircache_hits"), warm.Get("ircache_misses"))
	}
	if warm.Get("validation_witness_cache_hits") != coldWitnessMisses ||
		warm.Get("validation_witness_cache_misses") != 0 {
		t.Fatalf("warm run: witness hits=%d misses=%d, want %d/0",
			warm.Get("validation_witness_cache_hits"),
			warm.Get("validation_witness_cache_misses"), coldWitnessMisses)
	}
	// A warm run performs no schedule exploration at all.
	if n := warm.Get("validation_schedules_executed"); n != 0 {
		t.Errorf("warm run executed %d schedules, want 0", n)
	}
	if got, want := resultSummary(warmRes), resultSummary(coldRes); got != want {
		t.Errorf("warm result differs from cold:\nwarm: %s\ncold: %s", got, want)
	}
	// The modeling phase was skipped outright.
	if warmRes.Timing.Modeling > coldRes.Timing.Modeling {
		t.Errorf("warm modeling %v exceeds cold %v", warmRes.Timing.Modeling, coldRes.Timing.Modeling)
	}
}

// TestWitnessCacheInvalidation drives each ingredient of the witness
// key: changed validation options and changed detector sets must miss
// (and re-explore), while an identical re-run hits everything.
func TestWitnessCacheInvalidation(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	src := dexasm.Format(app.Build())
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	base := cacheTestOptions(st)
	run := func(opts nadroid.Options) (*obs.Metrics, *nadroid.Result) {
		t.Helper()
		m := obs.NewMetrics()
		res, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), m), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}

	_, coldRes := run(base)

	// Identical options: pure hits.
	m, res := run(base)
	if m.Get("validation_witness_cache_misses") != 0 || m.Get("validation_witness_cache_hits") == 0 {
		t.Errorf("identical re-run: hits=%d misses=%d, want all hits",
			m.Get("validation_witness_cache_hits"), m.Get("validation_witness_cache_misses"))
	}
	if resultSummary(res) != resultSummary(coldRes) {
		t.Errorf("identical re-run result differs from cold")
	}

	// A changed schedule budget is a different validation, so every
	// lookup must miss and the sweep must actually run.
	budget := base
	budget.Explore = explore.Options{MaxSchedules: 500}
	m, _ = run(budget)
	if m.Get("validation_witness_cache_hits") != 0 || m.Get("validation_witness_cache_misses") == 0 {
		t.Errorf("changed budget: hits=%d misses=%d, want all misses",
			m.Get("validation_witness_cache_hits"), m.Get("validation_witness_cache_misses"))
	}
	if m.Get("validation_schedules_executed") == 0 {
		t.Error("changed budget: no schedules executed despite cache misses")
	}

	// A narrowed detector set keys differently even though the uaf
	// warnings themselves are unchanged.
	det := base
	det.Detectors = []string{"uaf"}
	m, _ = run(det)
	if m.Get("validation_witness_cache_hits") != 0 || m.Get("validation_witness_cache_misses") == 0 {
		t.Errorf("changed detectors: hits=%d misses=%d, want all misses",
			m.Get("validation_witness_cache_hits"), m.Get("validation_witness_cache_misses"))
	}

	// A different program (digest) shares nothing.
	other, _ := corpus.ByName("Aard")
	m = obs.NewMetrics()
	if _, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), m),
		dexasm.Format(other.Build()), base); err != nil {
		t.Fatal(err)
	}
	if m.Get("validation_witness_cache_hits") != 0 {
		t.Errorf("different program hit %d witness entries", m.Get("validation_witness_cache_hits"))
	}
}

// TestWitnessCacheCorruptEntry corrupts one cached outcome: the warm
// run must log a skip, re-explore just that warning, and still match
// the cold result.
func TestWitnessCacheCorruptEntry(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	src := dexasm.Format(app.Build())
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := cacheTestOptions(st)

	cold := obs.NewMetrics()
	coldRes, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), cold), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := cold.Get("validation_witness_cache_misses")
	if total < 2 {
		t.Fatalf("need at least 2 cached outcomes to corrupt one, got %d", total)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "witness", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no witness entries on disk (err %v)", err)
	}
	sort.Strings(entries)
	if err := os.WriteFile(entries[0], []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	warm := obs.NewMetrics()
	warmRes, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), warm), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Get("validation_witness_cache_hits") != total-1 || warm.Get("validation_witness_cache_misses") != 1 {
		t.Errorf("after corruption: hits=%d misses=%d, want %d/1",
			warm.Get("validation_witness_cache_hits"),
			warm.Get("validation_witness_cache_misses"), total-1)
	}
	if resultSummary(warmRes) != resultSummary(coldRes) {
		t.Errorf("result after corrupt-entry fallback differs from cold")
	}
	// The cold fallback rewrote the entry.
	data, err := os.ReadFile(entries[0])
	if err != nil || !strings.Contains(string(data), "ir_digest") {
		t.Errorf("corrupt entry was not rewritten: %v", err)
	}
}

// TestWitnessCacheForeignEntry plants, under one warning's key, the
// entry of another warning with the opposite verdict, as a copied or
// hand-edited file would. The entry must not answer: the run logs a
// skip, counts a load error, re-explores that warning, rewrites the
// entry, and matches a run without a store.
func TestWitnessCacheForeignEntry(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	src := dexasm.Format(app.Build())
	storeless, err := nadroid.AnalyzeSource(context.Background(), src, nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(storeless.Harmful) == 0 {
		t.Fatal("ConnectBot validates no harmful warning; the planted verdict would not show")
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := cacheTestOptions(st)
	if _, err := nadroid.AnalyzeSource(context.Background(), src, opts); err != nil {
		t.Fatal(err)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "witness", "*.json"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("need at least 2 witness entries, got %d (err %v)", len(paths), err)
	}
	sort.Strings(paths)
	read := func(path string) store.WitnessEntry {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var e store.WitnessEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := read(paths[0]), read(paths[1])
	if !a.Harmful || a.Fingerprint == b.Fingerprint {
		t.Fatalf("want a harmful entry and a second warning, got %+v and %+v", a, b)
	}
	planted := b
	planted.Harmful = false
	planted.Schedule, planted.Executions, planted.NPE = nil, 0, nil
	data, err := json.Marshal(planted)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.NewMetrics()
	res, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), m), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultSummary(res), resultSummary(storeless); got != want {
		t.Errorf("run over the planted entry differs from a storeless run:\n got %s\nwant %s", got, want)
	}
	if m.Get("validation_witness_cache_misses") != 1 {
		t.Errorf("planted entry: misses = %d, want 1", m.Get("validation_witness_cache_misses"))
	}
	if c := st.Counters(); c.LoadErrors != 1 {
		t.Errorf("LoadErrors = %d, want 1", c.LoadErrors)
	}
	if got := read(paths[0]); got.Fingerprint != a.Fingerprint || got.Harmful != a.Harmful {
		t.Errorf("planted entry not overwritten: %+v", got)
	}
}

// TestIRCacheCorruptBlob corrupts the cold-start blob: the next run
// must treat it as a miss, remodel from source, and repair the entry.
func TestIRCacheCorruptBlob(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	src := dexasm.Format(app.Build())
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := cacheTestOptions(st)
	coldRes, err := nadroid.AnalyzeSource(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}

	blobs, err := filepath.Glob(filepath.Join(dir, "ircache", "*.bin"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("want exactly 1 ircache blob, got %v (err %v)", blobs, err)
	}
	if err := os.WriteFile(blobs[0], []byte("NIRCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.NewMetrics()
	res, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), m), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("ircache_hits") != 0 || m.Get("ircache_misses") != 1 {
		t.Errorf("corrupt blob: hits=%d misses=%d, want 0/1",
			m.Get("ircache_hits"), m.Get("ircache_misses"))
	}
	if resultSummary(res) != resultSummary(coldRes) {
		t.Errorf("result after corrupt-blob fallback differs from cold")
	}
	// The cold run wrote a fresh blob; the next run hits again.
	m2 := obs.NewMetrics()
	if _, err := nadroid.AnalyzeSource(obs.WithMetrics(context.Background(), m2), src, opts); err != nil {
		t.Fatal(err)
	}
	if m2.Get("ircache_hits") != 1 {
		t.Errorf("blob not repaired: hits=%d", m2.Get("ircache_hits"))
	}
}
