package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWitnessRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := WitnessKey("digestA", "fp1", "k=2;max_schedules=3000", []string{"uaf"})
	e := &WitnessEntry{
		IRDigest:    "digestA",
		Fingerprint: "fp1",
		Harmful:     true,
		Schedule:    []int{0, 2, 1},
		Executions:  7,
		NPE:         []byte(`{"field":"App/Act.f"}`),
		CreatedAt:   time.Now().UTC().Truncate(time.Second),
	}
	if err := s.PutWitness(key, e); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetWitness(key, "digestA", "fp1")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("witness entry missing after Put")
	}
	if !got.Harmful || got.Executions != 7 || len(got.Schedule) != 3 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	var npe struct {
		Field string `json:"field"`
	}
	if err := json.Unmarshal(got.NPE, &npe); err != nil || npe.Field != "App/Act.f" {
		t.Errorf("NPE payload mismatch: %s (err %v)", got.NPE, err)
	}

	// An absent key is a silent miss, not an error.
	if e, err := s.GetWitness(WitnessKey("other", "fp", "opts", nil), "other", "fp"); e != nil || err != nil {
		t.Errorf("absent key: entry=%v err=%v, want nil/nil", e, err)
	}
}

func TestWitnessCorruptEntryIsError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := WitnessKey("digestA", "fp1", "opts", nil)
	if err := os.WriteFile(filepath.Join(dir, "witness", key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := s.GetWitness(key, "digestA", "fp1")
	if e != nil || err == nil {
		t.Fatalf("corrupt entry: entry=%v err=%v, want nil entry + error", e, err)
	}
	if s.Counters().LoadErrors != 1 {
		t.Errorf("LoadErrors = %d, want 1", s.Counters().LoadErrors)
	}
	// An entry missing its digest is corrupt too (GC could never map it
	// to a run).
	key2 := WitnessKey("digestA", "fp2", "opts", nil)
	if err := os.WriteFile(filepath.Join(dir, "witness", key2+".json"), []byte(`{"harmful":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := s.GetWitness(key2, "digestA", "fp2"); e != nil || err == nil {
		t.Fatalf("digestless entry: entry=%v err=%v, want nil entry + error", e, err)
	}
	// An entry stored for another program or another warning (a copied
	// or hand-edited file) must not answer for this one.
	for _, foreign := range []*WitnessEntry{
		{IRDigest: "digestB", Fingerprint: "fp3", Harmful: true},
		{IRDigest: "digestA", Fingerprint: "fp4", Harmful: true},
	} {
		key3 := WitnessKey("digestA", "fp3", "opts", nil)
		if err := s.PutWitness(key3, foreign); err != nil {
			t.Fatal(err)
		}
		if e, err := s.GetWitness(key3, "digestA", "fp3"); e != nil || err == nil {
			t.Errorf("entry for %s/%s: entry=%v err=%v, want nil entry + error",
				foreign.IRDigest, foreign.Fingerprint, e, err)
		}
	}
	if s.Counters().LoadErrors != 4 {
		t.Errorf("LoadErrors = %d, want 4", s.Counters().LoadErrors)
	}
}

// TestWitnessKeyInvalidation locks the invalidation mechanism: any
// change to the program, warning, options, or detector set must land on
// a distinct key, so stale outcomes are never looked up.
func TestWitnessKeyInvalidation(t *testing.T) {
	base := WitnessKey("digestA", "fp1", "k=2;max_schedules=3000", []string{"uaf"})
	variants := map[string]string{
		"digest":    WitnessKey("digestB", "fp1", "k=2;max_schedules=3000", []string{"uaf"}),
		"warning":   WitnessKey("digestA", "fp2", "k=2;max_schedules=3000", []string{"uaf"}),
		"options":   WitnessKey("digestA", "fp1", "k=2;max_schedules=500", []string{"uaf"}),
		"detectors": WitnessKey("digestA", "fp1", "k=2;max_schedules=3000", []string{"uaf", "nosleep"}),
	}
	seen := map[string]string{base: "base"}
	for dim, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s collides with %s", dim, prev)
		}
		seen[key] = dim
	}
	// Key material with separator-like content must not collapse: the
	// derivation is length-delimited, not string-concatenated.
	if WitnessKey("a", "b,c", "d", nil) == WitnessKey("a", "b", "c,d", nil) {
		t.Error("witness key is concatenation-ambiguous")
	}
}

func TestPutWitnessRejectsUnsafeKeys(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := &WitnessEntry{IRDigest: "d", Fingerprint: "f"}
	for _, key := range []string{"", "../escape", "a/b", strings.Repeat("x", 201)} {
		if err := s.PutWitness(key, e); err == nil {
			t.Errorf("PutWitness(%q) accepted an unsafe key", key)
		}
	}
	if err := s.PutWitness("ok-key", &WitnessEntry{Fingerprint: "f"}); err == nil {
		t.Error("PutWitness accepted an entry without IRDigest")
	}
}

func TestIRCacheRoundTripAndNames(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte{'N', 'I', 'R', 'C', 1, 2, 3}
	if err := s.PutIRCache("digestA-v1-k2.bin", blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetIRCache("digestA-v1-k2.bin")
	if !ok || string(got) != string(blob) {
		t.Fatalf("roundtrip: ok=%v blob=%v", ok, got)
	}
	if _, ok := s.GetIRCache("digestA-v1-k3.bin"); ok {
		t.Error("different K hit the same entry")
	}
	for _, name := range []string{"../x.bin", "noext", "a/b.bin"} {
		if err := s.PutIRCache(name, blob); err == nil {
			t.Errorf("PutIRCache(%q) accepted an unsafe name", name)
		}
	}
}

// TestGCCollectsOrphanedCaches exercises the cache half of GC: entries
// whose digest no surviving run carries are removed; entries backing a
// surviving run — including one that survives only through a baseline
// reference — are kept.
func TestGCCollectsOrphanedCaches(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxRunsPerApp: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()

	newer := testRun("App", "run-newer", now, "aa")
	newer.IRDigest = "digestnew"
	older := testRun("App", "run-older", now.Add(-time.Hour), "bb")
	older.IRDigest = "digestold"
	for _, r := range []*Run{newer, older} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// The baseline pins the older run, which MaxRunsPerApp=1 would
	// otherwise collect — and with it, its cache entries.
	if err := s.PutBaseline(&Baseline{App: "App", RunID: "run-older", CreatedAt: now}); err != nil {
		t.Fatal(err)
	}

	put := func(digest string) {
		t.Helper()
		if err := s.PutIRCache(digest+"-v1-k2.bin", []byte("blob")); err != nil {
			t.Fatal(err)
		}
		key := WitnessKey(digest, "fp", "opts", nil)
		if err := s.PutWitness(key, &WitnessEntry{IRDigest: digest, Fingerprint: "fp"}); err != nil {
			t.Fatal(err)
		}
	}
	put("digestnew")
	put("digestold")
	put("digestorphan") // no run carries this digest
	// A syntactically broken witness entry is an orphan by definition.
	if err := os.WriteFile(filepath.Join(dir, "witness", "deadbeef.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed := s.GC(now)
	// Orphan ircache blob + orphan witness + corrupt witness = 3; both
	// runs survive (newest by count, older by baseline), so removed
	// counts no run.
	if removed != 3 {
		t.Errorf("GC removed %d records, want 3", removed)
	}
	for _, digest := range []string{"digestnew", "digestold"} {
		if _, ok := s.GetIRCache(digest + "-v1-k2.bin"); !ok {
			t.Errorf("GC collected live ircache entry for %s", digest)
		}
		if e, err := s.GetWitness(WitnessKey(digest, "fp", "opts", nil), digest, "fp"); e == nil || err != nil {
			t.Errorf("GC collected live witness entry for %s", digest)
		}
	}
	if _, ok := s.GetIRCache("digestorphan-v1-k2.bin"); ok {
		t.Error("orphaned ircache entry survived GC")
	}
	if e, _ := s.GetWitness(WitnessKey("digestorphan", "fp", "opts", nil), "digestorphan", "fp"); e != nil {
		t.Error("orphaned witness entry survived GC")
	}
	if _, ok := s.Get("run-older"); !ok {
		t.Error("baseline-referenced run was collected")
	}
}
