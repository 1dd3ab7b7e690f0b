package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRun(app, id string, created time.Time, fps ...string) *Run {
	r := &Run{ID: id, App: app, CreatedAt: created, Options: "k=2"}
	for _, fp := range fps {
		r.Warnings = append(r.Warnings, Warning{
			Fingerprint: fp, Field: app + "/Act.f", Use: "u:1", Free: "f:2", Category: "EC-PC",
		})
	}
	r.Stats = Stats{Potential: len(fps), AfterSound: len(fps), AfterUnsound: len(fps)}
	return r
}

func TestPutGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC().Truncate(time.Second)
	r := testRun("App", "run-1", now, "aa11", "bb22")
	r.Payload = []byte(`{"app":"App"}`)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Get(r.ID)
	if !ok {
		t.Fatal("run missing after Put")
	}
	if got.App != "App" || len(got.Warnings) != 2 || !got.CreatedAt.Equal(now) {
		t.Errorf("roundtrip mismatch: %+v", got)
	}

	// A second handle on the same directory sees the run from disk.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := s2.Get(r.ID)
	if !ok {
		t.Fatal("second handle: run missing")
	}
	var payload struct {
		App string `json:"app"`
	}
	if err := json.Unmarshal(got2.Payload, &payload); err != nil || payload.App != "App" {
		t.Fatalf("second handle payload = %s (err %v)", got2.Payload, err)
	}
	if c := s2.Counters(); c.Hits != 1 || c.Misses != 0 {
		t.Errorf("counters = %+v, want 1 hit", c)
	}
	if _, ok := s2.Get("0000"); ok {
		t.Error("unknown id must miss")
	}
	if c := s2.Counters(); c.Misses != 1 {
		t.Errorf("counters = %+v, want 1 miss", c)
	}
}

// TestCorruptEntriesSkipped: truncated or garbage entries are skipped
// with a logged warning and counted; valid entries still load; nothing
// crashes.
func TestCorruptEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := testRun("App", "a1b2", time.Now(), "aa11")
	if err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	// A truncated write (as if the process died mid-write without the
	// atomic rename), pure garbage, and a record missing its app.
	for name, content := range map[string]string{
		"truncated.json": `{"id": "truncated", "app": "App", "warni`,
		"garbage.json":   "\x00\x01not json at all",
		"noapp.json":     `{"id": "noapp"}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, "runs", name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	logged := slog.New(slog.NewTextHandler(&buf, nil))
	s2, err := Open(dir, Options{Logger: logged})
	if err != nil {
		t.Fatalf("Open over corrupt entries must not fail: %v", err)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only the valid run)", s2.Len())
	}
	if _, ok := s2.Get("a1b2"); !ok {
		t.Error("valid run lost among corrupt neighbors")
	}
	if c := s2.Counters(); c.LoadErrors != 3 {
		t.Errorf("LoadErrors = %d, want 3", c.LoadErrors)
	}
	if !strings.Contains(buf.String(), "skipping corrupt run entry") {
		t.Errorf("corrupt skip not logged:\n%s", buf.String())
	}

	// Rescans must not double-count the same bad files.
	s2.Runs("App")
	if c := s2.Counters(); c.LoadErrors != 3 {
		t.Errorf("LoadErrors after rescan = %d, want 3 (no re-count)", c.LoadErrors)
	}
}

// TestConcurrentWriters: many goroutines over two independent handles
// on one directory — the shape of two corpus sweeps persisting results
// concurrently. Run under -race via `make check`.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 20
	var wg sync.WaitGroup
	for h, s := range []*Store{s1, s2} {
		for i := 0; i < perHandle; i++ {
			wg.Add(1)
			go func(s *Store, h, i int) {
				defer wg.Done()
				r := testRun(fmt.Sprintf("App%d", i%4), fmt.Sprintf("h%d-run%02d", h, i), time.Now(), "aa11")
				if err := s.Put(r); err != nil {
					t.Errorf("Put: %v", err)
				}
				s.Get(r.ID)
				s.Runs(r.App)
			}(s, h, i)
		}
	}
	wg.Wait()

	fresh, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2*perHandle {
		t.Errorf("after concurrent writes: %d runs, want %d", fresh.Len(), 2*perHandle)
	}
	if got := len(fresh.Apps()); got != 4 {
		t.Errorf("apps = %d, want 4", got)
	}
}

func TestRunsOrderedNewestFirst(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if err := s.Put(testRun("App", fmt.Sprintf("r%d", i), base.Add(time.Duration(i)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Runs("App")
	if len(runs) != 3 || runs[0].ID != "r2" || runs[2].ID != "r0" {
		ids := make([]string, len(runs))
		for i, r := range runs {
			ids[i] = r.ID
		}
		t.Errorf("order = %v, want [r2 r1 r0]", ids)
	}
	if runs := s.Runs("Other"); len(runs) != 0 {
		t.Errorf("unknown app has %d runs", len(runs))
	}
}

// TestGC covers the count bound, the age bound, and the invariant that
// a baseline's reference run is never collected.
func TestGC(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	t.Run("count bound keeps newest", func(t *testing.T) {
		s, _ := Open(t.TempDir(), Options{MaxRunsPerApp: 2})
		for i := 0; i < 5; i++ {
			s.Put(testRun("App", fmt.Sprintf("r%d", i), now.Add(time.Duration(i)*time.Minute)))
		}
		if removed := s.GC(now.Add(time.Hour)); removed != 3 {
			t.Errorf("removed = %d, want 3", removed)
		}
		runs := s.Runs("App")
		if len(runs) != 2 || runs[0].ID != "r4" || runs[1].ID != "r3" {
			t.Errorf("survivors wrong: %+v", runs)
		}
		if c := s.Counters(); c.GCRemoved != 3 {
			t.Errorf("GCRemoved = %d, want 3", c.GCRemoved)
		}
	})
	t.Run("age bound", func(t *testing.T) {
		s, _ := Open(t.TempDir(), Options{MaxAge: 24 * time.Hour})
		s.Put(testRun("App", "old", now.Add(-48*time.Hour)))
		s.Put(testRun("App", "fresh", now.Add(-time.Hour)))
		if removed := s.GC(now); removed != 1 {
			t.Errorf("removed = %d, want 1", removed)
		}
		if _, ok := s.Get("fresh"); !ok {
			t.Error("fresh run collected")
		}
		if _, ok := s.Get("old"); ok {
			t.Error("expired run survived")
		}
	})
	t.Run("baseline reference is never collected", func(t *testing.T) {
		s, _ := Open(t.TempDir(), Options{MaxRunsPerApp: 1, MaxAge: time.Hour})
		reviewed := testRun("App", "reviewed", now.Add(-72*time.Hour), "aa11")
		s.Put(reviewed)
		s.Put(testRun("App", "latest", now))
		if err := s.PutBaseline(BaselineFromRun(reviewed, "reviewed 2026-08", now)); err != nil {
			t.Fatal(err)
		}
		s.GC(now)
		if _, ok := s.Get("reviewed"); !ok {
			t.Fatal("GC deleted a run referenced by a baseline")
		}
		if _, ok := s.Get("latest"); !ok {
			t.Fatal("GC deleted the newest run")
		}
		// Disk agrees with the index after GC.
		fresh, _ := Open(s.Dir(), Options{})
		if fresh.Len() != 2 {
			t.Errorf("on disk: %d runs, want 2", fresh.Len())
		}
	})
}

func TestBaselineRoundtripAndSafeNames(t *testing.T) {
	s, _ := Open(t.TempDir(), Options{})
	now := time.Now().UTC().Truncate(time.Second)
	for i, app := range []string{"Plain", "weird/name with spaces", "../escape"} {
		r := testRun(app, fmt.Sprintf("run-%d", i), now, "aa11", "bb22")
		b := BaselineFromRun(r, "benign", now)
		if err := s.PutBaseline(b); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		got, ok := s.Baseline(app)
		if !ok || got.App != app || len(got.Entries) != 2 || got.RunID != r.ID {
			t.Fatalf("%s: baseline roundtrip = %+v ok=%v", app, got, ok)
		}
		if !got.Has("aa11") || got.Has("cc33") {
			t.Errorf("%s: Has misbehaves", app)
		}
		if got.Entries[0].Note != "benign" {
			t.Errorf("%s: note lost", app)
		}
	}
	if n := len(s.Baselines()); n != 3 {
		t.Errorf("Baselines() = %d, want 3", n)
	}
	// Baseline files must stay inside the store directory.
	ents, err := os.ReadDir(filepath.Join(s.Dir(), "baselines"))
	if err != nil || len(ents) != 3 {
		t.Fatalf("baseline dir: %v entries, err=%v", len(ents), err)
	}
}

func TestBaselineStandaloneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nadroid-baseline.json")
	b := &Baseline{App: "App", RunID: "r1", CreatedAt: time.Now(),
		Entries: []BaselineEntry{{Fingerprint: "aa11", Note: "ok"}}}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaselineFile(path)
	if err != nil || got.App != "App" || !got.Has("aa11") {
		t.Fatalf("roundtrip: %+v, %v", got, err)
	}
	if _, err := ReadBaselineFile(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing file error = %v, want IsNotExist", err)
	}
}
