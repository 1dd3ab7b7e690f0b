// Package store persists analysis results on disk so warnings have a
// history: a content-addressed store of runs (keyed by the app's
// canonical IR digest plus the normalized analyzer options), an index
// of runs per app, baseline files carrying reviewed-warning
// fingerprints, and a differential engine that classifies warnings
// between two runs as new, fixed, or persisting.
//
// Durability model: every record is one JSON file written atomically
// (temp file + rename in the same directory), so a crash never leaves a
// half-written entry visible. Loads are corruption-tolerant — an entry
// that fails to parse is skipped with a logged warning and counted, not
// fatal — so one bad file cannot take down the service. Multiple
// processes may share a directory: writers never modify files in place,
// and readers rescan the directory on demand, so a CLI writing runs
// while nadroid-serve is live is safe.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stats is the filter-pipeline summary persisted with a run.
type Stats struct {
	Potential    int `json:"potential"`
	AfterSound   int `json:"after_sound"`
	AfterUnsound int `json:"after_unsound"`
}

// Warning is one surviving warning as stored: the stable fingerprint
// plus the human-facing review aids.
type Warning struct {
	Fingerprint string `json:"fingerprint"`
	// Detector names the bug family ("" = uaf, the classic family).
	Detector    string `json:"detector,omitempty"`
	Field       string `json:"field"`
	Use         string `json:"use"`
	Free        string `json:"free"`
	Category    string `json:"category"`
	UseLineage  string `json:"use_lineage,omitempty"`
	FreeLineage string `json:"free_lineage,omitempty"`
}

// Run is one persisted analysis. ID is the content address — the
// SHA-256 of the app's canonical dexasm text and the normalized option
// set — so re-analyzing identical input lands on the same record.
type Run struct {
	ID        string    `json:"id"`
	App       string    `json:"app"`
	Options   string    `json:"options,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// IRDigest is the content digest of the app's canonical program text
	// (store.IRDigest). It links the run to its witness-cache and
	// IR-cache entries: GC keeps a cache entry alive only while some run
	// still carries its digest.
	IRDigest string `json:"ir_digest,omitempty"`
	// Detectors is the enabled detector set that produced the run.
	// Runs persisted before detector selection existed have none; the
	// differ only refuses when both sides carry metadata and disagree.
	Detectors []string  `json:"detectors,omitempty"`
	Stats     Stats     `json:"stats"`
	Warnings  []Warning `json:"warnings"`
	// Payload carries the caller's full wire-format result verbatim, so
	// a restarted service can serve it as a cache hit without
	// re-analyzing.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Evidence maps warning fingerprints to their provenance records
	// (wire-format JSON, stored verbatim). Present only for runs
	// analyzed with provenance on; the explain surfaces read it.
	Evidence map[string]json.RawMessage `json:"evidence,omitempty"`
}

// Options tunes a store.
type Options struct {
	// MaxRunsPerApp bounds how many runs GC keeps per app, newest
	// first (0 = unlimited).
	MaxRunsPerApp int
	// MaxAge expires runs older than this at GC time (0 = never).
	MaxAge time.Duration
	// Logger receives skip warnings for corrupt entries and GC
	// activity. Nil means silent.
	Logger *slog.Logger
}

// Counters is a point-in-time read of the store's lifetime counters,
// exported as the nadroid_store_* metric families.
type Counters struct {
	Hits       uint64 // Get found a run
	Misses     uint64 // Get found nothing
	Puts       uint64 // runs written
	GCRemoved  uint64 // runs deleted by GC
	LoadErrors uint64 // corrupt/truncated entries skipped on load
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use; independent handles on the same directory are safe
// because writes are atomic renames.
type Store struct {
	dir  string
	opts Options
	log  *slog.Logger

	mu   sync.Mutex
	runs map[string]*Run // id -> run
	bad  map[string]bool // filenames already reported as corrupt
	c    Counters
}

// Open creates (if needed) and loads a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, log: opts.Logger, runs: make(map[string]*Run), bad: make(map[string]bool)}
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	for _, sub := range []string{s.runDir(), s.baselineDir(), s.witnessDir(), s.ircacheDir(), s.incrDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) runDir() string      { return filepath.Join(s.dir, "runs") }
func (s *Store) baselineDir() string { return filepath.Join(s.dir, "baselines") }

// refreshLocked scans the runs directory and loads entries this handle
// has not seen yet, tolerating corrupt files. Callers hold s.mu.
func (s *Store) refreshLocked() {
	entries, err := os.ReadDir(s.runDir())
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if _, ok := s.runs[id]; ok || s.bad[name] {
			continue
		}
		r, err := readRunFile(filepath.Join(s.runDir(), name))
		if err != nil {
			s.bad[name] = true
			s.c.LoadErrors++
			s.log.Warn("store: skipping corrupt run entry", "file", name, "error", err)
			continue
		}
		if r.ID != id {
			// A renamed or hand-edited file; trust the filename as the
			// address but keep the record's claim visible in logs.
			s.log.Warn("store: run id mismatch, using filename", "file", name, "record_id", r.ID)
			r.ID = id
		}
		s.runs[id] = r
	}
}

func readRunFile(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.App == "" {
		return nil, errors.New("missing app name")
	}
	return &r, nil
}

// Put writes a run atomically and indexes it. Re-putting an existing ID
// refreshes the record (same content address ⇒ same result, so this is
// a timestamp/payload refresh, not a semantic change).
func (s *Store) Put(r *Run) error {
	if r.ID == "" || r.App == "" {
		return errors.New("store: run needs ID and App")
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(s.runDir(), r.ID+".json")
	if err := atomicWrite(path, append(data, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	cp := *r
	s.mu.Lock()
	s.runs[r.ID] = &cp
	s.c.Puts++
	s.mu.Unlock()
	return nil
}

// Get returns a run by content address. A miss rescans the directory
// once, so runs written by another process are visible.
func (s *Store) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		s.refreshLocked()
		r, ok = s.runs[id]
	}
	if ok {
		s.c.Hits++
	} else {
		s.c.Misses++
	}
	return r, ok
}

// Runs lists an app's runs, newest first (ties broken by ID for
// stability). It rescans the directory, so cross-process writes show
// up.
func (s *Store) Runs(app string) []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	var out []*Run
	for _, r := range s.runs {
		if r.App == app {
			out = append(out, r)
		}
	}
	sortRuns(out)
	return out
}

// All lists every run, newest first.
func (s *Store) All() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	out := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r)
	}
	sortRuns(out)
	return out
}

func sortRuns(runs []*Run) {
	sort.Slice(runs, func(i, j int) bool {
		if !runs[i].CreatedAt.Equal(runs[j].CreatedAt) {
			return runs[i].CreatedAt.After(runs[j].CreatedAt)
		}
		return runs[i].ID < runs[j].ID
	})
}

// EvidenceFor finds the newest stored evidence record matching a
// fingerprint, searching app's runs (every app when app is empty),
// newest first. The fingerprint may be a unique prefix; ambiguous
// prefixes and misses return ok == false.
func (s *Store) EvidenceFor(app, fp string) (raw json.RawMessage, runID string, ok bool) {
	if fp == "" {
		return nil, "", false
	}
	var runs []*Run
	if app != "" {
		runs = s.Runs(app)
	} else {
		runs = s.All()
	}
	for _, r := range runs {
		if len(r.Evidence) == 0 {
			continue
		}
		if raw, ok := r.Evidence[fp]; ok {
			return raw, r.ID, true
		}
		var match json.RawMessage
		matches := 0
		for k, v := range r.Evidence {
			if strings.HasPrefix(k, fp) {
				match = v
				matches++
			}
		}
		if matches == 1 {
			return match, r.ID, true
		}
		if matches > 1 {
			return nil, "", false // ambiguous within the newest matching run
		}
	}
	return nil, "", false
}

// Apps lists the distinct app names with at least one run, sorted.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	seen := make(map[string]bool)
	for _, r := range s.runs {
		seen[r.App] = true
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Len reports the indexed run count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Counters reads the lifetime counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// GC removes runs beyond the per-app count bound or older than the age
// bound, except runs referenced by a baseline (a reviewed baseline must
// keep its reference run diffable). It then collects orphaned derived
// caches: witness and IR-cache entries whose digest no surviving run
// carries (baseline-referenced runs always survive, so their cache
// entries are never collected). It returns how many records — runs and
// cache entries — were removed.
func (s *Store) GC(now time.Time) int {
	protected := make(map[string]bool)
	for _, b := range s.Baselines() {
		if b.RunID != "" {
			protected[b.RunID] = true
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	byApp := make(map[string][]*Run)
	for _, r := range s.runs {
		byApp[r.App] = append(byApp[r.App], r)
	}
	removed := 0
	for _, runs := range byApp {
		sortRuns(runs)
		for i, r := range runs {
			tooMany := s.opts.MaxRunsPerApp > 0 && i >= s.opts.MaxRunsPerApp
			tooOld := s.opts.MaxAge > 0 && now.Sub(r.CreatedAt) > s.opts.MaxAge
			if !tooMany && !tooOld {
				continue
			}
			if protected[r.ID] {
				continue
			}
			if err := os.Remove(filepath.Join(s.runDir(), r.ID+".json")); err != nil && !os.IsNotExist(err) {
				s.log.Warn("store: gc remove failed", "run", r.ID, "error", err)
				continue
			}
			delete(s.runs, r.ID)
			s.c.GCRemoved++
			removed++
			s.log.Info("store: gc removed run", "run", r.ID, "app", r.App,
				"age", now.Sub(r.CreatedAt).String(), "over_count", tooMany)
		}
	}
	// Digests of every surviving run protect their cache entries.
	digests := make(map[string]bool)
	for _, r := range s.runs {
		if r.IRDigest != "" {
			digests[r.IRDigest] = true
		}
	}
	cacheRemoved := s.gcCaches(digests)
	s.c.GCRemoved += uint64(cacheRemoved)
	return removed + cacheRemoved
}

// atomicWrite writes data to path via a temp file + rename so readers
// never observe a partial file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// safeName renders an app name as a filesystem-safe, collision-free
// filename stem: sanitized characters plus a short content hash.
func safeName(app string) string {
	var b strings.Builder
	for _, r := range app {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	sum := sha256.Sum256([]byte(app))
	return b.String() + "-" + hex.EncodeToString(sum[:4])
}

// discardHandler is a no-op slog handler (slog.DiscardHandler arrived
// in go1.24; this keeps the module's go1.22 floor).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
