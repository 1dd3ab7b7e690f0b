package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file adds the store's two derived-cache areas next to runs/ and
// baselines/:
//
//   witness/  — per-warning validation outcomes (JSON), keyed by a
//               caller-computed hash over the app's IR digest, the
//               warning fingerprint, the normalized validation options,
//               and the detector set. A hit replays the outcome instead
//               of re-running the schedule sweep.
//   ircache/  — binary cold-start blobs (internal/ircache), named
//               "<digest>-v<version>-k<K>.bin" so GC can map an entry
//               back to the runs that reference its digest.
//
// Both areas are content-addressed and write-once per key: entries are
// never modified in place, and a corrupt or unreadable entry is a miss
// (callers fall back to the cold path), never an error that stops an
// analysis.

func (s *Store) witnessDir() string { return filepath.Join(s.dir, "witness") }
func (s *Store) ircacheDir() string { return filepath.Join(s.dir, "ircache") }
func (s *Store) incrDir() string    { return filepath.Join(s.dir, "incr") }

// WitnessEntry is one cached validation outcome. NPE carries the
// witness's interp.NPE record verbatim (wire JSON) when Harmful; the
// store stays ignorant of the interpreter's types.
type WitnessEntry struct {
	IRDigest    string          `json:"ir_digest"`
	Fingerprint string          `json:"fingerprint"`
	Harmful     bool            `json:"harmful"`
	Schedule    []int           `json:"schedule,omitempty"`
	Executions  int             `json:"executions,omitempty"`
	NPE         json.RawMessage `json:"npe,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
}

// PutWitness persists one validation outcome under key (a hex hash from
// WitnessKey-style derivation; the store only requires a safe filename).
func (s *Store) PutWitness(key string, e *WitnessEntry) error {
	if !safeKey(key) {
		return fmt.Errorf("store: unsafe witness key %q", key)
	}
	if e.IRDigest == "" {
		return errors.New("store: witness entry needs IRDigest")
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(filepath.Join(s.witnessDir(), key+".json"), append(data, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetWitness loads the validation outcome cached under key for the
// warning with the given fingerprint in the program with the given IR
// digest. A miss returns (nil, nil). An entry that does not parse, lacks
// its digest, or was stored for another program or warning (a copied or
// hand-edited file) is corrupt: it returns (nil, err) and is counted as
// a load error, so the caller can log the skip and fall back to cold
// validation.
func (s *Store) GetWitness(key, irDigest, fingerprint string) (*WitnessEntry, error) {
	if !safeKey(key) {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(s.witnessDir(), key+".json"))
	if err != nil {
		return nil, nil // miss
	}
	var e WitnessEntry
	err = json.Unmarshal(data, &e)
	switch {
	case err != nil:
	case e.IRDigest == "":
		err = errors.New("missing ir_digest")
	case e.IRDigest != irDigest:
		err = fmt.Errorf("ir_digest %q, want %q", e.IRDigest, irDigest)
	case e.Fingerprint != fingerprint:
		err = fmt.Errorf("fingerprint %q, want %q", e.Fingerprint, fingerprint)
	}
	if err != nil {
		s.mu.Lock()
		s.c.LoadErrors++
		s.mu.Unlock()
		return nil, fmt.Errorf("store: corrupt witness entry %s: %w", key, err)
	}
	return &e, nil
}

// PutIRCache persists one cold-start blob under its filename (from
// ircache.Name, "<digest>-v<version>-k<K>.bin").
func (s *Store) PutIRCache(name string, data []byte) error {
	if !safeKey(strings.TrimSuffix(name, ".bin")) || !strings.HasSuffix(name, ".bin") {
		return fmt.Errorf("store: unsafe ircache name %q", name)
	}
	if err := atomicWrite(filepath.Join(s.ircacheDir(), name), data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetIRCache loads a cold-start blob; ok=false is a miss. Decoding (and
// thus corruption detection) is the caller's concern — the blob is
// opaque here.
func (s *Store) GetIRCache(name string) ([]byte, bool) {
	if !safeKey(strings.TrimSuffix(name, ".bin")) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.ircacheDir(), name))
	if err != nil {
		return nil, false
	}
	return data, true
}

// PutIncr persists one incremental fact partition under its filename
// (from incr.Name, "<digest>-v<version>-k<K>.incr").
func (s *Store) PutIncr(name string, data []byte) error {
	if !safeKey(strings.TrimSuffix(name, ".incr")) || !strings.HasSuffix(name, ".incr") {
		return fmt.Errorf("store: unsafe incr name %q", name)
	}
	if err := atomicWrite(filepath.Join(s.incrDir(), name), data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetIncr loads an incremental fact partition; ok=false is a miss.
// Like IR-cache blobs, the bytes are opaque here — the caller decodes
// and treats corruption as a cold-start miss.
func (s *Store) GetIncr(name string) ([]byte, bool) {
	if !safeKey(strings.TrimSuffix(name, ".incr")) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.incrDir(), name))
	if err != nil {
		return nil, false
	}
	return data, true
}

// IncrNames lists the incremental partitions on disk, newest first by
// modification time. The incremental pipeline uses this as the anchor
// fallback when no stored run names a base digest (library callers
// analyze through the store without persisting runs).
func (s *Store) IncrNames() []string {
	entries, err := os.ReadDir(s.incrDir())
	if err != nil {
		return nil
	}
	type ent struct {
		name string
		mod  time.Time
	}
	list := make([]ent, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".incr") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		list = append(list, ent{e.Name(), info.ModTime()})
	}
	sort.Slice(list, func(i, j int) bool {
		if !list[i].mod.Equal(list[j].mod) {
			return list[i].mod.After(list[j].mod)
		}
		return list[i].name < list[j].name
	})
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.name
	}
	return out
}

// DiskUsage reports the byte totals of the store's areas (for the
// /metrics gauges). Incremental partitions are accounted under IRCache
// — they live and die with the same digests.
type DiskUsage struct {
	// Total is the byte size of everything under the store directory.
	Total int64
	// IRCache is the byte size of the derived binary caches: ircache
	// blobs plus incremental partitions.
	IRCache int64
}

// Usage walks the store directory and sums file sizes per area.
func (s *Store) Usage() DiskUsage {
	var u DiskUsage
	var sum func(dir string) int64
	sum = func(dir string) int64 {
		var n int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0
		}
		for _, e := range entries {
			if e.IsDir() {
				n += sum(filepath.Join(dir, e.Name()))
				continue
			}
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return n
	}
	u.Total = sum(s.dir)
	u.IRCache = sum(s.ircacheDir()) + sum(s.incrDir())
	return u
}

// IRDigest computes the content digest of an app's canonical program
// text — the key that ties runs, witness entries, and IR-cache blobs to
// one parsed input.
func IRDigest(canonicalText string) string {
	h := sha256.Sum256([]byte(canonicalText))
	return hex.EncodeToString(h[:])
}

// WitnessKey derives the witness-cache key: any change to the program
// (digest), the warning (fingerprint), the validation options, or the
// enabled detector set lands on a different key, which is how
// invalidation works — stale entries are simply never looked up again
// (GC collects them once their digest has no surviving run).
func WitnessKey(irDigest, fingerprint, normalizedOptions string, detectors []string) string {
	h := sha256.New()
	h.Write([]byte("nadroid-witness-v1"))
	for _, part := range []string{irDigest, fingerprint, normalizedOptions, strings.Join(detectors, ",")} {
		h.Write([]byte{0})
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// safeKey accepts the hex/dash/dot character set our derived filenames
// use, rejecting anything that could escape the cache directory.
func safeKey(k string) bool {
	if k == "" || len(k) > 200 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.', c == '_':
		default:
			return false
		}
	}
	return !strings.Contains(k, "..")
}

// gcCaches removes witness and IR-cache entries whose IR digest no
// longer belongs to any surviving run (callers pass the protected
// digest set: every run left after run-GC, which by construction
// includes every baseline-referenced run). Unparseable entries are
// orphans by definition and are removed too. Returns how many entries
// were deleted; the caller accounts them in GCRemoved.
func (s *Store) gcCaches(protected map[string]bool) int {
	removed := 0
	if entries, err := os.ReadDir(s.ircacheDir()); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".bin") {
				continue
			}
			digest := name
			if i := strings.IndexByte(name, '-'); i > 0 {
				digest = name[:i]
			}
			if protected[digest] {
				continue
			}
			if err := os.Remove(filepath.Join(s.ircacheDir(), name)); err == nil {
				removed++
				s.log.Info("store: gc removed ircache entry", "file", name)
			}
		}
	}
	if entries, err := os.ReadDir(s.incrDir()); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".incr") {
				continue
			}
			digest := name
			if i := strings.IndexByte(name, '-'); i > 0 {
				digest = name[:i]
			}
			if protected[digest] {
				continue
			}
			if err := os.Remove(filepath.Join(s.incrDir(), name)); err == nil {
				removed++
				s.log.Info("store: gc removed incr partition", "file", name)
			}
		}
	}
	if entries, err := os.ReadDir(s.witnessDir()); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".json") {
				continue
			}
			path := filepath.Join(s.witnessDir(), name)
			var e WitnessEntry
			data, err := os.ReadFile(path)
			orphan := err != nil || json.Unmarshal(data, &e) != nil || !protected[e.IRDigest]
			if !orphan {
				continue
			}
			if err := os.Remove(path); err == nil {
				removed++
				s.log.Info("store: gc removed witness entry", "file", name)
			}
		}
	}
	return removed
}
