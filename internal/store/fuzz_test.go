package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/server"
	"nadroid/internal/store"
)

// The store's JSON loaders read files another process, an older
// version or a person may have written. Each fuzz target asserts that
// a loader never panics, and that any value it accepts keeps its
// required field and survives a marshal/unmarshal round trip through
// the same loader.

// storeFiles holds the bytes of the entries the store writes for two
// corpus apps, analyzed with validation and provenance the way
// nadroid-serve persists them.
type storeFiles struct {
	runs, baselines [][]byte
	witnesses       []witnessFile
}

type witnessFile struct {
	data           []byte
	digest, finger string
}

var (
	seedOnce sync.Once
	seeds    storeFiles
	seedErr  error
)

func storeSeeds(f *testing.F) storeFiles {
	f.Helper()
	seedOnce.Do(func() { seeds, seedErr = writeSeeds() })
	if seedErr != nil {
		f.Fatal(seedErr)
	}
	return seeds
}

func writeSeeds() (storeFiles, error) {
	var out storeFiles
	dir, err := os.MkdirTemp("", "store-fuzz-seeds")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	now := time.Now().UTC()
	for _, name := range []string{"ConnectBot", "Aard"} {
		app, _ := corpus.ByName(name)
		src := dexasm.Format(app.Build())
		wire := server.OptionsWire{Validate: true, Provenance: true}
		opts := wire.ToOptions()
		opts.Store = st
		res, err := nadroid.AnalyzeSource(context.Background(), src, opts)
		if err != nil {
			return out, err
		}
		run, err := server.StoreRun(server.ResultKey(src, wire), wire, server.EncodeResult(name, res), now)
		if err != nil {
			return out, err
		}
		run.IRDigest = store.IRDigest(src)
		if err := st.Put(run); err != nil {
			return out, err
		}
		if err := st.PutBaseline(store.BaselineFromRun(run, "reviewed", now)); err != nil {
			return out, err
		}
	}
	read := func(sub string) ([][]byte, error) {
		paths, err := filepath.Glob(filepath.Join(dir, sub, "*.json"))
		if err != nil {
			return nil, err
		}
		var all [][]byte
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			all = append(all, data)
		}
		return all, nil
	}
	if out.runs, err = read("runs"); err != nil {
		return out, err
	}
	if out.baselines, err = read("baselines"); err != nil {
		return out, err
	}
	ws, err := read("witness")
	if err != nil {
		return out, err
	}
	for _, data := range ws {
		var e store.WitnessEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return out, err
		}
		out.witnesses = append(out.witnesses, witnessFile{data, e.IRDigest, e.Fingerprint})
	}
	return out, nil
}

// fileLoader returns a loader that writes data to one file under dir
// and runs load on it. A fuzz worker runs its inputs one at a time, so
// the file is reused.
func fileLoader[T any](t *testing.T, dir string, load func(path string) (*T, error)) func(data []byte) (*T, error) {
	path := filepath.Join(dir, "entry.json")
	return func(data []byte) (*T, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return load(path)
	}
}

// roundTrip marshals an accepted value, reloads the bytes through load,
// and requires the reload to succeed and to marshal to the same bytes.
func roundTrip[T any](t *testing.T, v *T, load func(data []byte) (*T, error)) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted value does not marshal: %v", err)
	}
	again, err := load(first)
	if err != nil {
		t.Fatalf("marshaled value is rejected: %v\n%s", err, first)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the value:\n%s\n%s", first, second)
	}
}

func FuzzReadRunFile(f *testing.F) {
	for _, data := range storeSeeds(f).runs {
		f.Add(data)
	}
	f.Add([]byte(`{"app":""}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		load := fileLoader(t, dir, store.ReadRunFile)
		r, err := load(data)
		if err != nil {
			return
		}
		if r.App == "" {
			t.Fatalf("accepted a run without an app: %s", data)
		}
		roundTrip(t, r, load)
	})
}

func FuzzReadBaselineFile(f *testing.F) {
	for _, data := range storeSeeds(f).baselines {
		f.Add(data)
	}
	f.Add([]byte(`{"entries":[{"fingerprint":"x"}]}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		load := fileLoader(t, dir, store.ReadBaselineFile)
		b, err := load(data)
		if err != nil {
			return
		}
		if b.App == "" {
			t.Fatalf("accepted a baseline without an app: %s", data)
		}
		roundTrip(t, b, load)
	})
}

func FuzzGetWitness(f *testing.F) {
	for _, w := range storeSeeds(f).witnesses {
		f.Add(w.data, w.digest, w.finger)
	}
	f.Add([]byte(`{"harmful":true}`), "", "")
	st, err := store.Open(f.TempDir(), store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, digest, finger string) {
		key := store.WitnessKey(digest, finger, "opts", nil)
		load := func(data []byte) (*store.WitnessEntry, error) {
			if err := os.WriteFile(filepath.Join(st.Dir(), "witness", key+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := st.GetWitness(key, digest, finger)
			if e == nil && err == nil {
				t.Fatal("a written entry read as a miss")
			}
			return e, err
		}
		e, err := load(data)
		if err != nil {
			return
		}
		if e.IRDigest == "" || e.IRDigest != digest || e.Fingerprint != finger {
			t.Fatalf("accepted an entry for %q/%q as %q/%q", e.IRDigest, e.Fingerprint, digest, finger)
		}
		roundTrip(t, e, load)
	})
}
