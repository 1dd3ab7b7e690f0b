// nadroid_incremental_test.go is the correctness gate for incremental
// re-analysis: a matrix of seeded IR edits (body edit, method add,
// method delete, signature change, field-access change) over several
// Table-1 corpus apps, each asserting that the incremental run of the
// mutated app — anchored on a stored base run — produces results
// byte-identical to a cold run of the same mutated app: filter stats,
// warning fingerprints with their per-pair filter annotations, the
// report CSV, and (with provenance on) the evidence records. It also
// covers staleness/corruption fallbacks and the store-backed golden
// corpus sweep with incrementality enabled.
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
	"time"

	"nadroid"
	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/fingerprint"
	"nadroid/internal/incr"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
	"nadroid/internal/server"
	"nadroid/internal/store"
)

// deepSummary reduces a Result to every comparable fact the
// differential gate checks: pipeline stats, each UAF warning's
// fingerprint with surviving-pair count and per-pair filter verdicts,
// extra-detector warnings, the report CSV, and the evidence records.
func deepSummary(t *testing.T, res *nadroid.Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "pot=%d sound=%d unsound=%d entries=%d\n",
		res.Stats.Potential, res.Stats.AfterSound, res.Stats.AfterUnsound,
		len(res.Report.Entries))
	if res.Detection != nil {
		var lines []string
		for _, w := range res.Detection.Warnings {
			var filt []string
			for p, f := range w.FilteredBy {
				filt = append(filt, fmt.Sprintf("%d-%d:%s", p.Use, p.Free, f))
			}
			sort.Strings(filt)
			lines = append(lines, fmt.Sprintf("%s pairs=%d filtered=%v",
				fingerprint.Warning(res.Model, w), len(w.Pairs), filt))
		}
		sort.Strings(lines)
		b.WriteString(strings.Join(lines, "\n"))
		b.WriteString("\n")
	}
	for _, e := range res.Report.Extras {
		fmt.Fprintf(&b, "extra %s %s %s %s\n", e.Detector, e.Tag, e.Subject, e.Site)
	}
	b.WriteString(res.Report.CSV())
	if res.Evidence != nil {
		keys := make([]string, 0, len(res.Evidence))
		for k := range res.Evidence {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			data, err := json.Marshal(res.Evidence[k])
			if err != nil {
				t.Fatalf("marshaling evidence %s: %v", k, err)
			}
			fmt.Fprintf(&b, "evidence %s %s\n", k, data)
		}
	}
	return b.String()
}

// mutation is one seeded IR edit. Each mutator edits the package in
// place; the mutated dexasm rendering is what gets analyzed, so edits
// only need to survive a format/parse round trip.
type mutation struct {
	name string
	fn   func(t testing.TB, pkg *apk.Package)
}

// editableMethod picks a deterministic concrete app method with a body.
func editableMethod(t testing.TB, pkg *apk.Package) (*ir.Class, *ir.Method) {
	t.Helper()
	for _, c := range pkg.Program.Classes() {
		for _, m := range c.Methods {
			if !m.Abstract && len(m.Instrs) > 0 {
				return c, m
			}
		}
	}
	t.Fatal("no editable method in app")
	return nil, nil
}

var mutations = []mutation{
	{"body-edit", func(t testing.TB, pkg *apk.Package) {
		_, m := editableMethod(t, pkg)
		m.Instrs = append(m.Instrs, ir.Instr{Op: ir.OpMove, A: 0, B: 0})
	}},
	{"method-add", func(t testing.TB, pkg *apk.Package) {
		c, _ := editableMethod(t, pkg)
		added := ir.NewMethod(c.Name, "incrAddedNoop", 0)
		added.Instrs = []ir.Instr{{Op: ir.OpReturn, A: ir.NoReg}}
		c.AddMethod(added)
	}},
	{"method-delete", func(t testing.TB, pkg *apk.Package) {
		// Delete the last helper-looking method of some class. The
		// mutated text is re-parsed before analysis, so editing the
		// Methods slice (without the private index) is sufficient.
		for _, c := range pkg.Program.Classes() {
			for i := len(c.Methods) - 1; i >= 0; i-- {
				m := c.Methods[i]
				if m.Abstract || len(m.Instrs) == 0 || strings.HasPrefix(m.Name, "on") || m.Name == "<init>" {
					continue
				}
				c.Methods = append(c.Methods[:i], c.Methods[i+1:]...)
				return
			}
		}
		t.Fatal("no deletable method in app")
	}},
	{"signature-change", func(t testing.TB, pkg *apk.Package) {
		_, m := editableMethod(t, pkg)
		m.NumArgs++
	}},
	{"field-access-change", func(t testing.TB, pkg *apk.Package) {
		for _, c := range pkg.Program.Classes() {
			for _, m := range c.Methods {
				for i := range m.Instrs {
					if m.Instrs[i].Op == ir.OpGetField {
						m.Instrs[i] = m.Instrs[i].WithField(ir.FieldRef{Class: m.Instrs[i].Field().Class, Name: "incrMutatedField"})
						return
					}
				}
			}
		}
		t.Fatal("no field access in app")
	}},
}

func incrementalOptions(st *store.Store, workers int, provenance bool) nadroid.Options {
	return nadroid.Options{
		Workers:     workers,
		Provenance:  provenance,
		Store:       st,
		IRCache:     true,
		Incremental: true,
	}
}

// TestIncrementalMutationMatrix is the differential gate: for every
// (app, mutation, workers) cell, analyze the base app into a store,
// then the mutated app twice — incrementally against the store and
// cold without one — and require identical results.
func TestIncrementalMutationMatrix(t *testing.T) {
	apps := []string{"ConnectBot", "Swiftnotes", "SoundRecorder"}
	workerCounts := []int{1, 8}
	if testing.Short() {
		apps = apps[:1]
		workerCounts = []int{1}
	}
	for _, appName := range apps {
		app, ok := corpus.ByName(appName)
		if !ok {
			t.Fatalf("%s missing from corpus", appName)
		}
		baseSrc := dexasm.Format(app.Build())
		for _, mut := range mutations {
			mutated := app.Build()
			mut.fn(t, mutated)
			mutSrc := dexasm.Format(mutated)
			if mutSrc == baseSrc {
				t.Fatalf("%s/%s: mutation is a no-op", appName, mut.name)
			}
			for _, workers := range workerCounts {
				workers := workers
				appName, mutName, mutSrc := appName, mut.name, mutSrc
				t.Run(fmt.Sprintf("%s/%s/workers=%d", appName, mutName, workers), func(t *testing.T) {
					t.Parallel()
					// Evidence (provenance) equality is asserted on the
					// sequential configuration.
					provenance := workers == 1

					st, err := store.Open(t.TempDir(), store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					opts := incrementalOptions(st, workers, provenance)
					ctx := context.Background()

					baseRes, err := nadroid.AnalyzeSource(ctx, baseSrc, opts)
					if err != nil {
						t.Fatalf("base run: %v", err)
					}
					if baseRes.Disposition != nadroid.DispositionCold {
						t.Fatalf("base run disposition = %q, want cold", baseRes.Disposition)
					}

					m := obs.NewMetrics()
					incRes, err := nadroid.AnalyzeSource(obs.WithMetrics(ctx, m), mutSrc, opts)
					if err != nil {
						t.Fatalf("incremental run: %v", err)
					}
					if m.Get("incr_methods_changed") == 0 {
						t.Errorf("incremental run saw no changed methods")
					}
					if mutName == "body-edit" && incRes.Disposition != nadroid.DispositionIncremental {
						t.Errorf("body edit disposition = %q, want incremental", incRes.Disposition)
					}

					coldOpts := nadroid.Options{Workers: workers, Provenance: provenance}
					coldRes, err := nadroid.AnalyzeSource(ctx, mutSrc, coldOpts)
					if err != nil {
						t.Fatalf("cold run: %v", err)
					}
					if got, want := deepSummary(t, incRes), deepSummary(t, coldRes); got != want {
						t.Errorf("incremental result differs from cold:\nincremental:\n%s\ncold:\n%s", got, want)
					}
				})
			}
		}
	}
}

// TestIncrementalStaleness drives the fallback paths: a corrupt
// partition, a version-skewed partition name, and a pre-partition base
// run must all fall back to a cold run — with the skip logged via the
// counter — and still produce correct results.
func TestIncrementalStaleness(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("ConnectBot missing from corpus")
	}
	baseSrc := dexasm.Format(app.Build())
	mutated := app.Build()
	mutations[0].fn(t, mutated)
	mutSrc := dexasm.Format(mutated)
	ctx := context.Background()

	coldRes, err := nadroid.AnalyzeSource(ctx, mutSrc, nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := deepSummary(t, coldRes)

	seed := func(t *testing.T) (*store.Store, string) {
		t.Helper()
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nadroid.AnalyzeSource(ctx, baseSrc, incrementalOptions(st, 0, false)); err != nil {
			t.Fatal(err)
		}
		return st, dir
	}
	partitions := func(t *testing.T, dir string) []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "incr", "*.incr"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no partitions on disk (err %v)", err)
		}
		return names
	}

	t.Run("corrupt-partition", func(t *testing.T) {
		st, dir := seed(t)
		for _, name := range partitions(t, dir) {
			if err := os.WriteFile(name, []byte("NINCgarbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m := obs.NewMetrics()
		res, err := nadroid.AnalyzeSource(obs.WithMetrics(ctx, m), mutSrc, incrementalOptions(st, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Disposition != nadroid.DispositionCold {
			t.Errorf("disposition = %q, want cold fallback", res.Disposition)
		}
		if m.Get("incr_partition_skips") == 0 {
			t.Errorf("corrupt partition was not counted as a skip")
		}
		if deepSummary(t, res) != want {
			t.Errorf("corrupt-partition fallback result differs from cold")
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		st, dir := seed(t)
		for _, name := range partitions(t, dir) {
			// A future-format partition is invisible by name: the current
			// version's lookup misses and the run falls back cold.
			skewed := strings.Replace(name, fmt.Sprintf("-v%d-", incr.Version), fmt.Sprintf("-v%d-", incr.Version+1), 1)
			if err := os.Rename(name, skewed); err != nil {
				t.Fatal(err)
			}
		}
		res, err := nadroid.AnalyzeSource(ctx, mutSrc, incrementalOptions(st, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Disposition != nadroid.DispositionCold {
			t.Errorf("disposition = %q, want cold fallback", res.Disposition)
		}
		if deepSummary(t, res) != want {
			t.Errorf("version-skew fallback result differs from cold")
		}
	})

	t.Run("pre-partition-base", func(t *testing.T) {
		// A base run from before the partition format exists: blob
		// present, no partition file. The incremental run must fall back
		// cold and then write the missing partition.
		st, dir := seed(t)
		for _, name := range partitions(t, dir) {
			if err := os.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		res, err := nadroid.AnalyzeSource(ctx, mutSrc, incrementalOptions(st, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Disposition != nadroid.DispositionCold {
			t.Errorf("disposition = %q, want cold fallback", res.Disposition)
		}
		if deepSummary(t, res) != want {
			t.Errorf("pre-partition fallback result differs from cold")
		}
		if len(partitions(t, dir)) == 0 {
			t.Errorf("cold fallback did not write the mutated app's partition")
		}
	})
}

// TestIncrementalDiffGate is the triage acceptance path with
// incrementality on: analyze a base app into a store, inject one
// artificial UAF, re-analyze incrementally, and the stored-run diff
// must show exactly the injected warning — nothing fixed, every
// pre-existing fingerprint persisting.
func TestIncrementalDiffGate(t *testing.T) {
	app, ok := corpus.ByName("Swiftnotes")
	if !ok {
		t.Fatal("Swiftnotes missing from corpus")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	persist := func(src string) (*store.Run, *nadroid.Result) {
		t.Helper()
		opts := incrementalOptions(st, 0, false)
		opts.IRDigest = store.IRDigest(src)
		res, err := nadroid.AnalyzeSource(ctx, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		wire := server.OptionsWire{}
		run, err := server.StoreRun(server.ResultKey(src, wire), wire, server.EncodeResult(app.Name(), res), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		run.IRDigest = opts.IRDigest
		if err := st.Put(run); err != nil {
			t.Fatal(err)
		}
		return run, res
	}

	before, baseRes := persist(dexasm.Format(app.Build()))
	if baseRes.Disposition != nadroid.DispositionCold {
		t.Fatalf("base disposition = %q, want cold", baseRes.Disposition)
	}

	// A behavior-neutral body edit rides the incremental path and the
	// diff against the base run is empty — re-analysis invents nothing.
	edited := app.Build()
	mutations[0].fn(t, edited)
	editRun, editRes := persist(dexasm.Format(edited))
	if editRes.Disposition != nadroid.DispositionIncremental {
		t.Errorf("body-edit disposition = %q, want incremental", editRes.Disposition)
	}
	dEdit, err := st.Diff(app.Name(), before.ID, editRun.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(dEdit.New) != 0 || len(dEdit.Fixed) != 0 {
		t.Errorf("neutral edit diff: new %v fixed %v, want empty", dEdit.New, dEdit.Fixed)
	}
	if len(dEdit.Persisting) != len(before.Warnings) {
		t.Errorf("neutral edit persisting = %d, want all %d", len(dEdit.Persisting), len(before.Warnings))
	}

	// The injection adds whole classes — a structural change, so the
	// reuse gates refuse and the run is a (correct) cold fallback. The
	// diff still shows exactly the injected site and nothing else.
	injected, sites := app.Spec.BuildInjected([]corpus.InjectionKind{corpus.InjectECPC})
	if len(sites) != 1 {
		t.Fatalf("injected sites = %d, want 1", len(sites))
	}
	after, incRes := persist(dexasm.Format(injected))
	if incRes.Disposition != nadroid.DispositionCold {
		t.Errorf("injected-run disposition = %q, want cold (structural change)", incRes.Disposition)
	}

	d, err := st.Diff(app.Name(), before.ID, after.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.New) != 1 {
		t.Fatalf("new = %d warning(s) %v, want exactly the injected one", len(d.New), d.New)
	}
	if !strings.Contains(d.New[0].Field, sites[0].Field) {
		t.Errorf("new warning field = %q, want the injected site %s", d.New[0].Field, sites[0].Field)
	}
	if len(d.Fixed) != 0 {
		t.Errorf("fixed = %v, want none", d.Fixed)
	}
	if len(d.Persisting) != len(before.Warnings) {
		t.Errorf("persisting = %d, want all %d pre-existing warnings", len(d.Persisting), len(before.Warnings))
	}
}

// TestCorpusGoldenIncremental locks the Table-1 aggregate with
// incrementality enabled: a store-backed corpus sweep (cold, writing
// partitions) and a second sweep replaying those partitions must both
// reproduce the golden per-app counts exactly.
func TestCorpusGoldenIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corpus sweeps")
	}
	data, err := os.ReadFile(filepath.Join(goldenDir, "corpus.json"))
	if err != nil {
		t.Fatalf("reading goldens: %v", err)
	}
	var want []goldenCounts
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByApp := make(map[string]goldenCounts, len(want))
	for _, w := range want {
		wantByApp[w.App] = w
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var work []nadroid.CorpusApp
	for _, app := range corpus.Apps() {
		work = append(work, nadroid.CorpusApp{Name: app.Name(), Build: app.Build})
	}
	sweep := func(pass string, opts nadroid.Options, wantDisp string) {
		results := nadroid.AnalyzeCorpus(work, nadroid.CorpusOptions{Workers: 8, Analysis: opts})
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s %s: %v", pass, r.App, r.Err)
			}
			got := goldenCounts{
				App:          r.App,
				Potential:    r.Result.Stats.Potential,
				AfterSound:   r.Result.Stats.AfterSound,
				AfterUnsound: r.Result.Stats.AfterUnsound,
			}
			if got != wantByApp[r.App] {
				t.Errorf("%s %s: counts %+v differ from golden %+v", pass, r.App, got, wantByApp[r.App])
			}
			if r.Result.Disposition != wantDisp {
				t.Errorf("%s %s: disposition = %q, want %q", pass, r.App, r.Result.Disposition, wantDisp)
			}
		}
	}
	// Pass 1: cold, writes blobs and partitions.
	sweep("pass1", nadroid.Options{Store: st, IRCache: true, Incremental: true}, nadroid.DispositionCold)
	// Pass 2: identical content with the blob probe disabled, so every
	// app replays its own partitions through the incremental path.
	sweep("pass2", nadroid.Options{Store: st, IRCache: false, Incremental: true}, nadroid.DispositionIncremental)
}
