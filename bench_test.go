// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8). Each benchmark reports, besides time, the headline
// numbers of its artifact as custom metrics so `go test -bench` output
// doubles as the reproduction record:
//
//	BenchmarkTable1Pipeline      — Table 1 (potential/sound/unsound warnings)
//	BenchmarkTable1Validation    — Table 1's true-harmful column (explorer)
//	BenchmarkFigure5SoundFilters — Figure 5(a) percentages
//	BenchmarkFigure5Unsound      — Figure 5(b) percentages
//	BenchmarkTable2Injection     — Table 2 (28 injected, missed, pruned)
//	BenchmarkTable3DEvA          — Table 3 (detected/filtered/not-detected)
//	BenchmarkPhase*              — §8.8 phase split
//	BenchmarkAblation*           — design-choice ablation (k)
package nadroid_test

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"nadroid"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/deva"
	"nadroid/internal/dexasm"
	"nadroid/internal/dynrace"
	"nadroid/internal/escape"
	"nadroid/internal/eval"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/inject"
	"nadroid/internal/interp"
	"nadroid/internal/nosleep"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
	"nadroid/internal/store"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// benchmarkTable1Pipeline runs the static pipeline (model + detect +
// filter) over the full 27-app corpus — the paper's Table 1 without the
// manual-validation column — at one corpus-level worker count.
func benchmarkTable1Pipeline(b *testing.B, workers int, provenance bool) {
	var work []nadroid.CorpusApp
	for _, app := range corpus.Apps() {
		work = append(work, nadroid.CorpusApp{Name: app.Name(), Build: app.Build})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pot, sound, unsound, records int
		opts := nadroid.CorpusOptions{Workers: workers, Analysis: nadroid.Options{Provenance: provenance}}
		for _, r := range nadroid.AnalyzeCorpus(work, opts) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			pot += r.Result.Stats.Potential
			sound += r.Result.Stats.AfterSound
			unsound += r.Result.Stats.AfterUnsound
			records += len(r.Result.Evidence)
		}
		b.ReportMetric(float64(pot), "potential")
		b.ReportMetric(float64(sound), "after-sound")
		b.ReportMetric(float64(unsound), "after-unsound")
		if provenance {
			b.ReportMetric(float64(records), "evidence-records")
		}
	}
}

// BenchmarkTable1Pipeline is the single-core reference sweep (one app at
// a time), comparable across releases.
func BenchmarkTable1Pipeline(b *testing.B) { benchmarkTable1Pipeline(b, 1, false) }

// BenchmarkTable1PipelineParallel fans the corpus across GOMAXPROCS
// workers via nadroid.AnalyzeCorpus; the headline metrics must match the
// sequential run exactly.
func BenchmarkTable1PipelineParallel(b *testing.B) { benchmarkTable1Pipeline(b, 0, false) }

// BenchmarkTable1PipelineProvenance is the sequential sweep in
// provenance mode: every derived tuple records its first derivation and
// every warning assembles an evidence record. The delta against
// BenchmarkTable1Pipeline is the provenance overhead quoted in
// EXPERIMENTS.md; the headline warning counts must not move.
func BenchmarkTable1PipelineProvenance(b *testing.B) { benchmarkTable1Pipeline(b, 1, true) }

// BenchmarkTable1Validation regenerates the true-harmful column on the
// apps that carry seeded bugs (the explorer dominates, so the corpus is
// restricted to keep iterations tractable). It measures the store-backed
// steady state: an untimed warm-up run populates the IR and witness
// caches, so the timed iterations pay only detection + filtering + cache
// replay — the cost a persisting deployment pays on every run after the
// first. BenchmarkTable1ValidationCold keeps the uncached number.
func BenchmarkTable1Validation(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() int {
		harmful := 0
		for _, name := range []string{"ConnectBot", "Aard", "QKSMS", "Music"} {
			app, _ := corpus.ByName(name)
			res, err := nadroid.AnalyzeSource(context.Background(),
				dexasm.Format(app.Build()), nadroid.Options{
					Validate: true,
					Explore:  explore.Options{MaxSchedules: 3000},
					Store:    st,
					IRCache:  true,
				})
			if err != nil {
				b.Fatal(err)
			}
			harmful += len(res.Harmful)
		}
		return harmful
	}
	sweep() // cold warm-up: modeling + full exploration, cache population
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(sweep()), "true-harmful")
	}
}

// BenchmarkTable1ValidationCold is the uncached reference: every
// iteration models and explores from scratch (no store). The ratio to
// BenchmarkTable1Validation is the headline win of the derived caches.
func BenchmarkTable1ValidationCold(b *testing.B) {
	apps := []string{"ConnectBot", "Aard", "QKSMS", "Music"}
	for i := 0; i < b.N; i++ {
		harmful := 0
		for _, name := range apps {
			app, _ := corpus.ByName(name)
			res, err := nadroid.Analyze(app.Build(), nadroid.Options{
				Validate: true,
				Explore:  explore.Options{MaxSchedules: 3000},
			})
			if err != nil {
				b.Fatal(err)
			}
			harmful += len(res.Harmful)
		}
		b.ReportMetric(float64(harmful), "true-harmful")
	}
}

// BenchmarkFigure5SoundFilters measures the independent effectiveness of
// MHB/IG/IA over the 20 test apps (Figure 5(a)).
func BenchmarkFigure5SoundFilters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.Figure5Data()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pct(f.SoundRemoved[filters.NameMHB], f.Potential), "MHB-%")
		b.ReportMetric(pct(f.SoundRemoved[filters.NameIG], f.Potential), "IG-%")
		b.ReportMetric(pct(f.SoundRemoved[filters.NameIA], f.Potential), "IA-%")
		b.ReportMetric(pct(f.Potential-f.AfterSound, f.Potential), "all-%")
	}
}

// BenchmarkFigure5Unsound measures mayHB/MA/UR/TT after the sound pass
// (Figure 5(b)).
func BenchmarkFigure5Unsound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.Figure5Data()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pct(f.UnsoundRemoved["mayHB"], f.AfterSound), "mayHB-%")
		b.ReportMetric(pct(f.UnsoundRemoved[filters.NameMA], f.AfterSound), "MA-%")
		b.ReportMetric(pct(f.UnsoundRemoved[filters.NameUR], f.AfterSound), "UR-%")
		b.ReportMetric(pct(f.UnsoundRemoved[filters.NameTT], f.AfterSound), "TT-%")
		b.ReportMetric(pct(f.AfterSound-f.AfterUnsound, f.AfterSound), "all-%")
	}
}

// BenchmarkTable2Injection regenerates the false-negative study: 28
// artificial UAFs, of which 2 are missed (framework-mediated binder) and
// 3 pruned by the unsound CHB filter.
func BenchmarkTable2Injection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := inject.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		all, missed, pruned := inject.Totals(rows)
		b.ReportMetric(float64(all), "injected")
		b.ReportMetric(float64(missed), "missed")
		b.ReportMetric(float64(pruned), "pruned-unsound")
	}
}

// BenchmarkTable3DEvA regenerates the baseline comparison on the
// training apps.
func BenchmarkTable3DEvA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3()
		if err != nil {
			b.Fatal(err)
		}
		var filtered, reported, notDetected int
		for _, r := range rows {
			switch {
			case !r.Detected:
				notDetected++
			case r.Filtered:
				filtered++
			default:
				reported++
			}
		}
		b.ReportMetric(float64(len(rows)), "deva-warnings")
		b.ReportMetric(float64(filtered), "nadroid-filtered")
		b.ReportMetric(float64(reported), "nadroid-reported")
		b.ReportMetric(float64(notDetected), "nadroid-missed")
	}
}

// BenchmarkAnalyze is the untraced full-pipeline reference on a
// mid-sized app: the number BenchmarkAnalyzeTraced is compared against
// to keep the observability layer's idle cost within a few percent.
func BenchmarkAnalyze(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	pkg := app.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nadroid.AnalyzeContext(context.Background(), pkg, nadroid.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTraced runs the same pipeline with a span tracer and
// counter set attached, measuring the instrumented-path cost.
func BenchmarkAnalyzeTraced(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	pkg := app.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obs.WithTracer(context.Background(), obs.NewTracer())
		ctx = obs.WithMetrics(ctx, obs.NewMetrics())
		if _, err := nadroid.AnalyzeContext(ctx, pkg, nadroid.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinePhases reports the §8.8 phase split as medians over
// several instrumented runs, alongside the deep counter medians
// (points-to iterations, datalog facts, schedules explored). With
// -benchtime 1x this still yields medians: each iteration samples the
// pipeline multiple times.
func BenchmarkPipelinePhases(b *testing.B) {
	const samples = 5
	app, _ := corpus.ByName("Mms")
	pkg := app.Build()
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phaseMS := map[string][]float64{}
		counters := map[string][]float64{}
		for s := 0; s < samples; s++ {
			m := obs.NewMetrics()
			ctx := obs.WithMetrics(context.Background(), m)
			res, err := nadroid.AnalyzeContext(ctx, pkg, nadroid.Options{
				Validate: true,
				Explore:  explore.Options{MaxSchedules: 200},
			})
			if err != nil {
				b.Fatal(err)
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			phaseMS["modeling-ms"] = append(phaseMS["modeling-ms"], ms(res.Timing.Modeling))
			phaseMS["detection-ms"] = append(phaseMS["detection-ms"], ms(res.Timing.Detection))
			phaseMS["filtering-ms"] = append(phaseMS["filtering-ms"], ms(res.Timing.Filtering))
			phaseMS["validation-ms"] = append(phaseMS["validation-ms"], ms(res.Timing.Validation))
			for _, key := range []string{"pointsto_iterations", "datalog_facts", "validation_schedules_executed"} {
				counters[key] = append(counters[key], float64(m.Get(key)))
			}
		}
		for name, v := range phaseMS {
			b.ReportMetric(median(v), name)
		}
		for name, v := range counters {
			b.ReportMetric(median(v), name)
		}
	}
}

// Phase benchmarks split §8.8's pipeline cost on a mid-sized app (Mms).

func phaseApp(b *testing.B) *threadify.Model {
	b.Helper()
	app, _ := corpus.ByName("Mms")
	m, err := threadify.Build(app.Build(), threadify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkPhaseModeling measures threadification (§4) alone.
func BenchmarkPhaseModeling(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	pkg := app.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := threadify.Build(pkg, threadify.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhasePointsTo measures the k-object-sensitive points-to
// solve (§5's Chord substitute) alone: modeling setup (component
// discovery, entry seeding, oracle construction) runs once outside the
// timer, and each iteration re-solves from scratch. The iteration and
// points-to fact counts double as a regression guard on the solver's
// work, independent of wall clock.
func BenchmarkPhasePointsTo(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	si, err := threadify.PrepareSolve(app.Build(), threadify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var st pointsto.SolveStats
	for i := 0; i < b.N; i++ {
		res := pointsto.SolveWithSynthetics(si.H, si.Synths, si.Entries, si.Opts)
		st = res.Stats()
	}
	b.ReportMetric(float64(st.Iterations), "iterations")
	b.ReportMetric(float64(st.VarFacts), "var-facts")
	b.ReportMetric(float64(st.Objects), "objects")
	b.ReportMetric(float64(st.MCtxs), "mctxs")
}

// BenchmarkPhaseDetection splits the detection phase per detector:
// "context" measures the shared analysis state (accesses, escape, MHB,
// Datalog fact base) every detector rides on, and each named
// sub-benchmark measures one registered family against a prebuilt
// context — the per-detector cost the pipeline pays on top of the
// shared build. Rendered as PhaseDetection/<name> in BENCH json.
func BenchmarkPhaseDetection(b *testing.B) {
	m := phaseApp(b)
	b.Run("context", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			detect.BuildContext(context.Background(), "Mms", m, detect.Options{})
		}
	})
	for _, d := range detect.All() {
		d := d
		b.Run(d.Name(), func(b *testing.B) {
			dc := detect.BuildContext(context.Background(), "Mms", m, detect.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Detect(context.Background(), dc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhaseFiltering measures the filter pipeline (§6) alone:
// detection runs once, and each iteration restores the warning pair sets
// before re-filtering (re-detecting per iteration would dominate the
// wall clock without being measured).
func BenchmarkPhaseFiltering(b *testing.B) {
	m := phaseApp(b)
	ctx := context.Background()
	res, err := detect.Run(ctx, detect.BuildContext(ctx, "Mms", m, detect.Options{}), detect.All())
	if err != nil {
		b.Fatal(err)
	}
	d := res.UAF
	saved := make([][]uaf.ThreadPair, len(d.Warnings))
	for i, w := range d.Warnings {
		saved[i] = append([]uaf.ThreadPair(nil), w.Pairs...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, w := range d.Warnings {
			w.Pairs = append(w.Pairs[:0], saved[j]...)
			w.FilteredBy = nil
		}
		b.StartTimer()
		filters.Run(d)
	}
}

// Ablations for the design choices DESIGN.md calls out.

// BenchmarkAblationK1 vs BenchmarkAblationK2: context-sensitivity depth
// (§8.8 notes k trades precision for time). The warning count shows the
// precision cost of k=1.
func benchmarkK(b *testing.B, k int) {
	app, _ := corpus.ByName("FireFox")
	pkg := app.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nadroid.Analyze(pkg, nadroid.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		st := res.Stats
		b.ReportMetric(float64(st.Potential), "potential")
		b.ReportMetric(float64(st.AfterUnsound), "surviving")
	}
}

func BenchmarkAblationK1(b *testing.B) { benchmarkK(b, 1) }
func BenchmarkAblationK2(b *testing.B) { benchmarkK(b, 2) }
func BenchmarkAblationK3(b *testing.B) { benchmarkK(b, 3) }

// BenchmarkEscapeAnalysis isolates the escape analysis (Mms).
func BenchmarkEscapeAnalysis(b *testing.B) {
	m := phaseApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		escape.Analyze(m)
	}
}

// BenchmarkDEvAAnalysis isolates the baseline's cost for comparison with
// BenchmarkPhaseDetection.
func BenchmarkDEvAAnalysis(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	pkg := app.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deva.Analyze(pkg)
	}
}

// Cold-start cache benchmarks: the same analysis from dexasm source,
// against an empty store (cold: parse + model + solve + write the blob)
// and a populated one (warm: decode the blob, skip parse and modeling).
// The pair quantifies the binary cache's cold-start elimination.

func BenchmarkAnalyzeSourceCold(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	src := dexasm.Format(app.Build())
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := nadroid.AnalyzeSource(context.Background(), src,
			nadroid.Options{Store: st, IRCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeSourceWarm(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	src := dexasm.Format(app.Build())
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := nadroid.Options{Store: st, IRCache: true}
	if _, err := nadroid.AnalyzeSource(context.Background(), src, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nadroid.AnalyzeSource(context.Background(), src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusWarmSweep is the acceptance sweep for the derived
// caches: the full 27-app corpus, analyzed and validated against a
// warmed store, sequentially. Modeling is replaced by blob decode and
// validation by witness replay, so an iteration is the steady-state
// cost of re-auditing the whole corpus.
func BenchmarkCorpusWarmSweep(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	type unit struct {
		name string
		src  string
	}
	var work []unit
	for _, app := range corpus.Apps() {
		work = append(work, unit{app.Name(), dexasm.Format(app.Build())})
	}
	sweep := func() int {
		harmful := 0
		for _, u := range work {
			res, err := nadroid.AnalyzeSource(context.Background(), u.src, nadroid.Options{
				Validate: true,
				Explore:  explore.Options{MaxSchedules: 3000},
				Store:    st,
				IRCache:  true,
			})
			if err != nil {
				b.Fatalf("%s: %v", u.name, err)
			}
			harmful += len(res.Harmful)
		}
		return harmful
	}
	sweep() // populate the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(sweep()), "true-harmful")
	}
}

// BenchmarkCorpusGeneration measures app synthesis alone (excluded from
// all pipeline numbers).
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range corpus.Apps() {
			app.Build()
		}
	}
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// BenchmarkNoSleepDetection measures the §9 extension over the corpus
// model with the most threads.
func BenchmarkNoSleepDetection(b *testing.B) {
	m := phaseApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nosleep.Detect(m)
	}
}

// BenchmarkDynamicDetector measures the §2.3 comparator: one recorded
// execution plus offline HB race detection.
func BenchmarkDynamicDetector(b *testing.B) {
	app, _ := corpus.ByName("ConnectBot")
	pkg := app.Build()
	h := cha.New(pkg.Program)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := interp.NewWorld(pkg, h, interp.Options{Record: true})
		interp.Run(w, nil)
		races := dynrace.Analyze(w.Recorded(), dynrace.Options{UseFreeOnly: true})
		b.ReportMetric(float64(len(races)), "dynamic-races")
	}
}

// Incremental re-analysis benchmarks (PR 9): the one-method-edit
// turnaround. Setup analyzes the pristine app into a store; each
// iteration re-analyzes a body-edited variant, which anchors on the
// stored base run and re-derives only the changed method's facts. The
// mutated variant's own cache artifacts are deleted between iterations
// so every iteration measures the incremental path, not a blob replay.

// wipeNewCacheFiles removes ircache/incr files that appeared after the
// baseline snapshot, so the next iteration's mutated app misses the
// blob cache and anchors on the pristine base run again.
func wipeNewCacheFiles(b *testing.B, dir string, baseline map[string]bool) {
	b.Helper()
	for _, sub := range []string{"ircache", "incr"} {
		names, err := filepath.Glob(filepath.Join(dir, sub, "*"))
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range names {
			if !baseline[n] {
				if err := os.Remove(n); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func cacheFileSnapshot(b *testing.B, dir string) map[string]bool {
	b.Helper()
	seen := make(map[string]bool)
	for _, sub := range []string{"ircache", "incr"} {
		names, err := filepath.Glob(filepath.Join(dir, sub, "*"))
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range names {
			seen[n] = true
		}
	}
	return seen
}

func BenchmarkAnalyzeSourceIncremental(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	src := dexasm.Format(app.Build())
	mutated := app.Build()
	mutations[0].fn(b, mutated)
	mutSrc := dexasm.Format(mutated)

	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := nadroid.Options{Store: st, IRCache: true, Incremental: true}
	if _, err := nadroid.AnalyzeSource(context.Background(), src, opts); err != nil {
		b.Fatal(err)
	}
	baseline := cacheFileSnapshot(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nadroid.AnalyzeSource(context.Background(), mutSrc, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Disposition != nadroid.DispositionIncremental {
			b.Fatalf("disposition = %q, want incremental", res.Disposition)
		}
		b.StopTimer()
		wipeNewCacheFiles(b, dir, baseline)
		b.StartTimer()
	}
}

// BenchmarkTable1IncrementalEdit sweeps the whole Table-1 corpus: every
// app gets a one-method body edit and an incremental re-analysis
// against its stored base run. The incremental-runs metric confirms the
// sweep stayed on the fast path.
func BenchmarkTable1IncrementalEdit(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := nadroid.Options{Store: st, IRCache: true, Incremental: true}
	type unit struct{ name, mutSrc string }
	var work []unit
	for _, app := range corpus.Apps() {
		if _, err := nadroid.AnalyzeSource(context.Background(), dexasm.Format(app.Build()), opts); err != nil {
			b.Fatalf("%s: %v", app.Name(), err)
		}
		mutated := app.Build()
		mutations[0].fn(b, mutated)
		work = append(work, unit{app.Name(), dexasm.Format(mutated)})
	}
	baseline := cacheFileSnapshot(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		incremental := 0
		for _, u := range work {
			res, err := nadroid.AnalyzeSource(context.Background(), u.mutSrc, opts)
			if err != nil {
				b.Fatalf("%s: %v", u.name, err)
			}
			if res.Disposition == nadroid.DispositionIncremental {
				incremental++
			}
		}
		b.ReportMetric(float64(incremental), "incremental-runs")
		b.StopTimer()
		wipeNewCacheFiles(b, dir, baseline)
		b.StartTimer()
	}
}
