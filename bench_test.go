// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8). Each benchmark reports, besides time, the headline
// numbers of its artifact as custom metrics so `go test -bench` output
// doubles as the reproduction record:
//
//	BenchmarkTable1Pipeline*     — Table 1 (potential/sound/unsound warnings),
//	                               sequential, parallel and with provenance
//	BenchmarkFigure5SoundFilters — Figure 5(a) percentages
//	BenchmarkFigure5Unsound      — Figure 5(b) percentages
//	BenchmarkTable2Injection     — Table 2 (28 injected, missed, pruned)
//	BenchmarkTable3DEvA          — Table 3 (detected/filtered/not-detected)
//	BenchmarkAblation*           — design-choice ablation (k)
//	BenchmarkDEvAAnalysis,
//	BenchmarkNoSleepDetection,
//	BenchmarkDynamicDetector     — the baselines and the §9 extension
//	BenchmarkCorpusGeneration    — app synthesis, outside every pipeline number
//
// The repository benchmark is bench/ (`bash bench/run.sh`): it times
// cold, validating, warm-store and incremental analyses end to end and
// per layer, and checks every op against testdata/golden/. The
// benchmarks here cover what it leaves out: parallel and provenance
// sweeps, k, the §8 artifacts and the baselines.
package nadroid_test

import (
	"testing"

	"nadroid"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/deva"
	"nadroid/internal/dynrace"
	"nadroid/internal/eval"
	"nadroid/internal/filters"
	"nadroid/internal/inject"
	"nadroid/internal/interp"
	"nadroid/internal/nosleep"
	"nadroid/internal/threadify"
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
// provenance mode: the filters keep their trail and every warning
// assembles an evidence record. The delta against
// BenchmarkTable1Pipeline is the provenance overhead quoted in
// EXPERIMENTS.md; the headline warning counts must not move.
func BenchmarkTable1PipelineProvenance(b *testing.B) { benchmarkTable1Pipeline(b, 1, true) }

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

// phaseApp builds the thread model of Mms, a mid-sized app.
func phaseApp(b *testing.B) *threadify.Model {
	b.Helper()
	app, _ := corpus.ByName("Mms")
	m, err := threadify.Build(app.Build(), threadify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
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

// BenchmarkDEvAAnalysis isolates the baseline's cost on Mms.
func BenchmarkDEvAAnalysis(b *testing.B) {
	app, _ := corpus.ByName("Mms")
	pkg := app.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deva.Analyze(pkg)
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
