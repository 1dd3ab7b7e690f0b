// Package eval regenerates every table and figure of the paper's
// evaluation (§8) over the synthetic corpus:
//
//   - Table 1: per-app pipeline results with origin classification and
//     dynamically validated harmful UAFs.
//   - Figure 5(a)/(b): independent effectiveness of the sound and unsound
//     filters.
//   - Table 2: the artificial-UAF false-negative study (package inject).
//   - Table 3: the DEvA comparison (package deva).
//   - §8.8: the phase timing breakdown.
package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/deva"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/inject"
	"nadroid/internal/report"
	"nadroid/internal/uaf"
)

// Table1Row is one application's evaluation record.
type Table1Row struct {
	Group string
	App   string
	LOC   int // generated instruction count (the corpus LOC stand-in)
	EC    int
	PC    int
	T     int

	Potential    int
	AfterSound   int
	AfterUnsound int

	// ByCategory classifies the surviving warnings (§7 taxonomy).
	ByCategory map[report.Category]int
	// TrueHarmful is the dynamically validated count (explorer witness).
	TrueHarmful int
	// SeededTrue/SeededFP are the generator's ground truth.
	SeededTrue int
	SeededFP   int
	// FPByKind breaks down the seeded false positives by §8.5 source.
	FPByKind map[string]int

	Timing nadroid.Timing
}

// Table1Options bounds the expensive validation step.
type Table1Options struct {
	// Validate runs the schedule explorer per surviving warning.
	Validate bool
	// MaxSchedules bounds each warning's exploration (default 3000).
	MaxSchedules int
	// Apps restricts the run to the named apps (nil = all 27).
	Apps []string
	// Workers bounds the corpus-level fan-out (apps analyzed
	// concurrently). 0 selects GOMAXPROCS; 1 forces a sequential sweep.
	// Rows come back in corpus order either way.
	Workers int
}

// Table1 runs the full pipeline (and optional dynamic validation) over
// the corpus, fanning independent apps across Workers.
func Table1(opts Table1Options) ([]Table1Row, error) {
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 3000
	}
	want := map[string]bool{}
	for _, a := range opts.Apps {
		want[a] = true
	}
	var sel []corpus.App
	var work []nadroid.CorpusApp
	for _, app := range corpus.Apps() {
		if len(want) > 0 && !want[app.Name()] {
			continue
		}
		app := app
		sel = append(sel, app)
		work = append(work, nadroid.CorpusApp{Name: app.Name(), Build: app.Build})
	}
	results := nadroid.AnalyzeCorpus(work, nadroid.CorpusOptions{
		Workers: opts.Workers,
		Analysis: nadroid.Options{
			Validate: opts.Validate,
			Explore:  explore.Options{MaxSchedules: opts.MaxSchedules},
		},
	})
	// §8.8: each static phase time is the median over timingRuns runs,
	// the run above included.
	timings := make([][]nadroid.Timing, len(sel))
	collect := func(results []nadroid.CorpusResult) {
		for i, r := range results {
			if r.Err == nil {
				timings[i] = append(timings[i], r.Result.Timing)
			}
		}
	}
	collect(results)
	for run := 1; run < timingRuns; run++ {
		collect(nadroid.AnalyzeCorpus(work, nadroid.CorpusOptions{Workers: opts.Workers}))
	}
	var rows []Table1Row
	for i, app := range sel {
		res, err := results[i].Result, results[i].Err
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %v", app.Name(), err)
		}
		pkg := res.Model.Pkg
		st := res.Model.Stats()
		row := Table1Row{
			Group:        app.Spec.Group,
			App:          app.Name(),
			LOC:          pkg.Size(),
			EC:           st.EC,
			PC:           st.PC,
			T:            st.T,
			Potential:    res.Stats.Potential,
			AfterSound:   res.Stats.AfterSound,
			AfterUnsound: res.Stats.AfterUnsound,
			ByCategory:   res.Report.ByCategory,
			TrueHarmful:  len(res.Harmful),
			SeededTrue:   app.Spec.TrueTotal(),
			SeededFP:     app.Spec.FPTotal(),
			FPByKind: map[string]int{
				"path-insens": app.Spec.FPPathInsens,
				"points-to":   app.Spec.FPPointsTo,
				"not-reach":   app.Spec.FPNotReach,
				"missing-hb":  app.Spec.FPMissingHB,
			},
			Timing: medianTiming(timings[i], res.Timing.Validation),
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable1 formats rows like the paper's Table 1.
func RenderTable1(rows []Table1Row, validated bool) string {
	var b strings.Builder
	trueHdr := "SeedTrue"
	if validated {
		trueHdr = "TrueUAF"
	}
	fmt.Fprintf(&b, "%-6s %-14s %6s %4s %4s %3s | %6s %6s %7s | %-30s | %7s | FP(path/pts/reach/hb)\n",
		"Group", "App", "LOC", "EC", "PC", "T", "Potent", "Sound", "Unsound", "Remaining by type", trueHdr)
	for _, r := range rows {
		cats := make([]string, 0, 6)
		for _, c := range report.Categories() {
			if n := r.ByCategory[c]; n > 0 {
				cats = append(cats, fmt.Sprintf("%s:%d", c, n))
			}
		}
		trueCol := r.SeededTrue
		if validated {
			trueCol = r.TrueHarmful
		}
		fmt.Fprintf(&b, "%-6s %-14s %6d %4d %4d %3d | %6d %6d %7d | %-30s | %7d | %d/%d/%d/%d\n",
			r.Group, r.App, r.LOC, r.EC, r.PC, r.T,
			r.Potential, r.AfterSound, r.AfterUnsound,
			strings.Join(cats, " "), trueCol,
			r.FPByKind["path-insens"], r.FPByKind["points-to"], r.FPByKind["not-reach"], r.FPByKind["missing-hb"])
	}
	return b.String()
}

// Figure5 holds the independent filter-effectiveness measurement.
type Figure5 struct {
	// Potential is the test-group warning total.
	Potential int
	// SoundRemoved maps filter name -> warnings removed when applied
	// alone to the potential set (Figure 5(a)).
	SoundRemoved map[string]int
	// AfterSound is the count surviving all sound filters in sequence.
	AfterSound int
	// UnsoundRemoved maps filter name -> warnings removed when applied
	// alone to the after-sound set (Figure 5(b)). The three mayHB
	// filters (RHB/CHB/PHB) are also aggregated under "mayHB".
	UnsoundRemoved map[string]int
	// AfterUnsound is the count surviving the full pipeline.
	AfterUnsound int
}

// Figure5Data measures filter effectiveness over the 20 test apps, each
// filter independently (as the paper notes, the bars overlap).
func Figure5Data() (*Figure5, error) {
	out := &Figure5{
		SoundRemoved:   make(map[string]int),
		UnsoundRemoved: make(map[string]int),
	}
	for _, app := range corpus.TestApps() {
		// Analyze without filters, so each filter can be measured alone
		// against the potential set.
		res, err := nadroid.Analyze(app.Build(), nadroid.Options{SkipSoundFilters: true, SkipUnsoundFilters: true})
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %v", app.Name(), err)
		}
		d := res.Detection
		soundRemoved, start := filters.MeasureIndependent(d, filters.SoundFilters(), false)
		out.Potential += start
		for k, v := range soundRemoved {
			out.SoundRemoved[k] += v
		}
		unsoundRemoved, afterSound := filters.MeasureIndependent(d, filters.UnsoundFilters(), true)
		out.AfterSound += afterSound
		for k, v := range unsoundRemoved {
			out.UnsoundRemoved[k] += v
		}
		out.AfterUnsound += filters.Run(d).AfterUnsound
	}
	out.UnsoundRemoved["mayHB"] = out.UnsoundRemoved[filters.NameRHB] +
		out.UnsoundRemoved[filters.NameCHB] + out.UnsoundRemoved[filters.NamePHB]
	return out, nil
}

// RenderFigure5 prints the two bar groups as percentage series.
func RenderFigure5(f *Figure5) string {
	var b strings.Builder
	pct := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(n) / float64(of)
	}
	fmt.Fprintf(&b, "Figure 5(a) — sound filters, applied independently (potential = %d):\n", f.Potential)
	for _, name := range []string{filters.NameMHB, filters.NameIG, filters.NameIA} {
		fmt.Fprintf(&b, "  %-4s filtered %4d (%.0f%%)\n", name, f.SoundRemoved[name], pct(f.SoundRemoved[name], f.Potential))
	}
	fmt.Fprintf(&b, "  All  remaining %4d (%.0f%% filtered)\n", f.AfterSound, pct(f.Potential-f.AfterSound, f.Potential))
	fmt.Fprintf(&b, "Figure 5(b) — unsound filters after sound (remaining = %d):\n", f.AfterSound)
	for _, name := range []string{"mayHB", filters.NameMA, filters.NameUR, filters.NameTT} {
		fmt.Fprintf(&b, "  %-5s filtered %4d (%.0f%%)\n", name, f.UnsoundRemoved[name], pct(f.UnsoundRemoved[name], f.AfterSound))
	}
	fmt.Fprintf(&b, "  All   remaining %4d (%.0f%% filtered)\n", f.AfterUnsound, pct(f.AfterSound-f.AfterUnsound, f.AfterSound))
	return b.String()
}

// RenderTable2 formats the injection-study rows.
func RenderTable2(rows []inject.Row) string {
	var b strings.Builder
	kinds := inject.KindsInOrder(rows)
	fmt.Fprintf(&b, "%-12s", "App")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %13s", k)
	}
	fmt.Fprintf(&b, " %4s %7s %14s\n", "All", "Missed", "PrunedUnsound")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.App)
		for _, k := range kinds {
			fmt.Fprintf(&b, " %13d", r.ByKind[k])
		}
		fmt.Fprintf(&b, " %4d %7d %14d\n", r.All(), r.Missed(), r.PrunedUnsound())
	}
	all, missed, pruned := inject.Totals(rows)
	fmt.Fprintf(&b, "%-12s", "Total")
	for range kinds {
		fmt.Fprintf(&b, " %13s", "")
	}
	fmt.Fprintf(&b, " %4d %7d %14d\n", all, missed, pruned)
	return b.String()
}

// Table3Row is one DEvA-harmful warning with nAdroid's verdict.
type Table3Row struct {
	App          string
	Field        string
	UseCallback  string
	FreeCallback string
	// Detected: nAdroid's detector (with only the IG/IA sound filters,
	// per §8.7's methodology) reports the same pair.
	Detected bool
	// Filtered: the full nAdroid filter pipeline prunes it.
	Filtered bool
	// FilteredBy names the pruning filter when Filtered.
	FilteredBy string
}

// Verdict renders the paper's last-column phrasing.
func (r Table3Row) Verdict() string {
	switch {
	case !r.Detected:
		return "Not detected"
	case r.Filtered:
		return "Detected & Filtered (" + r.FilteredBy + ")"
	default:
		return "Detected & Reported"
	}
}

// Table3 compares nAdroid against DEvA on the training apps.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, app := range corpus.TrainApps() {
		pkg := app.Build()
		anomalies := deva.Analyze(pkg)
		if len(anomalies) == 0 {
			continue
		}
		res, err := nadroid.Analyze(pkg, nadroid.Options{})
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %v", app.Name(), err)
		}
		byField := fieldVerdicts(res.Detection)
		for _, a := range anomalies {
			row := Table3Row{
				App:          app.Name(),
				Field:        a.Field.String(),
				UseCallback:  a.UseCallback,
				FreeCallback: a.FreeCallback,
			}
			if v, ok := byField[a.Field.String()]; ok {
				row.Detected = true
				row.Filtered = !v.reported
				if row.Filtered {
					row.FilteredBy = v.by
				}
			}
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].App != rows[j].App {
			return rows[i].App < rows[j].App
		}
		return rows[i].Field < rows[j].Field
	})
	return rows, nil
}

// fieldVerdict is nAdroid's Table 3 verdict on one detected field.
type fieldVerdict struct {
	// reported is set while any of the field's warnings survives.
	reported bool
	// by names the latest filter, in pipeline order, that removed one of
	// the field's pairs. The filters run one after another, so for a
	// filtered field this is the filter that removed its last pair.
	by string
}

// fieldVerdicts folds a filtered detection into one verdict per field.
func fieldVerdicts(d *uaf.Detection) map[string]fieldVerdict {
	order := make(map[string]int)
	for i, f := range append(filters.SoundFilters(), filters.UnsoundFilters()...) {
		order[f.Name()] = i
	}
	out := make(map[string]fieldVerdict)
	for _, w := range d.Warnings {
		v := out[w.Field.String()]
		v.reported = v.reported || w.Alive()
		for _, name := range w.FilteredBy {
			if v.by == "" || order[name] > order[v.by] {
				v.by = name
			}
		}
		out[w.Field.String()] = v
	}
	return out
}

// RenderTable3 formats the DEvA comparison.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-28s %-34s %-34s %s\n", "App", "Field", "Use Callback", "Free Callback", "nAdroid")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-28s %-34s %-34s %s\n", r.App, r.Field, r.UseCallback, r.FreeCallback, r.Verdict())
	}
	return b.String()
}

// timingRuns is how many static runs Table 1's per-app phase times are
// the median of. A corpus sweep's static time is about 0.2 s, and a
// single run lets one host stall of 10–20 ms, landing in a phase that
// normally takes 0.1–3 ms, decide the §8.8 split.
const timingRuns = 5

// medianTiming returns the per-phase median of the static phase times,
// with the given validation time.
func medianTiming(runs []nadroid.Timing, validation time.Duration) nadroid.Timing {
	median := func(phase func(nadroid.Timing) time.Duration) time.Duration {
		ds := make([]time.Duration, len(runs))
		for i, r := range runs {
			ds[i] = phase(r)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	return nadroid.Timing{
		Modeling:   median(func(t nadroid.Timing) time.Duration { return t.Modeling }),
		Detection:  median(func(t nadroid.Timing) time.Duration { return t.Detection }),
		Filtering:  median(func(t nadroid.Timing) time.Duration { return t.Filtering }),
		Validation: validation,
	}
}

// TimingBreakdown aggregates §8.8's phase split over the given rows.
type TimingBreakdown struct {
	Modeling, Detection, Filtering          time.Duration
	ModelingPct, DetectionPct, FilteringPct float64
}

// Timing computes the phase percentages from Table 1 rows.
func Timing(rows []Table1Row) TimingBreakdown {
	var t TimingBreakdown
	for _, r := range rows {
		t.Modeling += r.Timing.Modeling
		t.Detection += r.Timing.Detection
		t.Filtering += r.Timing.Filtering
	}
	total := t.Modeling + t.Detection + t.Filtering
	if total > 0 {
		t.ModelingPct = 100 * float64(t.Modeling) / float64(total)
		t.DetectionPct = 100 * float64(t.Detection) / float64(total)
		t.FilteringPct = 100 * float64(t.Filtering) / float64(total)
	}
	return t
}

// RenderTiming formats the §8.8 breakdown.
func RenderTiming(t TimingBreakdown) string {
	return fmt.Sprintf(
		"Phase breakdown (§8.8): modeling %v (%.2f%%), detection %v (%.2f%%), filtering %v (%.2f%%)\n",
		t.Modeling.Round(time.Millisecond), t.ModelingPct,
		t.Detection.Round(time.Millisecond), t.DetectionPct,
		t.Filtering.Round(time.Millisecond), t.FilteringPct)
}
