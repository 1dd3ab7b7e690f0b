// Package nadroid is a from-scratch Go reproduction of "nAdroid:
// Statically Detecting Ordering Violations in Android Applications"
// (Fu, Lee, Jung — CGO 2018): a static use-after-free ordering-violation
// detector for Android's hybrid event/thread concurrency model.
//
// The pipeline mirrors the paper's Figure 2:
//
//  1. Modeling (§4): threadification converts every event callback into a
//     modeled thread (internal/threadify).
//  2. Detection (§5): a Chord-style k-object-sensitive race detector
//     finds racy use/free pairs (internal/pointsto, internal/race,
//     internal/uaf).
//  3. Filtering (§6): sound (MHB, IG, IA) and unsound (RHB, CHB, PHB,
//     MA, UR, TT) filters prune false and benign warnings
//     (internal/filters).
//  4. Review aids (§7): surviving warnings are classified (EC-EC … C-NT)
//     with callback lineage (internal/report), and can be mechanically
//     validated by exploring event schedules until a
//     NullPointerException witnesses the UAF (internal/explore).
//
// Applications are authored with internal/appbuilder or loaded from the
// dexasm text format (internal/dexasm); the 27-app synthetic corpus
// reproducing the paper's evaluation lives in internal/corpus.
package nadroid

import (
	"context"
	"time"

	"nadroid/internal/apk"
	"nadroid/internal/detect"
	"nadroid/internal/escape"
	"nadroid/internal/evidence"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/obs"
	"nadroid/internal/report"
	"nadroid/internal/store"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// Options configures an analysis run.
type Options struct {
	// K is the points-to object-sensitivity depth (default 2, the
	// paper's setting).
	K int
	// SkipSoundFilters disables the §6.1 filters.
	SkipSoundFilters bool
	// SkipUnsoundFilters disables the §6.2 filters (for users who demand
	// soundness; the unsound filters then act only as ranking).
	SkipUnsoundFilters bool
	// MultiLooper drops the single-looper assumption (§8.1), downgrading
	// the IG/IA filters to require locks even between looper callbacks.
	MultiLooper bool
	// Validate runs the schedule explorer over surviving warnings and
	// fills Result.Harmful.
	Validate bool
	// Explore bounds validation when Validate is set.
	Explore explore.Options
	// Workers bounds the validation sweep (warnings validated
	// concurrently) unless Explore.Workers is set. 0 selects GOMAXPROCS;
	// 1 validates one warning at a time. Modeling, detection and
	// filtering are sequential. Results are identical for any setting.
	Workers int
	// Detectors selects the bug-family detectors to run by registry name
	// (internal/detect). nil runs every registered detector; an empty
	// non-nil set or an unknown name is an error. Disabling "uaf" skips
	// the §6 filter pipeline and yields an empty classic report.
	Detectors []string
	// Provenance records full warning provenance: each warning's Racy
	// derivation (written down from its first racy pair's accesses),
	// aliasing chain, per-filter verdicts and validation witness,
	// assembled into Result.Evidence keyed by fingerprint. Off by
	// default: the records and the filter trail are for triage, and
	// they make a corpus sweep slower and allocate more (see
	// BenchmarkTable1PipelineProvenance).
	Provenance bool
	// Store, when set together with IRDigest, enables the persistent
	// derived caches: validation outcomes are read from and written to
	// the store's witness cache, and (with IRCache) the binary
	// cold-start cache replaces the modeling phase on warm runs. Both
	// caches are behavior-transparent.
	Store *store.Store
	// IRDigest is the content digest of the app's canonical program
	// text (store.IRDigest over the dexasm rendering). It keys every
	// derived-cache entry; empty disables both caches.
	IRDigest string
	// IRCache additionally enables the binary cold-start cache (parsed
	// IR + threadified model + solved points-to facts).
	IRCache bool
	// Incremental enables incremental re-analysis (with Store and
	// IRDigest; IRCache is not needed): when the cold-start cache misses
	// because the app changed, the run diffs the program
	// method-by-method against the nearest stored base run's partition,
	// solves points-to afresh, and replays every per-thread access set
	// whose digest gate passes. Results are identical to a cold run;
	// Result.Disposition reports what happened.
	Incremental bool
	// irProbed marks that the cold-start cache was already consulted
	// for this run (AnalyzeSource probes before parsing), so the
	// pipeline core does not probe — and count — a second time.
	irProbed bool
}

// Timing is the per-phase wall-clock split (§8.8), in the paper's phases
// (Fig. 2): Modeling is threadification; Detection is the Chord side —
// the points-to solve, thread escape and the detectors. The points-to
// solve runs inside threadification here (it discovers the spawned
// threads), so the "modeling" trace span contains it, but its time is
// charged to Detection.
type Timing struct {
	Modeling   time.Duration
	Detection  time.Duration
	Filtering  time.Duration
	Validation time.Duration
}

// Total sums the phases.
func (t Timing) Total() time.Duration {
	return t.Modeling + t.Detection + t.Filtering + t.Validation
}

// Result bundles everything a caller may want from a run.
type Result struct {
	// Model is the threadified program.
	Model *threadify.Model
	// Detection holds every potential warning, with filtered thread
	// pairs annotated by the filter that removed them. nil when the uaf
	// detector was disabled via Options.Detectors.
	Detection *uaf.Detection
	// Detect bundles the full detector-pipeline output: which detectors
	// ran, per-detector warning counts, the structured no-sleep result,
	// and the generic warnings of the async-error families.
	Detect *detect.Results
	// Stats summarizes the filter pipeline.
	Stats *filters.Stats
	// Report classifies and ranks the survivors.
	Report *report.Report
	// Harmful lists the validations of the survivors a dynamic witness
	// confirmed, in survivor order, each with its witness schedule (only
	// when Options.Validate was set). A witness-cache hit carries the
	// stored schedule, so the witness is there on warm runs too.
	Harmful []explore.Validation
	// Evidence maps warning fingerprints to their provenance records
	// (only when Options.Provenance was set). Every UAF warning gets a
	// record, including ones the filters killed — "why was this
	// filtered" is half the point of the trail.
	Evidence map[string]*evidence.Evidence
	// Timing is the phase breakdown.
	Timing Timing
	// Disposition reports how the run's modeling state was obtained:
	// DispositionCold (computed from scratch), DispositionWarm
	// (restored from the cold-start blob), or DispositionIncremental
	// (diffed against a base run with at least one thread's access
	// partition replayed).
	Disposition string
}

// Analyze runs the full nAdroid pipeline on one application package. It
// is AnalyzeContext with a background context; callers that need
// deadlines or cancellation should use AnalyzeContext directly.
func Analyze(pkg *apk.Package, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), pkg, opts)
}

// AnalyzeContext runs the full nAdroid pipeline, honoring ctx between
// the modeling, detection, filtering, and validation phases (and, per
// schedule, inside validation — the only phase whose runtime is
// open-ended). A canceled or expired context aborts the run with
// ctx.Err(); no partial Result is returned.
//
// ctx also carries the observability collectors (internal/obs): when a
// tracer, metric set, or logger is attached, every phase and its
// sub-stages record spans, deep counters, and structured phase logs.
// With nothing attached the instrumentation is a no-op.
func AnalyzeContext(ctx context.Context, pkg *apk.Package, opts Options) (*Result, error) {
	return analyze(ctx, pkg, nil, nil, opts)
}

// analyze is the shared pipeline core. A non-nil model means the caller
// already restored pkg+model (and the escape result) from the cold-start
// cache and the modeling phase is skipped; a nil model runs cold
// modeling and, after the detection context is built, writes the cache
// when enabled.
func analyze(ctx context.Context, pkg *apk.Package, model *threadify.Model, esc *escape.Result, opts Options) (*Result, error) {
	res := &Result{}
	// Resolve the detector set before any expensive phase runs.
	detectors, err := detect.Select(opts.Detectors)
	if err != nil {
		return nil, err
	}
	detectorNames := make([]string, len(detectors))
	for i, d := range detectors {
		detectorNames[i] = d.Name()
	}
	ctx, root := obs.Start(ctx, "analyze", obs.KV("app", pkg.Name), obs.KV("k", opts.K))
	defer root.End()
	log := obs.Logger(ctx)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if model != nil {
		res.Disposition = DispositionWarm
	} else if dec := loadIRCache(ctx, opts); dec != nil {
		pkg = dec.Pkg
		model = dec.Model
		esc = dec.Escape
		res.Disposition = DispositionWarm
	}
	cold := model == nil
	var inc *incrRun
	if cold {
		mctx, span := obs.Start(ctx, "modeling")
		if incrEnabled(opts) {
			// The incremental path builds the model and the accesses
			// together (access cost moves into the modeling bucket).
			model, inc, err = prepareIncremental(mctx, pkg, opts)
		} else {
			model, err = threadify.BuildContext(mctx, pkg, threadify.Options{K: opts.K})
		}
		span.End()
		if err != nil {
			return nil, err
		}
		res.Disposition = DispositionCold
		if inc != nil {
			res.Disposition = inc.disposition
		}
	}
	res.Model = model
	solve := model.PTS.SolveTime()
	res.Timing.Modeling = time.Since(start) - solve
	log.Info("phase done", "phase", "modeling",
		"ms", res.Timing.Modeling.Milliseconds(), "threads", len(model.Threads))

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	dctx, span := obs.Start(ctx, "detection")
	dopts := detect.Options{Escape: esc}
	if inc != nil {
		dopts.Accesses = inc.accesses
	}
	dc := detect.BuildContext(dctx, pkg.Name, model, dopts)
	dres, err := detect.Run(dctx, dc, detectors)
	span.End()
	if err != nil {
		return nil, err
	}
	if cold {
		// The blob carries the escape facts the context just solved, so
		// warm runs skip parsing, modeling, AND the escape solve.
		saveIRCache(ctx, pkg, model, dc.Escape, opts)
		if inc != nil {
			saveIncrPartition(ctx, inc.partition, opts)
		}
	}
	res.Detect = dres
	res.Detection = dres.UAF
	res.Timing.Detection = time.Since(start) + solve
	warnings := len(dres.Warnings)
	if res.Detection != nil {
		warnings += len(res.Detection.Warnings)
	}
	log.Info("phase done", "phase", "detection",
		"ms", res.Timing.Detection.Milliseconds(), "warnings", warnings)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	var trail *filters.Trail
	if opts.Provenance {
		trail = filters.NewTrail()
	}
	if res.Detection != nil {
		fctx, span := obs.Start(ctx, "filtering")
		computed := dc.Origins.Computed()
		res.Stats = filters.RunWith(fctx, res.Detection, filters.RunConfig{
			Options:     filters.Options{MultiLooper: opts.MultiLooper},
			SkipSound:   opts.SkipSoundFilters,
			SkipUnsound: opts.SkipUnsoundFilters,
			MHB:         dc.MHB,
			Origins:     dc.Origins,
			Trail:       trail,
		})
		computed = dc.Origins.Computed() - computed
		span.SetAttr("origins", computed)
		span.End()
		obs.Add(ctx, "origins_computed", int64(computed))
	} else {
		// The uaf detector is disabled: nothing to filter.
		res.Stats = &filters.Stats{Removed: make(map[string]int)}
	}
	res.Timing.Filtering = time.Since(start)
	log.Info("phase done", "phase", "filtering",
		"ms", res.Timing.Filtering.Milliseconds(), "surviving", res.Stats.AfterUnsound)

	_, span = obs.Start(ctx, "report")
	if res.Detection != nil {
		res.Report = report.New(pkg.Name, res.Detection)
	} else {
		res.Report = &report.Report{App: pkg.Name, Model: model, ByCategory: make(map[report.Category]int)}
	}
	for _, w := range dres.Warnings {
		res.Report.Extras = append(res.Report.Extras, report.Extra{
			Detector:    w.Detector,
			Tag:         w.Tag,
			Subject:     w.Subject,
			Site:        w.Site,
			Lineage:     w.Lineage,
			Detail:      w.Detail,
			Fingerprint: w.Fingerprint,
		})
	}
	span.End()

	if opts.Validate && res.Detection != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start = time.Now()
		eopts := opts.Explore
		if eopts.Workers == 0 {
			eopts.Workers = opts.Workers
		}
		vctx, span := obs.Start(ctx, "validation")
		vals, err := validateWithCache(vctx, pkg, res.Model, dc.Accesses, res.Detection.Alive(), opts, eopts, detectorNames)
		var harmful []explore.Validation
		for _, v := range vals {
			if v.Harmful {
				harmful = append(harmful, v)
			}
		}
		span.SetAttr("harmful", len(harmful))
		span.End()
		if err != nil {
			return nil, err
		}
		res.Harmful = harmful
		res.Timing.Validation = time.Since(start)
		log.Info("phase done", "phase", "validation",
			"ms", res.Timing.Validation.Milliseconds(), "harmful", len(harmful))
	}

	if opts.Provenance && res.Detection != nil {
		_, span := obs.Start(ctx, "evidence")
		res.Evidence = assembleEvidence(pkg.Name, dc, res, trail)
		span.SetAttr("records", len(res.Evidence))
		span.End()
	}
	return res, nil
}
