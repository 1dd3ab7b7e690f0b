package nadroid

import (
	"context"
	"runtime"
	"sync"

	"nadroid/internal/apk"
	"nadroid/internal/dexasm"
	"nadroid/internal/obs"
	"nadroid/internal/store"
)

// CorpusApp is one unit of work for AnalyzeCorpus: a named application
// plus a builder producing its package. Building runs inside the worker
// pool, so synthesis cost parallelizes along with the analysis.
type CorpusApp struct {
	Name  string
	Build func() *apk.Package
}

// CorpusResult pairs one app with its analysis outcome. Exactly one of
// Result and Err is set unless the run was canceled before the app was
// dispatched, in which case Err carries the context error.
type CorpusResult struct {
	App    string
	Result *Result
	Err    error
}

// CorpusOptions configures a corpus sweep.
type CorpusOptions struct {
	// Analysis is applied to every app. When more than one app runs at a
	// time, Analysis.Workers 0 means each app validates one warning at a
	// time: coarse-grained parallelism across independent apps already
	// fills the cores, and a validation pool on top of it only adds
	// scheduling delay.
	Analysis Options
	// Workers bounds the number of apps analyzed concurrently.
	// 0 selects GOMAXPROCS; 1 forces a sequential sweep.
	Workers int
}

// AnalyzeCorpus runs the full pipeline over independent applications on
// a bounded worker pool. Results are returned in input order, and each
// app's analysis is deterministic regardless of worker count, so the
// aggregate output is identical for any Workers setting.
func AnalyzeCorpus(apps []CorpusApp, opts CorpusOptions) []CorpusResult {
	return AnalyzeCorpusContext(context.Background(), apps, opts)
}

// AnalyzeCorpusContext is AnalyzeCorpus honoring ctx: cancellation stops
// dispatching new apps and aborts in-flight analyses at their next phase
// boundary; affected entries report the context error.
func AnalyzeCorpusContext(ctx context.Context, apps []CorpusApp, opts CorpusOptions) []CorpusResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(apps) {
		workers = len(apps)
	}
	ctx, span := obs.Start(ctx, "analyze.corpus",
		obs.KV("apps", len(apps)), obs.KV("workers", workers))
	defer span.End()

	results := make([]CorpusResult, len(apps))
	if len(apps) == 0 {
		return results
	}
	idxs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxs {
				app := apps[i]
				results[i].App = app.Name
				if err := ctx.Err(); err != nil {
					results[i].Err = err
					continue
				}
				pkg := app.Build()
				aopts := opts.Analysis
				if aopts.Workers == 0 && workers > 1 {
					aopts.Workers = 1
				}
				// The IR digest is per-app and keys every store cache, the
				// witness cache included; derive it from the canonical
				// dexasm rendering so corpus sweeps share cache entries
				// with CLI and service runs of the same program.
				if aopts.Store != nil && aopts.IRDigest == "" {
					aopts.IRDigest = store.IRDigest(dexasm.Format(pkg))
				}
				res, err := AnalyzeContext(ctx, pkg, aopts)
				results[i].Result, results[i].Err = res, err
			}
		}()
	}
	for i := range apps {
		idxs <- i
	}
	close(idxs)
	wg.Wait()
	return results
}
