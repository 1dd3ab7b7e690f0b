package nadroid

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"nadroid/internal/apk"
	"nadroid/internal/dexasm"
	"nadroid/internal/escape"
	"nadroid/internal/explore"
	"nadroid/internal/fingerprint"
	"nadroid/internal/ircache"
	"nadroid/internal/obs"
	"nadroid/internal/race"
	"nadroid/internal/store"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// This file wires the two derived caches into the pipeline:
//
//   - the IR cold-start cache (internal/ircache): with Options.Store,
//     Options.IRCache, and Options.IRDigest set, AnalyzeContext loads
//     the parsed program + threadified model + solved points-to state
//     from the store instead of re-modeling, and AnalyzeSource skips
//     dexasm parsing entirely on a hit;
//   - the witness cache (store.WitnessEntry): validation outcomes are
//     keyed by IR digest + warning fingerprint + validation options +
//     detector set, so re-validating a persisting warning is a file
//     read, not a schedule sweep.
//
// Both caches are behavior-transparent: a hit must produce the same
// Result as the cold path, and any corrupt entry falls back to the
// cold path with a logged skip.

// AnalyzeSource analyzes an application given as dexasm source text. It
// is the warm-start entry: with a store attached, the IR digest is
// computed from the source, and when the store already holds a
// cold-start blob for it the dexasm parse and the modeling phase are
// both skipped. Cold runs parse, then delegate to AnalyzeContext (which
// writes the blob through the store). Without a store nothing reads the
// digest, so none is computed.
func AnalyzeSource(ctx context.Context, src string, opts Options) (*Result, error) {
	if opts.IRDigest == "" && opts.Store != nil {
		opts.IRDigest = store.IRDigest(src)
	}
	if dec := loadIRCache(ctx, opts); dec != nil {
		return analyze(ctx, dec.Pkg, dec.Model, dec.Escape, opts)
	}
	opts.irProbed = true
	pkg, err := dexasm.Parse(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeContext(ctx, pkg, opts)
}

// irCacheEnabled reports whether the cold-start cache may be consulted.
func irCacheEnabled(opts Options) bool {
	return opts.Store != nil && opts.IRCache && opts.IRDigest != ""
}

// loadIRCache tries the cold-start cache; nil means miss (or disabled),
// and a corrupt blob is a logged miss so the cold path rebuilds it.
func loadIRCache(ctx context.Context, opts Options) *ircache.Decoded {
	if !irCacheEnabled(opts) || opts.irProbed {
		return nil
	}
	name := ircache.Name(opts.IRDigest, normalizeK(opts.K))
	blob, ok := opts.Store.GetIRCache(name)
	if !ok {
		obs.Add(ctx, "ircache_misses", 1)
		return nil
	}
	dec, err := ircache.Decode(blob)
	if err != nil {
		obs.Logger(ctx).Warn("ir cache: skipping corrupt entry", "entry", name, "error", err)
		obs.Add(ctx, "ircache_misses", 1)
		return nil
	}
	obs.Add(ctx, "ircache_hits", 1)
	return dec
}

// saveIRCache writes the cold-start blob after a cold run. It is called
// once the detection context exists, so the blob carries the solved
// escape facts alongside the parsed IR and the model. Failures only
// log: the cache is an accelerator, never a correctness dependency.
func saveIRCache(ctx context.Context, pkg *apk.Package, model *threadify.Model, esc *escape.Result, opts Options) {
	if !irCacheEnabled(opts) {
		return
	}
	name := ircache.Name(opts.IRDigest, normalizeK(opts.K))
	if err := opts.Store.PutIRCache(name, ircache.Encode(pkg, model, esc)); err != nil {
		obs.Logger(ctx).Warn("ir cache: write failed", "entry", name, "error", err)
	}
}

// normalizeK mirrors the modeling default (threadify applies K=2 when
// unset) so "unset" and "2" share one cache entry.
func normalizeK(k int) int {
	if k <= 0 {
		return 2
	}
	return k
}

// validationOptionsKey renders every option that can change a
// validation outcome. Workers is deliberately absent (results are
// worker-count invariant), as is the Conflicts pruner (the pruned
// search finds the same witness set as the exhaustive one — locked by
// the differential test).
func validationOptionsKey(k int, eopts explore.Options) string {
	i := eopts.Interp
	return fmt.Sprintf("k=%d;max_schedules=%d;max_steps=%d;ui=%d",
		normalizeK(k), eopts.MaxSchedules, i.MaxSteps, i.MaxUIFires)
}

// validateWithCache runs the validation sweep through the witness
// cache: hits replay their stored outcome, misses explore and persist.
// Results are in input order and identical to an uncached sweep.
//
// Exploration prunes by partial-order reduction: the callback conflict
// relation, derived from the detection-phase accesses, lets the
// explorer execute one schedule per trace-equivalence class. It is
// built only when some warning is explored.
func validateWithCache(ctx context.Context, pkg *apk.Package, model *threadify.Model, accesses []race.Access, alive []*uaf.Warning, opts Options, eopts explore.Options, detectors []string) ([]explore.Validation, error) {
	if opts.Store == nil || opts.IRDigest == "" {
		eopts.Conflicts = explore.NewConflicts(model, accesses)
		return explore.ValidateAllDetailed(ctx, pkg, model, alive, eopts)
	}
	log := obs.Logger(ctx)
	names := append([]string(nil), detectors...)
	sort.Strings(names)
	optKey := validationOptionsKey(opts.K, eopts)

	keys := make([]string, len(alive))
	fps := make([]string, len(alive))
	vals := make([]explore.Validation, len(alive))
	var missIdx []int
	var misses []*uaf.Warning
	hits := 0
	for i, w := range alive {
		fps[i] = string(fingerprint.Warning(model, w))
		keys[i] = store.WitnessKey(opts.IRDigest, fps[i], optKey, names)
		e, err := opts.Store.GetWitness(keys[i], opts.IRDigest, fps[i])
		if err != nil {
			log.Warn("witness cache: skipping corrupt entry, re-exploring", "error", err)
		}
		if e == nil {
			missIdx = append(missIdx, i)
			misses = append(misses, w)
			continue
		}
		hits++
		v := explore.Validation{Warning: w, Harmful: e.Harmful}
		if e.Harmful {
			wit := &explore.Witness{
				Schedule:   e.Schedule,
				Executions: e.Executions,
			}
			if len(e.NPE) > 0 {
				if uerr := json.Unmarshal(e.NPE, &wit.NPE); uerr != nil {
					log.Warn("witness cache: unreadable NPE record", "error", uerr)
				}
			}
			v.Witness = wit
		}
		vals[i] = v
	}
	obs.Add(ctx, "validation_witness_cache_hits", int64(hits))
	obs.Add(ctx, "validation_witness_cache_misses", int64(len(missIdx)))

	if len(misses) == 0 {
		return vals, nil
	}
	eopts.Conflicts = explore.NewConflicts(model, accesses)
	fresh, ferr := explore.ValidateAllDetailed(ctx, pkg, model, misses, eopts)
	for j, v := range fresh {
		i := missIdx[j]
		vals[i] = v
		e := &store.WitnessEntry{
			IRDigest:    opts.IRDigest,
			Fingerprint: fps[i],
			Harmful:     v.Harmful,
			CreatedAt:   time.Now().UTC(),
		}
		if v.Witness != nil {
			e.Schedule = v.Witness.Schedule
			e.Executions = v.Witness.Executions
			if npe, merr := json.Marshal(v.Witness.NPE); merr == nil {
				e.NPE = npe
			}
		}
		if perr := opts.Store.PutWitness(keys[i], e); perr != nil {
			log.Warn("witness cache: write failed", "error", perr)
		}
	}
	if ferr != nil {
		return vals[:0], ferr
	}
	return vals, nil
}
