package nadroid

import (
	"context"
	"fmt"
	"strings"

	"nadroid/internal/apk"
	"nadroid/internal/incr"
	"nadroid/internal/ircache"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
)

// This file wires incremental re-analysis into the pipeline. With
// Options.Store, Options.Incremental, and Options.IRDigest set, a run
// whose cold-start blob misses (the app changed) diffs the parsed
// program against the nearest stored base run instead of recomputing
// everything:
//
//   - method-level IR diffing (internal/incr) classifies every method
//     as unchanged/edited/added/removed and digests everything each
//     reused partition depends on;
//   - the points-to snapshot of the base run is restored whenever the
//     solver-visible projection of the program is unchanged;
//   - per-thread access partitions are replayed when their digests
//     match.
//
// Reuse is verification-by-digest: every replayed partition is gated
// by a digest over its exact inputs, so a failed gate (or a corrupt,
// version-skewed, or missing partition) costs a cold recomputation
// with a logged skip — never a divergent result. The correctness
// contract, locked by the mutation-matrix differential suite, is that
// incremental results are byte-identical to cold ones.

// Dispositions reported in Result.Disposition.
const (
	// DispositionCold marks a run computed from scratch.
	DispositionCold = "cold"
	// DispositionWarm marks a run restored from the cold-start blob.
	DispositionWarm = "ircache-warm"
	// DispositionIncremental marks a run that reused at least one
	// partition (points-to snapshot or accesses) from a base run via the
	// diff pipeline.
	DispositionIncremental = "incremental"
)

// incrEnabled reports whether the incremental pipeline may run.
func incrEnabled(opts Options) bool {
	return opts.Store != nil && opts.Incremental && opts.IRDigest != ""
}

// incrRun carries the incremental pipeline's products through the rest
// of analyze: the precollected accesses for the detection context, the
// freshly built partition to persist, and the disposition.
type incrRun struct {
	disposition string
	accesses    []race.Access
	partition   *incr.Partition
}

// anchor is the base run the diff is computed against.
type anchor struct {
	digest    string
	partition *incr.Partition
}

// findAnchor locates the nearest usable base partition: first the
// digests of stored runs for this app (newest first), then a
// modification-time scan of the partition area (library callers
// analyze through the store without persisting runs). Corrupt or
// mismatched partitions are skipped with a log line — a pre-existing
// store from before the partition format simply never anchors, and
// the run falls back cold.
func findAnchor(ctx context.Context, app string, k int, opts Options) *anchor {
	log := obs.Logger(ctx)
	tried := make(map[string]bool)
	try := func(digest string) *anchor {
		if digest == "" || tried[digest] {
			return nil
		}
		tried[digest] = true
		blob, ok := opts.Store.GetIncr(incr.Name(digest, k))
		if !ok {
			return nil
		}
		p, err := incr.Decode(blob)
		if err != nil {
			log.Warn("incremental: skipping corrupt partition", "digest", digest, "error", err)
			obs.Add(ctx, "incr_partition_skips", 1)
			return nil
		}
		if p.App != app || p.K != k {
			return nil
		}
		return &anchor{digest: digest, partition: p}
	}
	for _, run := range opts.Store.Runs(app) {
		if a := try(run.IRDigest); a != nil {
			return a
		}
	}
	suffix := fmt.Sprintf("-v%d-k%d.incr", incr.Version, k)
	for _, name := range opts.Store.IncrNames() {
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		digest := name[:len(name)-len(suffix)]
		if a := try(digest); a != nil {
			return a
		}
	}
	return nil
}

// loadBaseSnapshot restores the base run's solved points-to state from
// its cold-start blob, for reuse when the solver-visible projection is
// unchanged. Any miss or decode failure just means the solve runs
// fresh.
func loadBaseSnapshot(ctx context.Context, digest string, k int, opts Options) *pointsto.Snapshot {
	if !opts.IRCache {
		return nil
	}
	blob, ok := opts.Store.GetIRCache(ircache.Name(digest, k))
	if !ok {
		return nil
	}
	dec, err := ircache.Decode(blob)
	if err != nil {
		obs.Logger(ctx).Warn("incremental: base blob corrupt, solving fresh", "digest", digest, "error", err)
		return nil
	}
	return dec.Model.PTS.Snapshot()
}

// prepareIncremental is the incremental modeling phase: it builds the
// threadified model (restoring the base points-to snapshot when its
// gate passes), then assembles the access set from a mix of replayed
// base partitions and fresh collection. It always returns a usable
// model and access set — with no anchor both are computed cold — plus
// the new partition for saveIncrPartition to store. The access set is
// identical to what a cold run collects; only the work differs.
func prepareIncremental(ctx context.Context, pkg *apk.Package, opts Options) (*threadify.Model, *incrRun, error) {
	log := obs.Logger(ctx)
	k := normalizeK(opts.K)

	_, span := obs.Start(ctx, "incr.digest")
	methods := incr.MethodDigests(pkg.Program)
	structure := incr.StructureDigest(pkg)
	ptsProj := incr.PtsProjection(pkg, k)
	span.End()

	base := findAnchor(ctx, pkg.Name, k, opts)
	var diff incr.Diff
	if base != nil {
		diff = incr.DiffMethods(base.partition.Methods, methods)
		obs.Add(ctx, "incr_methods_changed", int64(diff.Changed()))
		log.Info("incremental: anchored", "base", base.digest[:12],
			"unchanged", diff.Unchanged, "edited", diff.Edited,
			"added", diff.Added, "removed", diff.Removed)
	}

	// Points-to: restore the base snapshot when the solver-visible
	// projection (and K) is unchanged, else solve fresh.
	topts := threadify.Options{K: opts.K}
	ptsReused := false
	if base != nil && base.partition.PtsProj == ptsProj {
		if snap := loadBaseSnapshot(ctx, base.digest, k, opts); snap != nil {
			topts.Presolved = snap
			ptsReused = true
		}
	}
	model, err := threadify.BuildContext(ctx, pkg, topts)
	if err != nil {
		return nil, nil, err
	}
	if !ptsReused {
		obs.Add(ctx, "incr_pointsto_nodes_resolved", int64(model.PTS.Stats().MCtxs))
	}

	_, span = obs.Start(ctx, "incr.thread-sigs")
	sigs := make([]incr.ThreadSig, len(model.Threads))
	for t := range model.Threads {
		sigs[t] = incr.ThreadSignature(model, t, methods)
	}
	span.End()

	baseThreads := make(map[int]*incr.Thread)
	structOK := false
	if base != nil {
		structOK = base.partition.Structure == structure
		for i := range base.partition.Threads {
			t := &base.partition.Threads[i]
			baseThreads[t.ID] = t
		}
	}

	// Accesses: replay per-thread partitions whose access digest
	// matches (body digests included) under an unchanged structure.
	_, span = obs.Start(ctx, "incr.accesses")
	perThread := make([][]race.Access, len(model.Threads))
	accReusedThreads := 0
	for t := range model.Threads {
		bt := baseThreads[t]
		if structOK && bt != nil && !bt.Dummy && !sigs[t].Dummy && bt.AccDigest == sigs[t].Acc {
			perThread[t] = incr.ToRaceAccesses(t, bt.Acc)
			accReusedThreads++
			continue
		}
		perThread[t] = race.CollectThreadAccesses(model, t)
	}
	var accesses []race.Access
	for _, part := range perThread {
		for _, a := range part {
			a.ID = len(accesses)
			accesses = append(accesses, a)
		}
	}
	span.SetAttr("reused_threads", accReusedThreads)
	span.End()

	part := &incr.Partition{
		App:       pkg.Name,
		K:         k,
		Methods:   methods,
		Structure: structure,
		PtsProj:   ptsProj,
	}
	for t := range model.Threads {
		part.Threads = append(part.Threads, incr.Thread{
			ID:        t,
			Dummy:     sigs[t].Dummy,
			AccDigest: sigs[t].Acc,
			Acc:       incr.FromRaceAccesses(perThread[t]),
		})
	}

	inc := &incrRun{disposition: DispositionCold, accesses: accesses, partition: part}
	if ptsReused || accReusedThreads > 0 {
		inc.disposition = DispositionIncremental
	}
	return model, inc, nil
}

// saveIncrPartition persists the run's fact partition next to its
// cold-start blob; like the blob, it is an accelerator — failures only
// log.
func saveIncrPartition(ctx context.Context, part *incr.Partition, opts Options) {
	if opts.Store == nil || opts.IRDigest == "" {
		return
	}
	name := incr.Name(opts.IRDigest, part.K)
	if err := opts.Store.PutIncr(name, part.Encode()); err != nil {
		obs.Logger(ctx).Warn("incremental: partition write failed", "entry", name, "error", err)
	}
}
