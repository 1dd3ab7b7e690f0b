// Package detect is the pluggable detector subsystem: every bug-family
// detector (use-after-free, no-sleep, leaked-thread, lost-result)
// implements one interface and runs against a shared Context holding the
// threadified IR, the points-to result, the access/escape analyses, the
// must-happen-before graph, and the Datalog engine holding the §5 race
// fact base and Racy rule — computed once per app and consumed by every
// enabled detector.
//
// The registry fixes detector order, so output is deterministic no
// matter how a caller spells its selection. New families plug in by
// implementing Detector and appending to the registry.
package detect

import (
	"context"

	"nadroid/internal/datalog"
	"nadroid/internal/escape"
	"nadroid/internal/fingerprint"
	"nadroid/internal/hb"
	"nadroid/internal/ir"
	"nadroid/internal/nosleep"
	"nadroid/internal/obs"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// Warning is one generic detector warning — the shape the non-UAF
// families report in (the UAF family keeps its richer uaf.Warning and
// flows through the classic §7 report path unchanged).
type Warning struct {
	// Detector is the registry name of the family that produced it.
	Detector string
	// Tag is the per-family warning tag.
	Tag string
	// Subject names what the warning is about.
	Subject string
	// Site anchors the warning to one instruction.
	Site ir.InstrID
	// Lineage is the §7-style callback/thread chain of the subject.
	Lineage string
	// Detail is a one-line human explanation.
	Detail string
	// Fingerprint is the stable content-derived identity
	// (fingerprint.Generic, domain-separated from the UAF scheme).
	Fingerprint fingerprint.ID
}

// Detector is one bug-family detector.
type Detector interface {
	// Name is the stable registry name (used in flags, metrics, store
	// metadata, and cache keys).
	Name() string
	// Describe is a one-line human description for -list-detectors.
	Describe() string
	// Detect analyzes the shared context and returns the family's
	// generic warnings. Families with richer structured results (uaf,
	// nosleep) store them on the Context and return nil.
	Detect(ctx context.Context, dc *Context) ([]Warning, error)
}

// Context is the shared per-app analysis state. BuildContext computes
// it exactly once; every enabled detector consumes it.
type Context struct {
	// App is the application name (for warning subjects and logs).
	App string
	// Model is the threadified program (with its points-to result and
	// class hierarchy).
	Model *threadify.Model
	// Accesses are the per-thread field accesses (race.CollectAccesses).
	Accesses []race.Access
	// Escape is the thread-escape analysis result.
	Escape *escape.Result
	// MHB is the must-happen-before graph over modeled threads.
	MHB *hb.Graph
	// Engine is the Datalog engine of the §5 race join, loaded with the
	// race fact base (race.PopulateFacts: uses, frees, escaping objects)
	// and race.RacyRule. The uaf detector runs it for the racy pairs. It
	// records no derivations: an evidence record writes a pair's proof
	// down from Accesses and Escape. The async families walk
	// Model.Threads instead.
	Engine *datalog.Engine

	// UAF is set by the uaf detector when it runs.
	UAF *uaf.Detection
	// NoSleep is set by the nosleep detector when it runs.
	NoSleep *nosleep.Result
}

// Options tunes context construction.
type Options struct {
	// Escape, when non-nil, is a precomputed thread-escape result (e.g.
	// restored from the cold-start cache) that BuildContext uses instead
	// of running the escape analysis.
	Escape *escape.Result
	// Accesses, when non-nil, is a precomputed access set (identical to
	// what race.CollectAccesses would return — the incremental pipeline
	// assembles it from reused per-thread partitions) that BuildContext
	// uses instead of collecting accesses itself.
	Accesses []race.Access
}

// BuildContext computes the shared analysis state for one app: access
// collection, escape analysis, the MHB graph, and the Datalog engine
// with the race facts and the Racy rule, each in its own span. The
// "detect_context_builds" counter asserts the compute-once contract in
// tests.
func BuildContext(ctx context.Context, app string, m *threadify.Model, opts Options) *Context {
	_, span := obs.Start(ctx, "race.collect-accesses")
	accesses := opts.Accesses
	if accesses == nil {
		accesses = race.CollectAccesses(m)
	}
	span.SetAttr("accesses", len(accesses))
	span.End()
	obs.Add(ctx, "race_accesses", int64(len(accesses)))

	esc := opts.Escape
	if esc == nil {
		_, span = obs.Start(ctx, "escape.analyze")
		esc = escape.Analyze(m)
		span.End()
	}

	_, span = obs.Start(ctx, "hb.build")
	g := hb.BuildMHB(m)
	span.End()

	_, span = obs.Start(ctx, "detect.facts")
	e := datalog.NewEngine()
	race.PopulateFacts(e, accesses, esc)
	race.InstallRacyRules(e)
	span.SetAttr("facts", e.Stats().Facts)
	span.End()

	obs.Add(ctx, "detect_context_builds", 1)
	return &Context{
		App:      app,
		Model:    m,
		Accesses: accesses,
		Escape:   esc,
		MHB:      g,
		Engine:   e,
	}
}

// declaresTeardown walks the super chain for a non-abstract onDestroy —
// the component has an explicit teardown path a resource should be
// collected on. Framework stubs declare no bodies, so only app classes
// qualify.
func declaresTeardown(m *threadify.Model, class string) bool {
	if m.Pkg == nil || m.Pkg.Program == nil {
		return false
	}
	prog := m.Pkg.Program
	for cls := prog.Class(class); cls != nil; cls = prog.Class(cls.Super) {
		if mth := cls.Method("onDestroy"); mth != nil && !mth.Abstract {
			return true
		}
		if cls.Super == "" {
			break
		}
	}
	return false
}
