// Package detect is the pluggable detector subsystem: every bug-family
// detector (use-after-free, no-sleep, leaked-thread, lost-result)
// implements one interface and runs against a shared Context holding the
// threadified IR, the points-to result, the access/escape analyses, the
// must-happen-before graph, and one populated Datalog engine — computed
// once per app and consumed by every enabled detector.
//
// The registry fixes detector order, so output is deterministic no
// matter how a caller spells its selection. New families plug in by
// implementing Detector and appending to the registry; their Datalog
// rules layer onto the shared engine via Context.AddRulesOnce.
package detect

import (
	"context"
	"sort"
	"sync"

	"nadroid/internal/datalog"
	"nadroid/internal/escape"
	"nadroid/internal/fingerprint"
	"nadroid/internal/framework"
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
	// Engine is the shared Datalog engine, preloaded with the race fact
	// base (RdAcc/WrAcc/Esc, use/free only) and the async-error facts
	// (NativeThr, PostedThr, CallbackThr, BackgroundThr, SpawnEdge,
	// CompOf, TornDown). Detectors add their rules via AddRulesOnce and
	// Run it again; a late rule gets one seeding round over the full
	// contents, so it sees every fact.
	Engine *datalog.Engine

	// UAF is set by the uaf detector when it runs.
	UAF *uaf.Detection
	// NoSleep is set by the nosleep detector when it runs.
	NoSleep *nosleep.Result

	mu         sync.Mutex
	addedRules map[string]bool
}

// AddRulesOnce installs a named rule group on the shared engine at most
// once, so a detector can run repeatedly (or share rules with another
// family) without duplicating rules.
func (dc *Context) AddRulesOnce(name string, fn func(e *datalog.Engine)) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.addedRules[name] {
		return
	}
	dc.addedRules[name] = true
	fn(dc.Engine)
}

// Options tunes context construction.
type Options struct {
	// Provenance switches the shared Datalog engine into derivation
	// recording mode before the fact base is loaded, so every derived
	// tuple can later be explained via Engine.Why.
	Provenance bool
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
// collection, escape analysis, the MHB graph, and the populated Datalog
// engine, each in its own span. The "detect_context_builds" counter
// asserts the compute-once contract in tests.
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
	if opts.Provenance {
		e.EnableProvenance()
	}
	race.PopulateFacts(e, accesses, esc, race.Options{UseFreeOnly: true})
	emitAsyncFacts(e, m)
	span.SetAttr("facts", e.Stats().Facts)
	span.End()

	obs.Add(ctx, "detect_context_builds", 1)
	return &Context{
		App:        app,
		Model:      m,
		Accesses:   accesses,
		Escape:     esc,
		MHB:        g,
		Engine:     e,
		addedRules: make(map[string]bool),
	}
}

// emitAsyncFacts loads the thread-forest facts the async-error families
// (arXiv:1808.03178) join over: thread kinds, spawn edges, component
// ownership, and which components declare a teardown callback.
func emitAsyncFacts(e *datalog.Engine, m *threadify.Model) {
	thr := func(t int) datalog.Sym { return e.IntSym('t', t) }
	comp := func(c string) datalog.Sym { return e.Sym("c:" + c) }

	// Pre-declare so empty relations are still joinable.
	e.Relation("NativeThr", 1)
	e.Relation("PostedThr", 1)
	e.Relation("CallbackThr", 1)
	e.Relation("BackgroundThr", 1)
	e.Relation("SpawnEdge", 2)
	e.Relation("CompOf", 2)
	e.Relation("TornDown", 1)

	torn := make(map[string]bool)
	for _, t := range m.Threads {
		switch t.Kind {
		case threadify.KindNativeThread:
			e.Fact("NativeThr", thr(t.ID))
			e.Fact("BackgroundThr", thr(t.ID))
		case threadify.KindTaskBody:
			e.Fact("BackgroundThr", thr(t.ID))
		case threadify.KindEntryCallback:
			e.Fact("CallbackThr", thr(t.ID))
		case threadify.KindPostedCallback:
			e.Fact("CallbackThr", thr(t.ID))
			if t.Post == framework.PostRunnable || t.Post == framework.PostSendMessage {
				e.Fact("PostedThr", thr(t.ID))
			}
		}
		if t.Parent >= 0 {
			e.Fact("SpawnEdge", thr(t.Parent), thr(t.ID))
		}
		if t.Component != "" {
			e.Fact("CompOf", thr(t.ID), comp(t.Component))
			if _, seen := torn[t.Component]; !seen {
				torn[t.Component] = declaresTeardown(m, t.Component)
			}
		}
	}
	comps := make([]string, 0, len(torn))
	for c, down := range torn {
		if down {
			comps = append(comps, c)
		}
	}
	sort.Strings(comps)
	for _, c := range comps {
		e.Fact("TornDown", comp(c))
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
