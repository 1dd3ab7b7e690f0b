// Package race implements Chord-style static data-race detection over
// the threadified program (§5): it enumerates field accesses per modeled
// thread, and reports racy pairs — two accesses to the same field of an
// aliased, thread-escaping object from different modeled threads, at
// least one of which is a write.
//
// Per the paper, the detector deliberately ignores lockset analysis
// (locks do not prevent ordering violations) and MHP analysis (replaced
// by the happens-before filters of §6); both are computed elsewhere and
// applied selectively by the filters.
package race

import (
	"context"
	"fmt"
	"sort"

	"nadroid/internal/datalog"
	"nadroid/internal/escape"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// AccessKind distinguishes reads, writes and null writes.
type AccessKind int

const (
	// Read is a getfield/getstatic — the paper's "use".
	Read AccessKind = iota
	// Write is a putfield/putstatic of a non-null (or unknown) value.
	Write
	// NullWrite is a putfield/putstatic of a definitely-null value — the
	// paper's "free".
	NullWrite
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case NullWrite:
		return "free"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Access is one field access executed by one modeled thread.
type Access struct {
	ID     int
	Thread int
	MCtx   threadify.MCtx
	Instr  ir.InstrID
	Index  int // instruction index within the method
	Field  ir.FieldRef
	Kind   AccessKind
	Static bool
	// Objs are the abstract receiver objects (empty for statics).
	Objs []pointsto.ObjID
}

// Pair is one racy pair of access IDs (by convention A is the read/use
// when one side is a read).
type Pair struct {
	A, B int
}

// Result bundles the accesses and racy pairs of one detection run.
type Result struct {
	Accesses []Access
	Pairs    []Pair
	Escape   *escape.Result
}

// Options tunes detection.
type Options struct {
	// RequireEscape drops pairs on objects reachable from a single
	// thread (Chord's thread-escape pruning). Defaults to true via
	// Detect; set SkipEscape to disable for ablation.
	SkipEscape bool
	// UseFreeOnly keeps only (read, null-write) pairs — nAdroid's UAF
	// restriction (§5). When false the detector reports every
	// read-write/write-write race, like stock Chord.
	UseFreeOnly bool
}

// CollectAccesses enumerates the field accesses of every modeled thread.
// The same instruction yields one access per (thread, context) executing
// it.
func CollectAccesses(m *threadify.Model) []Access {
	var out []Access
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		for _, acc := range CollectThreadAccesses(m, th.ID) {
			acc.ID = len(out)
			out = append(out, acc)
		}
	}
	return out
}

// CollectThreadAccesses enumerates one thread's field accesses with IDs
// local to the thread (0-based, in the same deterministic order
// CollectAccesses emits). Per-thread access partitions concatenate into
// exactly the CollectAccesses result once IDs are renumbered
// sequentially, which is what lets the incremental pipeline reuse
// unchanged threads' partitions verbatim.
func CollectThreadAccesses(m *threadify.Model, thread int) []Access {
	var out []Access
	mcs := make([]threadify.MCtx, 0, len(m.Reach(thread)))
	for mc := range m.Reach(thread) {
		mcs = append(mcs, mc)
	}
	sort.Slice(mcs, func(i, j int) bool {
		if mcs[i].Method != mcs[j].Method {
			return mcs[i].Method < mcs[j].Method
		}
		return mcs[i].Recv < mcs[j].Recv
	})
	for _, mc := range mcs {
		mth, err := m.H.MethodByRef(mc.Method)
		if err != nil || mth.Abstract {
			continue
		}
		oi := ir.ComputeOrigins(mth)
		for i, in := range mth.Instrs {
			var acc *Access
			switch in.Op {
			case ir.OpGetField:
				acc = &Access{
					Kind:  Read,
					Field: canonicalField(m, in.Field),
					Objs:  m.PTS.PointsTo(mc.Method, mc.Recv, in.B),
				}
			case ir.OpPutField:
				kind := Write
				if ir.IsFree(oi, mth, i) {
					kind = NullWrite
				}
				acc = &Access{
					Kind:  kind,
					Field: canonicalField(m, in.Field),
					Objs:  m.PTS.PointsTo(mc.Method, mc.Recv, in.B),
				}
			case ir.OpGetStatic:
				acc = &Access{Kind: Read, Field: in.Field, Static: true}
			case ir.OpPutStatic:
				kind := Write
				if ir.IsFree(oi, mth, i) {
					kind = NullWrite
				}
				acc = &Access{Kind: kind, Field: in.Field, Static: true}
			}
			if acc == nil {
				continue
			}
			acc.ID = len(out)
			acc.Thread = thread
			acc.MCtx = mc
			acc.Instr = ir.InstrID{Method: mc.Method, Index: i}
			acc.Index = i
			out = append(out, *acc)
		}
	}
	return out
}

// canonicalField resolves a field reference to its declaring class so
// accesses through subclasses unify.
func canonicalField(m *threadify.Model, ref ir.FieldRef) ir.FieldRef {
	if f := m.H.DeclaringClassOfField(ref); f != nil {
		return ir.FieldRef{Class: f.Class, Name: f.Name}
	}
	return ref
}

// Detect runs the full pipeline: collect accesses, escape analysis, and
// the Datalog race derivation.
func Detect(m *threadify.Model, opts Options) *Result {
	return DetectContext(context.Background(), m, opts)
}

// DetectContext is Detect under an observability context: each stage
// runs in its own span (access collection, escape analysis, the Datalog
// pairing) and contributes pipeline counters.
func DetectContext(ctx context.Context, m *threadify.Model, opts Options) *Result {
	_, span := obs.Start(ctx, "race.collect-accesses")
	accesses := CollectAccesses(m)
	span.SetAttr("accesses", len(accesses))
	span.End()

	_, span = obs.Start(ctx, "escape.analyze")
	esc := escape.Analyze(m)
	span.End()

	pctx, span := obs.Start(ctx, "race.pair")
	pairs := DetectPairsContext(pctx, m, accesses, esc, opts)
	span.SetAttr("pairs", len(pairs))
	span.End()

	obs.Add(ctx, "race_accesses", int64(len(accesses)))
	obs.Add(ctx, "race_pairs", int64(len(pairs)))
	return &Result{Accesses: accesses, Pairs: pairs, Escape: esc}
}

// DetectPairs derives racy pairs with a Datalog program, mirroring how
// Chord expresses its race detector:
//
//	Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)
//	Racy(a, b) :- WrAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)
func DetectPairs(m *threadify.Model, accesses []Access, esc *escape.Result, opts Options) []Pair {
	return DetectPairsContext(context.Background(), m, accesses, esc, opts)
}

// DetectPairsContext is DetectPairs with Datalog engine telemetry
// (fact/derived-tuple/iteration counters) reported through ctx.
func DetectPairsContext(ctx context.Context, m *threadify.Model, accesses []Access, esc *escape.Result, opts Options) []Pair {
	e := datalog.NewEngine()
	PopulateFacts(e, accesses, esc, opts)
	InstallRacyRules(e, opts)
	return PairsFromEngine(ctx, e, accesses, opts)
}

// PopulateFacts loads the access and escape fact base into e: RdAcc and
// WrAcc tuples per (access, thread, field, object) and the Esc relation
// over thread-escaping objects. Detectors that share one engine call
// this once and layer their own relations and rules on top.
func PopulateFacts(e *datalog.Engine, accesses []Access, esc *escape.Result, opts Options) {
	accSym := func(id int) datalog.Sym { return e.IntSym('a', id) }
	thrSym := func(t int) datalog.Sym { return e.IntSym('t', t) }
	objSym := func(o pointsto.ObjID) datalog.Sym { return e.IntSym('h', int(o)) }
	staticObj := e.Sym("h:static")

	// Make sure relations exist even when a side contributes no facts.
	e.Relation("RdAcc", 4)
	e.Relation("WrAcc", 4)
	e.Relation("Esc", 1)

	for _, a := range accesses {
		fieldSym := e.Sym("f:" + a.Field.String())
		rel := "WrAcc"
		if a.Kind == Read {
			rel = "RdAcc"
		}
		if opts.UseFreeOnly {
			// Only uses and frees participate.
			if a.Kind == Write {
				continue
			}
		}
		if a.Static {
			e.Fact(rel, accSym(a.ID), thrSym(a.Thread), fieldSym, staticObj)
			continue
		}
		for _, o := range a.Objs {
			e.Fact(rel, accSym(a.ID), thrSym(a.Thread), fieldSym, objSym(o))
		}
	}
	// Escape facts; statics always escape.
	e.Fact("Esc", staticObj)
	seenObj := make(map[pointsto.ObjID]bool)
	for _, a := range accesses {
		for _, o := range a.Objs {
			if seenObj[o] {
				continue
			}
			seenObj[o] = true
			if opts.SkipEscape || esc.Escaped(o) {
				e.Fact("Esc", objSym(o))
			}
		}
	}
}

// InstallRacyRules adds the Racy derivation rules to an engine loaded by
// PopulateFacts. Install at most once per engine — the engine does not
// dedupe rules, so a second install would re-fire the same derivations
// on every later Run.
func InstallRacyRules(e *datalog.Engine, opts Options) {
	e.MustRule("Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)")
	if !opts.UseFreeOnly {
		e.MustRule("Racy(a, b) :- WrAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)")
	}
}

// PairsFromEngine runs an engine loaded by PopulateFacts with the Racy
// rules installed (InstallRacyRules) and decodes the racy pairs. Engine
// telemetry (fact/derived-tuple/iteration counters) is reported through
// ctx.
func PairsFromEngine(ctx context.Context, e *datalog.Engine, accesses []Access, opts Options) []Pair {
	e.Run()
	st := e.Stats()
	obs.Add(ctx, "datalog_facts", int64(st.Facts))
	obs.Add(ctx, "datalog_derived", int64(st.Derived))
	obs.Add(ctx, "datalog_iterations", int64(st.Iterations))
	// Per-rule evaluation stats, labeled by head relation (rules sharing
	// a head accumulate into one series). The server exposes these as
	// the nadroid_datalog_rule_* metric families.
	for _, rs := range e.RuleStats() {
		obs.Add(ctx, fmt.Sprintf("datalog_rule_derived{rule=%q}", rs.Head), int64(rs.Derived))
		obs.Add(ctx, fmt.Sprintf("datalog_rule_rounds{rule=%q}", rs.Head), int64(rs.Rounds))
		obs.Add(ctx, fmt.Sprintf("datalog_rule_time_us{rule=%q}", rs.Head), rs.Time.Microseconds())
	}

	var pairs []Pair
	for _, row := range e.Query("Racy", datalog.Wild, datalog.Wild) {
		_, a, _ := e.IntSymVal(row[0])
		_, b, _ := e.IntSymVal(row[1])
		if !opts.UseFreeOnly && a > b && sameKindPair(accesses, a, b) {
			// Write-write pairs arrive in both orders; keep one.
			continue
		}
		pairs = append(pairs, Pair{A: a, B: b})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

func sameKindPair(accesses []Access, a, b int) bool {
	return accesses[a].Kind != Read && accesses[b].Kind != Read
}
