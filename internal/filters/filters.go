// Package filters implements nAdroid's false-positive pruning stage
// (§6): three sound filters derived from Android's must-happens-before
// relations and atomicity guarantees, and six unsound filters derived
// from may-happens-before relations and common Android idioms. The
// unsound filters double as a ranking system: warnings they prune are
// deprioritized rather than trusted gone.
package filters

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"nadroid/internal/framework"
	"nadroid/internal/hb"
	"nadroid/internal/ir"
	"nadroid/internal/lockset"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// Filter prunes thread pairs from one warning, returning how many pairs
// it removed.
type Filter interface {
	Name() string
	Sound() bool
	Apply(ctx *Context, w *uaf.Warning) int
}

// Context carries the shared immutable analyses filters consult.
type Context struct {
	D     *uaf.Detection
	Model *threadify.Model
	MHB   *hb.Graph
	// trustLooperAtomicity is the single-looper assumption of §8.1: two
	// looper callbacks never preempt each other. Apps with user-created
	// looper threads break it, downgrading IG/IA to lock-only atomicity.
	trustLooperAtomicity bool
	// locks (the must-held lock analysis) answers the lock half of
	// atomicPair. The looper settles most pairs, so it is built on first
	// need.
	lockOnce sync.Once
	locks    *lockset.Result
	// origins is the analysis's value-origin table, shared with access
	// collection when the caller passes it (RunConfig.Origins).
	origins *ir.Origins
	// methodCache avoids re-fetching methods and factsCache re-building
	// the dominators of a method. The pipeline applies filters to one
	// warning at a time; mu guards both caches so a Context stays safe to
	// share between goroutines.
	mu          sync.Mutex
	methodCache map[string]*ir.Method
	factsCache  map[*ir.Method]*methodFacts
	// cancels and ctxCancels cache the cancellation calls (CHB) in a
	// thread's and in a method context's code; cancelMu guards them.
	cancelMu   sync.Mutex
	cancels    map[int][]cancelOp
	ctxCancels map[threadify.MCtx][]cancelOp
}

// Options tunes the filter context.
type Options struct {
	// MultiLooper drops the single-looper atomicity assumption (§8.1):
	// the IG and IA filters then require a common lock even between
	// looper callbacks, making them behave like unsound filters demoted
	// to sound-under-locks.
	MultiLooper bool
}

type cancelOp struct {
	kind      framework.CancelKind
	component string
	objs      []pointsto.ObjID
}

// NewContext builds the filter context: the MHB graph, lock sets, and
// access/cancellation indexes.
func NewContext(d *uaf.Detection) *Context { return newContext(d, RunConfig{}) }

// newContext builds the filter context around cfg's prebuilt MHB graph
// and origin table (nil rebuilds the graph from the model and starts an
// empty table).
func newContext(d *uaf.Detection, cfg RunConfig) *Context {
	g := cfg.MHB
	if g == nil {
		g = hb.BuildMHB(d.Model)
	}
	origins := cfg.Origins
	if origins == nil {
		origins = ir.NewOrigins()
	}
	ctx := &Context{
		D:                    d,
		Model:                d.Model,
		MHB:                  g,
		trustLooperAtomicity: !cfg.MultiLooper,
		origins:              origins,
		methodCache:          make(map[string]*ir.Method),
		factsCache:           make(map[*ir.Method]*methodFacts),
		cancels:              make(map[int][]cancelOp),
		ctxCancels:           make(map[threadify.MCtx][]cancelOp),
	}
	return ctx
}

func (ctx *Context) method(ref string) *ir.Method {
	ctx.mu.Lock()
	m, ok := ctx.methodCache[ref]
	ctx.mu.Unlock()
	if ok {
		return m
	}
	m, err := ctx.Model.H.MethodByRef(ref)
	if err != nil {
		m = nil
	}
	ctx.mu.Lock()
	ctx.methodCache[ref] = m
	ctx.mu.Unlock()
	return m
}

// facts returns the dominance facts of mth, building them on first use:
// several filters inspect the same use method, and one method often
// holds the use of several warnings.
func (ctx *Context) facts(mth *ir.Method) *methodFacts {
	ctx.mu.Lock()
	f, ok := ctx.factsCache[mth]
	ctx.mu.Unlock()
	if ok {
		return f
	}
	f = newMethodFacts(ctx.origins.Of(mth))
	ctx.mu.Lock()
	ctx.factsCache[mth] = f
	ctx.mu.Unlock()
	return f
}

// atomicPair reports whether the two sides of the pair execute atomically
// with respect to each other: both on the single main looper (callbacks
// never preempt callbacks), or both holding a common lock (§6.1.2).
func (ctx *Context) atomicPair(w *uaf.Warning, p uaf.ThreadPair) bool {
	tu, tf := ctx.Model.Threads[p.Use], ctx.Model.Threads[p.Free]
	if ctx.trustLooperAtomicity && tu.Looper && tf.Looper {
		return true
	}
	ctx.lockOnce.Do(func() { ctx.locks = lockset.Analyze(ctx.Model) })
	if ctx.locks.None() {
		return false
	}
	ui, ok1 := ctx.accessAt(p.Use, w.Use, race.Read)
	fi, ok2 := ctx.accessAt(p.Free, w.Free, race.NullWrite)
	if !ok1 || !ok2 {
		return false
	}
	ua, fa := &ctx.D.Race.Accesses[ui], &ctx.D.Race.Accesses[fi]
	return ctx.locks.CommonLock(ua.MCtx, ua.Index, fa.MCtx, fa.Index)
}

// accessAt returns the index in Race.Accesses of thread t's last access
// of kind at instr. Collection lists each thread's accesses together, in
// thread order, and a thread's in (method, receiver) context order, so
// binary searches find the thread's accesses of instr's method.
func (ctx *Context) accessAt(t int, instr ir.InstrID, kind race.AccessKind) (int, bool) {
	accs := ctx.D.Race.Accesses
	lo := sort.Search(len(accs), func(i int) bool { return accs[i].Thread >= t })
	hi := lo + sort.Search(len(accs)-lo, func(i int) bool {
		a := &accs[lo+i]
		return a.Thread > t || a.Instr.Method > instr.Method
	})
	for i := hi - 1; i >= lo && accs[i].Instr.Method == instr.Method; i-- {
		if accs[i].Instr.Index == instr.Index && accs[i].Kind == kind {
			return i, true
		}
	}
	return 0, false
}

// cancelsOf returns the cancellation API calls in thread t's reachable
// code (§6.2.1 CHB), scanning each method context once across threads.
func (ctx *Context) cancelsOf(t int) []cancelOp {
	ctx.cancelMu.Lock()
	defer ctx.cancelMu.Unlock()
	if ops, ok := ctx.cancels[t]; ok {
		return ops
	}
	var ops []cancelOp
	if ctx.Model.Threads[t].Kind != threadify.KindDummyMain {
		for _, mc := range ctx.Model.Reach(t) {
			mcOps, ok := ctx.ctxCancels[mc]
			if !ok {
				mcOps = ctx.cancelOps(mc)
				ctx.ctxCancels[mc] = mcOps
			}
			ops = append(ops, mcOps...)
		}
	}
	ctx.cancels[t] = ops
	return ops
}

// cancelOps lists the cancellation calls in one method context.
func (ctx *Context) cancelOps(mc threadify.MCtx) []cancelOp {
	m := ctx.Model
	mth := ctx.method(mc.Method)
	if mth == nil || mth.Abstract {
		return nil
	}
	var ops []cancelOp
	for _, in := range mth.Instrs {
		if in.Op != ir.OpInvoke {
			continue
		}
		kind := framework.ClassifyCancel(m.H, in.Callee().Class, in.Callee().Name)
		if kind == framework.CancelNone {
			continue
		}
		op := cancelOp{kind: kind}
		switch kind {
		case framework.CancelFinish:
			// The finished component: the receiver's class(es).
			for _, o := range m.PTS.PointsTo(mc.Method, mc.Recv, in.B) {
				op.component = m.PTS.Obj(o).Class
			}
			if op.component == "" {
				op.component = in.Callee().Class
			}
		case framework.CancelUnbindService, framework.CancelUnregisterReceiver:
			if len(in.Args) > 0 {
				op.objs = m.PTS.PointsTo(mc.Method, mc.Recv, in.Args[0])
			}
		case framework.CancelRemoveCallbacks, framework.CancelTask:
			op.objs = m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
		}
		ops = append(ops, op)
	}
	return ops
}

// Names of the standard filters, in pipeline order.
const (
	NameMHB = "MHB"
	NameIG  = "IG"
	NameIA  = "IA"
	NameRHB = "RHB"
	NameCHB = "CHB"
	NamePHB = "PHB"
	NameMA  = "MA"
	NameUR  = "UR"
	NameTT  = "TT"
)

// SoundFilters returns the §6.1 filters in order.
func SoundFilters() []Filter {
	return []Filter{mhbFilter{}, igFilter{}, iaFilter{}}
}

// UnsoundFilters returns the §6.2 filters in order.
func UnsoundFilters() []Filter {
	return []Filter{rhbFilter{}, chbFilter{}, phbFilter{}, maFilter{}, urFilter{}, ttFilter{}}
}

// Verdict is one filter's outcome on one warning: what it examined and
// what it decided, with a human-readable reason. A sequence of verdicts
// is the warning's filter trail — the §6 half of its evidence record.
type Verdict struct {
	// Filter is the filter name (MHB, IG, …).
	Filter string `json:"filter"`
	// Sound distinguishes §6.1 sound filters from §6.2 unsound ones.
	Sound bool `json:"sound"`
	// Kept reports whether the warning was still alive after the filter.
	Kept bool `json:"kept"`
	// PairsBefore / PairsRemoved count the warning's thread pairs going
	// in and how many this filter pruned.
	PairsBefore  int `json:"pairs_before"`
	PairsRemoved int `json:"pairs_removed,omitempty"`
	// Reason states the filter's criterion and whether it matched.
	Reason string `json:"reason"`
}

// filterCriterion states what each standard filter looks for, phrased
// so "matched: …" / "no pair matched: …" both read naturally.
var filterCriterion = map[string]string{
	NameMHB: "use must-happen-before free in the Android lifecycle MHB graph",
	NameIG:  "use is null-guarded and the guarded block is atomic with the free",
	NameIA:  "a dominating store of a fresh allocation precedes the use atomically",
	NameRHB: "onResume re-allocates the field after the onPause-path free",
	NameCHB: "a cancellation API stops the racing callback family first",
	NamePHB: "the use's callback transitively posted the free's callback on the same looper",
	NameMA:  "the loaded value comes from a getter treated as an allocation",
	NameUR:  "the loaded value is never dereferenced (only returned, compared, or passed on)",
	NameTT:  "both sides run on native threads (deprioritized, not dismissed)",
}

// Trail collects per-warning filter verdicts, keyed by the warning
// (uaf.Group makes one per key). It is safe for concurrent use; verdicts
// land in pipeline order because filters run strictly one at a time,
// each over the warnings in order.
type Trail struct {
	mu        sync.Mutex
	byWarning map[*uaf.Warning][]Verdict
}

// NewTrail returns an empty trail.
func NewTrail() *Trail { return &Trail{byWarning: make(map[*uaf.Warning][]Verdict)} }

// record appends one filter's verdict on one warning.
func (t *Trail) record(w *uaf.Warning, f Filter, before, removed int) {
	crit, ok := filterCriterion[f.Name()]
	if !ok {
		crit = "filter criterion"
	}
	v := Verdict{
		Filter:       f.Name(),
		Sound:        f.Sound(),
		Kept:         w.Alive(),
		PairsBefore:  before,
		PairsRemoved: removed,
	}
	switch {
	case removed == 0:
		v.Reason = "no pair matched: " + crit
	case v.Kept:
		v.Reason = fmt.Sprintf("matched %d of %d pair(s): %s", removed, before, crit)
	default:
		v.Reason = "matched every pair: " + crit
	}
	t.mu.Lock()
	t.byWarning[w] = append(t.byWarning[w], v)
	t.mu.Unlock()
}

// For returns the verdict sequence recorded for a warning.
func (t *Trail) For(w *uaf.Warning) []Verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byWarning[w]
}

// Stats reports the outcome of a pipeline run.
type Stats struct {
	// Potential is the warning count before filtering.
	Potential int
	// AfterSound is the count surviving the sound filters.
	AfterSound int
	// AfterUnsound is the count surviving sound + unsound filters.
	AfterUnsound int
	// Removed maps filter name to warnings it fully killed (sequential
	// attribution: a warning counts for the filter that removed its last
	// pair).
	Removed map[string]int
}

// RunConfig selects which filter passes RunWith applies.
type RunConfig struct {
	Options
	// SkipSound disables the §6.1 pass.
	SkipSound bool
	// SkipUnsound disables the §6.2 pass.
	SkipUnsound bool
	// MHB, when non-nil, is a prebuilt must-happen-before graph reused
	// from the shared detector context; nil rebuilds it from the model.
	MHB *hb.Graph
	// Origins, when non-nil, is the analysis's value-origin table
	// (detect.Context.Origins), so the pattern filters reuse the origins
	// access collection computed; nil gives the run a table of its own.
	Origins *ir.Origins
	// Trail, when non-nil, records every filter's verdict on every
	// warning it examined. Off by default: the record costs one entry
	// per (warning, filter) and is only wanted for evidence assembly.
	Trail *Trail
}

// Run applies the sound filters then the unsound filters in sequence,
// mutating the detection's warnings.
func Run(d *uaf.Detection) *Stats {
	return RunWith(context.Background(), d, RunConfig{})
}

// RunWith is the instrumented filter pipeline: the shared filter
// context (MHB graph + lock sets) and every individual filter run in
// their own spans, and each filter reports warnings examined, thread
// pairs removed, and warnings killed as per-filter pipeline counters.
func RunWith(octx context.Context, d *uaf.Detection, cfg RunConfig) *Stats {
	_, span := obs.Start(octx, "filters.context")
	ctx := newContext(d, cfg)
	span.End()

	st := &Stats{Potential: d.AliveCount(), Removed: make(map[string]int)}
	alive := make([]*uaf.Warning, 0, len(d.Warnings))
	apply := func(fs []Filter) {
		for _, f := range fs {
			_, fspan := obs.Start(octx, "filter:"+f.Name(), obs.KV("sound", f.Sound()))
			alive = alive[:0]
			for _, w := range d.Warnings {
				if w.Alive() {
					alive = append(alive, w)
				}
			}
			examined := len(alive)
			pairsRemoved, killed := applyOne(ctx, f, alive, cfg.Trail)
			if killed > 0 {
				st.Removed[f.Name()] += killed
			}
			fspan.SetAttr("examined", examined)
			fspan.SetAttr("pairs_removed", pairsRemoved)
			fspan.SetAttr("warnings_removed", killed)
			fspan.End()
			label := fmt.Sprintf("{filter=%q}", f.Name())
			obs.Add(octx, "filter_examined"+label, int64(examined))
			obs.Add(octx, "filter_pairs_removed"+label, int64(pairsRemoved))
			obs.Add(octx, "filter_warnings_removed"+label, int64(killed))
		}
	}
	if !cfg.SkipSound {
		apply(SoundFilters())
	}
	st.AfterSound = d.AliveCount()
	if !cfg.SkipUnsound {
		apply(UnsoundFilters())
	}
	st.AfterUnsound = d.AliveCount()
	return st
}

// applyOne applies one filter to every alive warning in order,
// returning the thread pairs it removed and the warnings it killed.
func applyOne(ctx *Context, f Filter, alive []*uaf.Warning, trail *Trail) (pairsRemoved, killed int) {
	for _, w := range alive {
		before := len(w.Pairs)
		removed := f.Apply(ctx, w)
		if trail != nil {
			trail.record(w, f, before, removed)
		}
		pairsRemoved += removed
		if !w.Alive() {
			killed++
		}
	}
	return pairsRemoved, killed
}

// MeasureIndependent evaluates each filter alone against the unfiltered
// warning set (Figure 5's methodology: "Each filter is evaluated
// independently, so there is overlap"). base selects the starting set:
// when baseSound is true, the sound filters are applied first and the
// unsound filters are measured against the survivors (Figure 5(b)).
// It returns warnings-removed per filter name plus the starting count.
func MeasureIndependent(d *uaf.Detection, fs []Filter, baseSound bool) (map[string]int, int) {
	ctx := NewContext(d)
	// Snapshot pair sets so each filter starts fresh.
	type snap struct {
		w     *uaf.Warning
		pairs []uaf.ThreadPair
	}
	prepare := func() []snap {
		var out []snap
		for _, w := range d.Warnings {
			out = append(out, snap{w, append([]uaf.ThreadPair(nil), w.Pairs...)}) //nolint:gocritic
		}
		return out
	}
	restore := func(s []snap) {
		for _, e := range s {
			e.w.Pairs = append(e.w.Pairs[:0], e.pairs...)
			e.w.FilteredBy = nil
		}
	}

	original := prepare()
	if baseSound {
		for _, f := range SoundFilters() {
			for _, w := range d.Warnings {
				if w.Alive() {
					f.Apply(ctx, w)
				}
			}
		}
	}
	baseline := prepare()
	start := d.AliveCount()

	removed := make(map[string]int)
	names := make([]string, 0, len(fs))
	for _, f := range fs {
		names = append(names, f.Name())
	}
	sort.Strings(names)
	for _, f := range fs {
		restore(baseline)
		before := d.AliveCount()
		for _, w := range d.Warnings {
			if w.Alive() {
				f.Apply(ctx, w)
			}
		}
		removed[f.Name()] = before - d.AliveCount()
	}
	restore(original)
	return removed, start
}

// entryName returns the bare method name of a thread's entry callback.
func entryName(t *threadify.Thread) string {
	if t.Kind == threadify.KindDummyMain {
		return ""
	}
	_, name, _ := ir.SplitRef(t.Entry.Method)
	return name
}
