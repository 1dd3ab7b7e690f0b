// Conflict-aware partial-order reduction (DPOR-style). Two schedules
// that only permute adjacent independent actions drive the interpreter
// to equivalent states, so the explorer needs to execute just one
// representative per trace-equivalence class. Conflicts precomputes the
// pairwise independence facts from analysis results the pipeline already
// has — the per-thread field footprints (race.CollectAccesses) and the
// model's call graph — and a per-warning pruner canonicalizes schedule
// prefixes by bubbling independent out-of-order actions into a normal
// form, so the DFS dedup map collapses whole equivalence classes.
//
// The interpreter records a choice point only where more than one
// scheduler option exists. That gives recorded actions two distinct
// granularities, with different commutation arguments:
//
//   - Atomic selections ("event:…", "dispatch:…" taken at a
//     looper-idle point). When no multi-option point interrupts, the
//     selection's entire callback drains through forced single-option
//     "run:looper" quanta before the next recorded point — the recorded
//     action IS the whole callback execution. Two adjacent atomic
//     selections commute, even on the same (looper) executor, when
//     their effects commute as state transformers: field footprints
//     don't conflict (field instructions are the IR's only heap
//     effects, so complete footprints make this exact), and they don't
//     both touch the same non-heap state component — the looper queue
//     (posting/cancelling/dispatch order is FIFO), the binder/receiver
//     registration state, or the world flags (finish, resumed/destroyed
//     lifecycle flags, view visibility, wake locks). Thread spawns are
//     conservatively never commuted. Listener registrations are benign:
//     a registered event cannot fire before its registration, so the
//     reordered run is either unrealizable (harmless — it is never
//     generated) or state-isomorphic.
//
//   - Drain quanta ("run:looper", "run:<bg>" taken where several
//     executors are runnable). These are partial executions, so they
//     only commute across different executors, and only when both
//     sides' entry closures are strictly clean (no scheduler-visible
//     effects at all, no monitor ops, no throws) with non-conflicting
//     footprints. A mixed pair (selection next to a quantum) means a
//     background executor was live, so the selection was a pure
//     enqueue — it commutes with a clean non-conflicting quantum of a
//     different executor.
//
// Neither form may commute across a boundary where the interpreter took
// hidden forced actions (single-option steps other than a plain looper
// drain — e.g. the initial forced onCreate): those steps belong to
// neither neighbor, so the boundary is a barrier (ScheduleInfo.Forced).
//
// Since every action in a class executes from an equivalent state, it
// behaves identically in every member — including any NPE it raises —
// so witness detection (and StopOnNPE truncation) is class-invariant.
package explore

import (
	"strconv"
	"strings"

	"nadroid/internal/interp"
	"nadroid/internal/ir"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// Effect buckets: two atomic selections conflict when both touch the
// same bucket (or either spawns). The names under-pin the interpreter's
// intrinsics; classifying by name alone over-approximates the
// classifier set (which also checks receiver types), which is the safe
// direction — a false positive only costs pruning power.
var (
	// queueNames mutate the looper queue (enqueue, cancel): FIFO makes
	// their order observable.
	queueNames = map[string]bool{
		"post": true, "postDelayed": true, "runOnUiThread": true,
		"sendMessage": true, "sendMessageDelayed": true, "sendEmptyMessage": true,
		"execute": true, "submit": true, "publishProgress": true, "schedule": true,
		"removeCallbacksAndMessages": true, "removeCallbacks": true, "cancel": true,
	}
	// bindNames mutate binder/receiver/listener registration state.
	bindNames = map[string]bool{
		"bindService": true, "unbindService": true,
		"registerReceiver": true, "unregisterReceiver": true,
		"requestLocationUpdates": true, "registerListener": true,
		"addService": true,
	}
	// flagNames mutate world flags (component lifecycle, view gating,
	// wake locks): toggles do not commute with each other.
	flagNames = map[string]bool{
		"finish": true, "setVisibility": true, "setEnabled": true,
		"acquire": true, "release": true,
	}
	// spawnNames start a new executor; spawners never commute.
	spawnNames = map[string]bool{"start": true}
)

// footAccess is one footprint entry: a field the entry-method closure
// may touch, with the strongest access kind seen and the receiver
// objects (empty = unknown receivers, treated as overlapping all).
type footAccess struct {
	write  bool
	static bool
	objs   map[int]bool
	anyObj bool // some access had no receiver info: overlap everything
}

// summary is the merged effect summary of one thread-entry method
// (merged across every modeled thread sharing that entry).
type summary struct {
	// resolved: every closure member resolved to a concrete body, so
	// the footprint and effect bits below are complete. Unresolved
	// summaries never license swaps.
	resolved bool
	// quantumClean: the strict cleanliness drain quanta need — no
	// effect bits at all, no monitor ops, no throws.
	quantumClean bool
	// Atomic effect buckets (see the package comment).
	queue, bind, flags, spawn bool
	// fields maps canonical field refs to the merged footprint entry.
	fields map[string]*footAccess
	// reach is the method-ref closure (the visited set of the effect
	// scan, kept for diagnostics).
	reach map[string]bool
}

// Conflicts holds the per-entry-method effect summaries for one model.
// Build it once per analysis (NewConflicts) and share it across
// warnings and workers: it is immutable after construction.
type Conflicts struct {
	byMethod map[string]*summary
}

// NewConflicts derives the independence facts for partial-order
// reduction from the model and its collected accesses (the same
// race.CollectAccesses output the detectors consume).
func NewConflicts(model *threadify.Model, accesses []race.Access) *Conflicts {
	c := &Conflicts{byMethod: make(map[string]*summary)}

	// Thread -> summary slot keyed by entry method.
	slot := func(t *threadify.Thread) *summary {
		s := c.byMethod[t.Entry.Method]
		if s == nil {
			s = &summary{resolved: true, quantumClean: true,
				fields: make(map[string]*footAccess), reach: make(map[string]bool)}
			c.byMethod[t.Entry.Method] = s
		}
		return s
	}

	byThread := make(map[int]*summary)
	for _, t := range model.Threads {
		if t.Kind == threadify.KindDummyMain {
			continue
		}
		s := slot(t)
		byThread[t.ID] = s
		// Completing a task body enqueues onPostExecute on the looper: a
		// queue effect the instruction scan cannot see.
		if t.Kind == threadify.KindTaskBody {
			s.queue = true
			s.quantumClean = false
		}
		for _, mc := range model.Reach(t.ID) {
			if s.reach[mc.Method] {
				continue
			}
			s.reach[mc.Method] = true
			mth, err := model.H.MethodByRef(mc.Method)
			if err != nil || mth == nil || mth.Abstract {
				// Unresolvable closure member: the footprint below is
				// incomplete, so the summary must not license swaps.
				s.resolved = false
				s.quantumClean = false
				continue
			}
			scanEffects(s, mth)
		}
	}

	// Footprints: the complete per-thread field accesses, attributed to
	// the thread's entry method.
	for i := range accesses {
		a := &accesses[i]
		s := byThread[a.Thread]
		if s == nil {
			continue
		}
		f := s.fields[a.Field.String()]
		if f == nil {
			f = &footAccess{objs: make(map[int]bool)}
			s.fields[a.Field.String()] = f
		}
		if a.Kind != race.Read {
			f.write = true
		}
		if a.Static {
			f.static = true
		}
		if len(a.Objs) == 0 && !a.Static {
			f.anyObj = true
		}
		for _, o := range a.Objs {
			f.objs[int(o)] = true
		}
	}
	return c
}

// scanEffects folds one method body into the summary's effect bits.
func scanEffects(s *summary, m *ir.Method) {
	if m.Synch {
		s.quantumClean = false
	}
	for _, in := range m.Instrs {
		switch in.Op {
		case ir.OpMonitorEnter, ir.OpMonitorExit, ir.OpThrow:
			// Monitor ops and throws stay inside an atomic callback
			// (nothing interleaves mid-drain) but make quantum slices
			// scheduler-sensitive.
			s.quantumClean = false
		case ir.OpInvoke, ir.OpInvokeStatic:
			n := in.Callee.Name
			switch {
			case queueNames[n]:
				s.queue = true
			case bindNames[n]:
				s.bind = true
			case flagNames[n]:
				s.flags = true
			case spawnNames[n]:
				s.spawn = true
			}
		}
	}
	if s.queue || s.bind || s.flags || s.spawn {
		s.quantumClean = false
	}
}

// conflicting reports whether two footprints share a field with a write
// on either side and overlapping receivers.
func conflicting(a, b *summary) bool {
	// Iterate the smaller footprint.
	if len(b.fields) < len(a.fields) {
		a, b = b, a
	}
	for ref, fa := range a.fields {
		fb, ok := b.fields[ref]
		if !ok {
			continue
		}
		if !fa.write && !fb.write {
			continue
		}
		if fa.static || fb.static || fa.anyObj || fb.anyObj {
			return true
		}
		for o := range fa.objs {
			if fb.objs[o] {
				return true
			}
		}
	}
	return false
}

// ForWarning returns the schedule pruner for one warning's validation
// search. Safe to call concurrently; the returned pruner is for use by
// a single goroutine.
func (c *Conflicts) ForWarning(w *uaf.Warning) *pruner {
	return &pruner{c: c, indep: make(map[[2]interp.Choice]bool)}
}

// pruner canonicalizes schedule prefixes into trace-equivalence normal
// forms for one warning's search. Single-goroutine use (the
// independence cache is unsynchronized); the shared Conflicts is
// read-only.
type pruner struct {
	c     *Conflicts
	indep map[[2]interp.Choice]bool
}

// execOf extracts the executor identity behind an option key. Every
// looper-side action (looper quantum, dispatch, event) maps to
// "looper"; background quanta map to their unique executor name.
func execOf(key string) string {
	switch {
	case key == "run:looper":
		return "looper"
	case strings.HasPrefix(key, "dispatch:"), strings.HasPrefix(key, "event:"):
		return "looper"
	case strings.HasPrefix(key, "run:"):
		return key[len("run:"):]
	}
	return ""
}

// selection reports whether the action is a looper-idle selection
// (event firing or queue dispatch) rather than a drain quantum.
func selection(key string) bool {
	return strings.HasPrefix(key, "event:") || strings.HasPrefix(key, "dispatch:")
}

// eventFlagEffect reports whether firing the event itself writes a
// world flag (interp.fireEvent mutates resumed/destroyed for these
// lifecycle events), independent of the callback body.
func eventFlagEffect(key string) bool {
	if !strings.HasPrefix(key, "event:") {
		return false
	}
	name := key[len("event:"):]
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[i+1:]
	}
	switch name {
	case "lifecycle:onResume", "lifecycle:onPause", "lifecycle:onDestroy":
		return true
	}
	return false
}

// independent decides whether adjacent actions a and b commute (see the
// package comment for the argument). Symmetric. The boundary-barrier
// condition is the caller's (canonicalKey checks Forced counts).
func (p *pruner) independent(a, b interp.Choice) bool {
	ck := [2]interp.Choice{a, b}
	if v, ok := p.indep[ck]; ok {
		return v
	}
	v := p.independentUncached(a, b)
	p.indep[ck] = v
	return v
}

func (p *pruner) independentUncached(a, b interp.Choice) bool {
	ea, eb := execOf(a.Key), execOf(b.Key)
	if ea == "" || eb == "" {
		return false
	}
	if selection(a.Key) && selection(b.Key) {
		// Atomic-selection pair: whole-callback commutation.
		sa, sb := p.c.byMethod[a.Method], p.c.byMethod[b.Method]
		if sa == nil || sb == nil || !sa.resolved || !sb.resolved {
			return false
		}
		if sa.spawn || sb.spawn {
			return false
		}
		// Implicit per-action effects: a dispatch pops the queue; some
		// lifecycle event firings write world flags.
		qa, qb := sa.queue || strings.HasPrefix(a.Key, "dispatch:"), sb.queue || strings.HasPrefix(b.Key, "dispatch:")
		fa, fb := sa.flags || eventFlagEffect(a.Key), sb.flags || eventFlagEffect(b.Key)
		if (qa && qb) || (sa.bind && sb.bind) || (fa && fb) {
			return false
		}
		return !conflicting(sa, sb)
	}
	// At least one drain quantum: only different executors commute, and
	// only under strict cleanliness.
	if ea == eb {
		return false
	}
	qa, oka := p.quantumSide(a)
	qb, okb := p.quantumSide(b)
	if !oka || !okb {
		return false
	}
	if qa != nil && qb != nil && conflicting(qa, qb) {
		return false
	}
	return true
}

// quantumSide resolves one side of a mixed or quantum pair. A selection
// adjacent to a quantum was a pure enqueue (the live background
// executor forces the drain through recorded points), so it has an
// empty footprint: nil summary with ok=true. Quanta need a strictly
// clean summary.
func (p *pruner) quantumSide(ch interp.Choice) (*summary, bool) {
	if selection(ch.Key) {
		if eventFlagEffect(ch.Key) {
			return nil, false
		}
		return nil, true
	}
	s := p.c.byMethod[ch.Method]
	if s == nil || !s.resolved || !s.quantumClean {
		return nil, false
	}
	return s, true
}

// canonicalKey renders the trace-equivalence normal form of an action
// prefix: independent out-of-order adjacent actions are bubbled into
// sorted order to a fixpoint, then the keys are joined. forced[i] is
// the hidden-action count on the boundary before acts[i]
// (ScheduleInfo.Forced): swaps never cross a non-zero boundary, and
// non-zero boundaries are rendered into the key (they are part of the
// class identity). Prefixes with equal normal forms drive the
// interpreter to equivalent states, so the DFS executes only the first
// one it sees. The bubbling reorders acts in place.
func (p *pruner) canonicalKey(acts []interp.Choice, forced []int) string {
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(acts); i++ {
			if acts[i+1].Key >= acts[i].Key {
				continue
			}
			if i+1 < len(forced) && forced[i+1] != 0 {
				continue
			}
			if p.independent(acts[i], acts[i+1]) {
				acts[i], acts[i+1] = acts[i+1], acts[i]
				changed = true
			}
		}
	}
	var sb strings.Builder
	n := 0
	for i, ch := range acts {
		n += len(ch.Key) + 1
		if i < len(forced) && forced[i] != 0 {
			n += 24 // '#', the count and a separator
		}
	}
	sb.Grow(n)
	for i, ch := range acts {
		if i > 0 {
			sb.WriteByte(0)
		}
		if i < len(forced) && forced[i] != 0 {
			sb.WriteByte('#')
			sb.WriteString(strconv.Itoa(forced[i]))
			sb.WriteByte(0)
		}
		sb.WriteString(ch.Key)
	}
	return sb.String()
}
