// Package explore systematically enumerates event orders and thread
// interleavings of an application under the interp runtime, searching
// for schedules that trigger a NullPointerException. It mechanizes the
// manual validation step of §7: a statically-reported UAF warning is
// confirmed harmful when some schedule dereferences the null loaded at
// the warning's use site.
//
// Exploration is a standard DFS over scheduler choice points, bounded by
// a schedule budget. Only the root schedule runs from a fresh
// interp.World. A run snapshots its world at every choice point past its
// own prefix, and each sibling schedule pushed there resumes from that
// snapshot instead of replaying the shared prefix. The order, the
// dedup keys and the budget are those of re-executing every schedule
// from step 0, which Replay still does. What does not depend on the
// schedule is shared instead of rebuilt: each search entry point takes
// one class hierarchy (the model's when it covers the package) and
// numbers each method's registers once (interp.Code), and every world
// of that search, across all warnings and worker goroutines, reads
// them.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nadroid/internal/apk"
	"nadroid/internal/cha"
	"nadroid/internal/interp"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// Options bounds the search.
type Options struct {
	// MaxSchedules caps how many executions are attempted (default 4000).
	MaxSchedules int
	// Interp configures each execution.
	Interp interp.Options
	// Workers bounds ValidateAllDetailed's fan-out across warnings
	// (0 = GOMAXPROCS, 1 = sequential). The confirmed subset and its
	// order are identical for any setting.
	Workers int
	// Conflicts, when set, enables partial-order reduction for warning
	// validation: schedule prefixes that only permute independent
	// actions collapse into one trace-equivalence class, and the DFS
	// executes a single representative per class. nil explores
	// exhaustively. Only warning validation prunes (it knows the
	// warning's use site); FindNoSleep never does.
	Conflicts *Conflicts
}

func (o Options) withDefaults() Options {
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 4000
	}
	o.Interp.StopOnNPE = true
	return o
}

// Witness is a schedule that triggered a matching NPE.
type Witness struct {
	Schedule []int
	NPE      interp.NPE
	// Executions is how many schedules were run before the hit.
	Executions int
}

func (w *Witness) String() string {
	return fmt.Sprintf("%v after %d executions (schedule %v)", w.NPE, w.Executions, w.Schedule)
}

// hierarchyFor returns the class hierarchy the worlds of one search
// share: the model's when it was built over pkg's program, else a fresh
// one.
func hierarchyFor(pkg *apk.Package, model *threadify.Model) *cha.Hierarchy {
	if model != nil && model.H != nil && model.H.Program() == pkg.Program {
		return model.H
	}
	return cha.New(pkg.Program)
}

// findNPE searches for any schedule whose execution raises an NPE
// accepted by match (nil matches every NPE) in worlds built from code; pr
// enables partial-order reduction when non-nil (warning validation
// only). ctx is checked before every schedule execution, so a
// canceled or expired context stops the search mid-budget and reports
// ctx.Err(). A nil error with ok == false means the budget was
// exhausted without a witness.
func findNPE(ctx context.Context, code *interp.Code, opts Options, match func(interp.NPE) bool, pr *pruner) (*Witness, bool, error) {
	opts = opts.withDefaults()
	iopts := opts.Interp
	iopts.RecordChoices = pr != nil
	return dfs(ctx, code, iopts, opts.MaxSchedules, npeMatching(match), pr)
}

// accept decides whether an executed schedule is the witness a search
// wants, and which NPE the witness reports.
type accept func(w *interp.World, schedule []int) (interp.NPE, bool)

// npeMatching accepts a run that raised an NPE match accepts (nil
// matches every NPE).
func npeMatching(match func(interp.NPE) bool) accept {
	return func(w *interp.World, _ []int) (interp.NPE, bool) {
		for _, npe := range w.NPEs() {
			if match == nil || match(npe) {
				return npe, true
			}
		}
		return interp.NPE{}, false
	}
}

// dfs runs the schedule-tree exploration until hit accepts an
// execution, which it reports as the witness with the NPE hit returns.
// With a nil pruner the dedup map is keyed by the literal choice-index
// prefix (exhaustive exploration); with a pruner it is keyed by the
// prefix's trace-equivalence normal form, so permutations of
// independent actions count as one node and only the first
// representative executes.
//
// Every schedule but the root resumes from the snapshot its parent run
// took at the schedule's branch point, so each run executes only what
// it does not share with its parent.
func dfs(ctx context.Context, code *interp.Code, iopts interp.Options, budget int, hit accept, pr *pruner) (wit *Witness, found bool, err error) {
	stack := []node{{}}
	seen := map[string]bool{"": true}
	// Scratch for sibling prefixes; a prefix is copied only when pushed.
	var prefix []int
	var acts []interp.Choice
	// snaps[i] is the current run's snapshot at its choice point
	// len(schedule)+i.
	var snaps []*interp.World
	keep := func(s *interp.World) { snaps = append(snaps, s) }
	// Counter deltas are accumulated locally and flushed once — a lock
	// per executed schedule would be measurable on big budgets.
	executed, pruned := 0, 0
	defer func() {
		obs.Add(ctx, "validation_schedules_executed", int64(executed))
		obs.Add(ctx, "validation_schedules_pruned", int64(pruned))
		if found {
			obs.Add(ctx, "explore_witnesses", 1)
		}
	}()
	for len(stack) > 0 && budget > 0 {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		next := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		schedule := next.schedule
		budget--
		executed++

		_, span := obs.Start(ctx, "schedule", obs.KV("depth", len(schedule)))
		var w *interp.World
		if next.from == nil {
			w = code.NewWorld(iopts)
		} else {
			w = next.from.take()
		}
		clear(snaps)
		snaps = snaps[:0]
		info := interp.RunSnapshots(w, schedule, keep)
		span.End()
		if npe, ok := hit(w, schedule); ok {
			return &Witness{
				Schedule:   schedule,
				NPE:        npe,
				Executions: executed,
			}, true, nil
		}
		// The action actually taken at each choice point of this run,
		// for extending sibling prefixes in pruner mode.
		var chosen []interp.Choice
		if pr != nil {
			chosen = make([]interp.Choice, len(info.Choices))
			for j, row := range info.Choices {
				chosen[j] = row[info.Taken[j]]
			}
		}
		// Expand siblings at every choice point at or beyond the frozen
		// prefix (earlier points are owned by ancestors in the DFS tree).
		for i := len(schedule); i < len(info.Arity); i++ {
			var at *branch
			for alt := 0; alt < info.Arity[i]; alt++ {
				if alt == info.Taken[i] {
					continue
				}
				prefix = append(append(prefix[:0], info.Taken[:i]...), alt)
				var key string
				if pr != nil {
					acts = append(append(acts[:0], chosen[:i]...), info.Choices[i][alt])
					key = pr.canonicalKey(acts, info.Forced[:i+1])
				} else {
					key = fmt.Sprint(prefix)
				}
				if seen[key] {
					pruned++
					continue
				}
				seen[key] = true
				if at == nil {
					at = &branch{w: snaps[i-len(schedule)]}
				}
				at.pending++
				stack = append(stack, node{schedule: append([]int(nil), prefix...), from: at})
			}
		}
	}
	return nil, false, nil
}

// node is a schedule on the DFS stack.
type node struct {
	schedule []int
	// from is the snapshot of the parent run at the schedule's branch
	// point (nil for the root, which runs from a fresh world).
	from *branch
}

// branch is a world snapshot standing at one choice point, shared by the
// sibling schedules pushed there.
type branch struct {
	w *interp.World
	// pending counts the siblings that have not run yet.
	pending int
}

// take returns a world for one sibling to continue: a copy of the
// snapshot while other siblings still need it, the snapshot itself for
// the last one.
func (b *branch) take() *interp.World {
	b.pending--
	if b.pending > 0 {
		return b.w.Snapshot()
	}
	w := b.w
	b.w = nil
	return w
}

// validateWarning searches for a schedule in which the value loaded at
// the warning's use site is null when dereferenced — the mechanical
// definition of "true harmful UAF". When model is non-nil the search is
// focused: only external events belonging to the warning's callback
// lineages (plus their components' lifecycle chains) may fire, which is
// the paper's §7 hint of starting exploration from the root entry
// callbacks. code is the package's; see findNPE for the error
// contract.
func validateWarning(ctx context.Context, code *interp.Code, model *threadify.Model, w *uaf.Warning, opts Options) (*Witness, bool, error) {
	opts.Interp = focus(opts.Interp, model, w)
	var pr *pruner
	if opts.Conflicts != nil {
		pr = opts.Conflicts.ForWarning(w)
	}
	return findNPE(ctx, code, opts, func(n interp.NPE) bool {
		return n.LoadedAt == w.Use
	}, pr)
}

// focus restricts iopts to the callbacks and threads on w's lineages
// (nil model or warning: unfocused).
func focus(iopts interp.Options, model *threadify.Model, w *uaf.Warning) interp.Options {
	if model != nil && w != nil {
		iopts.EventFilter = warningEventFilter(model, w)
		iopts.SpawnFilter = warningSpawnFilter(model, w)
	}
	return iopts
}

// warningSpawnFilter allows only the background-thread classes on the
// warning's lineages to spawn.
func warningSpawnFilter(model *threadify.Model, w *uaf.Warning) func(class string) bool {
	classes := make(map[string]bool)
	addLineage := func(tid int) {
		for cur := tid; cur >= 0; cur = model.Threads[cur].Parent {
			t := model.Threads[cur]
			if t.Kind == threadify.KindNativeThread || t.Kind == threadify.KindTaskBody {
				cls, _, _ := ir.SplitRef(t.Entry.Method)
				classes[cls] = true
			}
		}
	}
	for _, p := range w.Pairs {
		addLineage(p.Use)
		addLineage(p.Free)
	}
	return func(class string) bool { return classes[class] }
}

// warningEventFilter allows the entry callbacks on the use/free thread
// lineages, their service-connection partners, and the full lifecycle
// chain of every involved component.
func warningEventFilter(model *threadify.Model, w *uaf.Warning) func(kind interp.EventKind, m *ir.Method, component string) bool {
	methods := make(map[string]bool)
	comps := make(map[string]bool)
	addLineage := func(tid int) {
		for cur := tid; cur >= 0; cur = model.Threads[cur].Parent {
			t := model.Threads[cur]
			if t.Kind != threadify.KindDummyMain {
				methods[t.Entry.Method] = true
			}
			if t.Component != "" {
				comps[t.Component] = true
			}
		}
	}
	for _, p := range w.Pairs {
		addLineage(p.Use)
		addLineage(p.Free)
	}
	// onServiceDisconnected is only enabled after its partner fires.
	for m := range methods {
		cls, name, ok := ir.SplitRef(m)
		if ok && name == "onServiceDisconnected" {
			methods[cls+".onServiceConnected"] = true
		}
	}
	return func(kind interp.EventKind, m *ir.Method, component string) bool {
		if methods[m.Ref()] {
			return true
		}
		return comps[component] && (kind == interp.LifecycleEvent || kind == interp.ServiceEvent)
	}
}

// Validation is one warning's dynamic-validation outcome: whether a
// harmful schedule was found, and the witness itself when one was —
// the exploration half of the warning's evidence record.
type Validation struct {
	Warning *uaf.Warning
	// Harmful reports whether some schedule dereferenced the null loaded
	// at the warning's use site.
	Harmful bool
	// Witness is the confirming schedule (nil unless Harmful).
	Witness *Witness
}

// ValidateAllDetailed classifies each warning with validateWarning's
// search and returns every outcome, witness included, in input order.
// model focuses each warning's search; pass nil to explore unfocused.
//
// The per-warning schedule budget applies, and ctx is additionally
// checked before every schedule execution, so an expired deadline stops
// the sweep mid-warning. On cancellation it returns ctx.Err() with the
// outcomes that precede, in input order, the first canceled warning.
//
// Warnings are validated concurrently by up to Options.Workers
// goroutines, all over one shared class hierarchy and register
// numbering. Each warning's search is independent and results are
// assembled in input order, so the outcomes match the sequential sweep
// exactly. A panic in a search reaches the caller at any worker count.
func ValidateAllDetailed(ctx context.Context, pkg *apk.Package, model *threadify.Model, warnings []*uaf.Warning, opts Options) ([]Validation, error) {
	code := interp.NewCode(pkg, hierarchyFor(pkg, model))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(warnings) {
		workers = len(warnings)
	}
	obs.Add(ctx, "explore_workers", int64(workers))

	type outcome struct {
		wit *Witness
		ok  bool
		err error
	}
	results := make([]outcome, len(warnings))
	validate := func(i int) {
		w := warnings[i]
		wctx, span := obs.Start(ctx, "validate",
			obs.KV("field", w.Field.String()), obs.KV("use", w.Use.String()), obs.KV("free", w.Free.String()))
		wit, ok, err := validateWarning(wctx, code, model, w, opts)
		span.SetAttr("harmful", ok)
		if wit != nil {
			span.SetAttr("executions", wit.Executions)
		}
		span.End()
		results[i] = outcome{wit, ok, err}
	}
	if workers <= 1 {
		for i := range warnings {
			validate(i)
			// Stop early like the sequential sweep always has: a failed
			// warning aborts the rest.
			if results[i].err != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		// A panic on a worker goroutine would end the process past any
		// recover of the caller's, so each worker recovers its own and
		// the first is raised again on the calling goroutine, with the
		// worker's stack, once every worker has stopped.
		var once sync.Once
		var fault any
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						once.Do(func() {
							fault = fmt.Sprintf("%v\n\nvalidation worker stack:\n%s", r, debug.Stack())
						})
					}
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(warnings) {
						return
					}
					validate(i)
				}
			}()
		}
		wg.Wait()
		if fault != nil {
			panic(fault)
		}
	}

	var out []Validation
	for i, w := range warnings {
		r := results[i]
		if r.err != nil {
			return out, r.err
		}
		out = append(out, Validation{Warning: w, Harmful: r.ok, Witness: r.wit})
		if r.ok {
			obs.Logger(ctx).Info("warning validated harmful",
				"field", w.Field.String(), "use", w.Use.String(), "free", w.Free.String(),
				"executions", r.wit.Executions)
		}
	}
	return out, nil
}

// FindNoSleep searches for a schedule whose execution runs to quiescence
// with a wake lock still held — the dynamic witness of a §9 no-sleep
// energy bug. Schedules that merely hit the step bound do not count.
func FindNoSleep(pkg *apk.Package, opts Options) (*Witness, bool) {
	opts = opts.withDefaults()
	iopts := opts.Interp
	iopts.StopOnNPE = false
	if iopts.MaxSteps <= 0 {
		iopts.MaxSteps = 100_000 // keep the quiescence check meaningful
	}
	awake := func(w *interp.World, _ []int) (interp.NPE, bool) {
		return interp.NPE{}, w.HeldWakeLocks() > 0 && w.Done() && w.Steps() < iopts.MaxSteps
	}
	wit, ok, _ := dfs(context.Background(), interp.NewCode(pkg, cha.New(pkg.Program)), iopts, opts.MaxSchedules, awake, nil)
	return wit, ok
}

// Replay re-executes a witness schedule with tracing enabled and returns
// the event-level narrative (which callbacks fired in which order, where
// the exception struck) — the §7 aid in executable form. The schedule is
// only meaningful under the same scheduler option set it was found with,
// so Replay takes the same focusing inputs as the validation search:
// pass the model and warning used to find the witness (nil model
// replays unfocused searches, e.g. FindNoSleep results).
func Replay(pkg *apk.Package, model *threadify.Model, w *uaf.Warning, wit *Witness, opts Options) []string {
	opts = opts.withDefaults()
	iopts := focus(opts.Interp, model, w)
	iopts.Trace = true
	iopts.StopOnNPE = true
	world := interp.NewWorld(pkg, hierarchyFor(pkg, model), iopts)
	interp.Run(world, wit.Schedule)
	return world.Trace()
}
