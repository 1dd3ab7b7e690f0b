// Package nosleep implements the §9 extension the paper sketches:
// applying nAdroid's machinery to no-sleep energy bugs (Pathak et al.,
// MobiSys'12), where racy wake-lock API calls lead to ordering
// violations. A WakeLock.acquire() that is not guaranteed to be followed
// by a release() keeps the device awake and drains the battery — the
// energy analogue of a use-after-free.
//
// Detection runs over the same threadified model as the UAF detector:
//
//   - every acquire/release call site is collected per modeled thread,
//     with the wake-lock objects it may operate on (points-to);
//   - an acquire is *covered* when a release on the same abstract lock
//     either post-dominates it in the same callback, or lives in a
//     callback the acquire must-happen-before (the MHB graph of §6.1.1 —
//     e.g. a release in onDestroy covers every entry callback's acquire);
//   - uncovered acquires are no-sleep warnings, ranked like UAF warnings
//     by the §7 origin taxonomy.
package nosleep

import (
	"fmt"
	"sort"

	"nadroid/internal/framework"
	"nadroid/internal/hb"
	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// Site is one wake-lock API call executed by one modeled thread.
type Site struct {
	Thread int
	MCtx   threadify.MCtx
	Instr  ir.InstrID
	Op     framework.WakeLockOp
	// Locks are the abstract wake-lock objects the receiver may denote.
	Locks []pointsto.ObjID
}

// Warning is one uncovered acquire.
type Warning struct {
	Acquire Site
	// Lineage is the §7 callback/thread chain of the acquiring thread.
	Lineage string
	// PartialReleases lists releases on the same lock that exist but do
	// not cover the acquire (wrong order or wrong path) — the programmer
	// hint corresponding to §7's free-side lineage.
	PartialReleases []Site
}

func (w Warning) String() string {
	return fmt.Sprintf("no-sleep: acquire at %s never guaranteed released (via %s)", w.Acquire.Instr, w.Lineage)
}

// Result bundles one analysis run.
type Result struct {
	Acquires []Site
	Releases []Site
	Warnings []Warning
}

// Detect finds uncovered wake-lock acquires in the model.
func Detect(m *threadify.Model) *Result {
	return DetectWith(m, hb.BuildMHB(m))
}

// DetectWith is Detect against a prebuilt MHB graph, letting callers
// that already computed the graph (the shared detector context) avoid
// rebuilding it.
func DetectWith(m *threadify.Model, g *hb.Graph) *Result {
	res := &Result{}
	collect(m, res)

	for _, a := range res.Acquires {
		if coveredIntra(m, a) {
			continue
		}
		covered := false
		var partial []Site
		for _, r := range res.Releases {
			if !sharesLock(a, r) {
				continue
			}
			// A release in a thread the acquire must-happen-before is
			// guaranteed to run after the acquire. A release merely in
			// the same thread does NOT cover: only post-domination does,
			// and coveredIntra already checked that.
			if g.HB(a.Thread, r.Thread) {
				covered = true
				break
			}
			partial = append(partial, r)
		}
		if covered {
			continue
		}
		res.Warnings = append(res.Warnings, Warning{
			Acquire:         a,
			Lineage:         m.Lineage(a.Thread),
			PartialReleases: partial,
		})
	}
	sort.Slice(res.Warnings, func(i, j int) bool {
		return res.Warnings[i].Acquire.Instr.Less(res.Warnings[j].Acquire.Instr)
	})
	return res
}

// collect walks every thread's reachable contexts for wake-lock calls.
func collect(m *threadify.Model, res *Result) {
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		for _, mc := range m.Reach(th.ID) {
			mth, err := m.H.MethodByRef(mc.Method)
			if err != nil || mth.Abstract {
				continue
			}
			for i, in := range mth.Instrs {
				if in.Op != ir.OpInvoke {
					continue
				}
				op := framework.ClassifyWakeLock(m.H, in.Callee.Class, in.Callee.Name)
				if op != framework.WakeAcquire && op != framework.WakeRelease {
					continue
				}
				site := Site{
					Thread: th.ID,
					MCtx:   mc,
					Instr:  ir.InstrID{Method: mc.Method, Index: i},
					Op:     op,
					Locks:  m.PTS.PointsTo(mc.Method, mc.Recv, in.B),
				}
				if op == framework.WakeAcquire {
					res.Acquires = append(res.Acquires, site)
				} else {
					res.Releases = append(res.Releases, site)
				}
			}
		}
	}
}

// coveredIntra reports whether a release on the same lock post-dominates
// the acquire within the same method: every path from the acquire to a
// return passes a release. Approximated with the CFG: a release
// instruction r covers when r's block post-dominates the acquire's —
// computed by checking the acquire cannot reach an exit without passing
// a release (path-insensitive DFS).
func coveredIntra(m *threadify.Model, a Site) bool {
	mth, err := m.H.MethodByRef(a.MCtx.Method)
	if err != nil {
		return false
	}
	releases := make(map[int]bool)
	for i, in := range mth.Instrs {
		if in.Op != ir.OpInvoke {
			continue
		}
		if framework.ClassifyWakeLock(m.H, in.Callee.Class, in.Callee.Name) != framework.WakeRelease {
			continue
		}
		if sharesLock(a, Site{Locks: m.PTS.PointsTo(a.MCtx.Method, a.MCtx.Recv, in.B)}) {
			releases[i] = true
		}
	}
	if len(releases) == 0 {
		return false
	}
	// DFS from the instruction after the acquire; reaching a return
	// without crossing a release means uncovered.
	seen := make(map[int]bool)
	var reachExit func(i int) bool
	reachExit = func(i int) bool {
		for {
			if i >= len(mth.Instrs) {
				return true // fell off the end without a release
			}
			if seen[i] {
				return false
			}
			seen[i] = true
			if releases[i] {
				return false // released on this path
			}
			in := mth.Instrs[i]
			switch {
			case in.Op == ir.OpReturn || in.Op == ir.OpThrow:
				return true
			case in.Op == ir.OpGoto:
				i = mth.Index(in.Target)
			case in.IsBranch():
				if reachExit(mth.Index(in.Target)) {
					return true
				}
				i++
			default:
				i++
			}
		}
	}
	return !reachExit(a.Instr.Index + 1)
}

// sharesLock reports overlap of the two sites' lock sets. Empty sets
// (opaque receivers) conservatively overlap with everything.
func sharesLock(a, b Site) bool {
	if len(a.Locks) == 0 || len(b.Locks) == 0 {
		return true
	}
	set := make(map[pointsto.ObjID]bool, len(a.Locks))
	for _, l := range a.Locks {
		set[l] = true
	}
	for _, l := range b.Locks {
		if set[l] {
			return true
		}
	}
	return false
}
