package detect

import (
	"context"
	"fmt"

	"nadroid/internal/fingerprint"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// The async-error families below reproduce two of the asynchronous
// programming error patterns cataloged by Fan et al. (arXiv:1808.03178)
// over the same threadified facts the UAF detector consumes:
//
//   - leaked-thread: a native background thread started from a callback
//     of a component that has an explicit teardown path (onDestroy),
//     with no join/interrupt anywhere in the component — the thread
//     outlives its component.
//   - lost-result: a background thread posts a result back to a looper
//     (Handler.post / sendMessage) of a component with a teardown path,
//     and nothing ever drains the queue (removeCallbacksAndMessages) —
//     the posted callback can run against a destroyed component, or the
//     result is silently dropped.
//
// Each family walks the thread forest for its candidates (threads of
// one kind spawned by threads of another, in a component that declares
// onDestroy) and drops the candidates with teardown handling evidence.

// leakChild and leakParent select leaked-thread candidates: native
// threads started by an entry or posted callback.
func leakChild(t *threadify.Thread) bool { return t.Kind == threadify.KindNativeThread }

func leakParent(p *threadify.Thread) bool {
	return p.Kind == threadify.KindEntryCallback || p.Kind == threadify.KindPostedCallback
}

// lostChild and lostParent select lost-result candidates: Runnables and
// messages posted by a native thread or an AsyncTask body.
func lostChild(t *threadify.Thread) bool {
	return t.Kind == threadify.KindPostedCallback &&
		(t.Post == framework.PostRunnable || t.Post == framework.PostSendMessage)
}

func lostParent(p *threadify.Thread) bool {
	return p.Kind == threadify.KindNativeThread || p.Kind == threadify.KindTaskBody
}

// candidates walks the thread forest in thread order and returns the
// threads child accepts whose parent thread parent accepts and whose
// component declares a teardown. declaresTeardown is asked once per
// component.
func candidates(m *threadify.Model, child, parent func(*threadify.Thread) bool) []*threadify.Thread {
	torn := make(map[string]bool)
	var out []*threadify.Thread
	for _, t := range m.Threads {
		if !child(t) || t.Parent < 0 || !parent(m.Threads[t.Parent]) || t.Component == "" {
			continue
		}
		down, seen := torn[t.Component]
		if !seen {
			down = declaresTeardown(m, t.Component)
			torn[t.Component] = down
		}
		if down {
			out = append(out, t)
		}
	}
	return out
}

// leakedThreadDetector flags background threads their component never
// joins or interrupts.
type leakedThreadDetector struct{}

func (leakedThreadDetector) Name() string { return "leaked-thread" }

func (leakedThreadDetector) Describe() string {
	return "background threads started from callbacks with no join/interrupt on any destroy path (arXiv:1808.03178)"
}

func (leakedThreadDetector) Detect(ctx context.Context, dc *Context) ([]Warning, error) {
	m := dc.Model
	var ws []Warning
	for _, th := range candidates(m, leakChild, leakParent) {
		if threadControlled(m, th) {
			continue
		}
		ws = append(ws, Warning{
			Detector: "leaked-thread",
			Tag:      "leaked-thread",
			Subject:  fmt.Sprintf("thread %s of component %s", th.Entry.Method, th.Component),
			Site:     th.Site,
			Lineage:  m.Lineage(th.ID),
			Detail: fmt.Sprintf("started from callback %s; component %s declares onDestroy but never joins or interrupts it",
				spawnerEntry(m, th), th.Component),
			Fingerprint: fingerprint.Generic("leaked-thread", th.Site.Method, th.Entry.Method, th.Component),
		})
	}
	return ws, nil
}

// lostResultDetector flags results posted back from background threads
// that no teardown path ever cancels.
type lostResultDetector struct{}

func (lostResultDetector) Name() string { return "lost-result" }

func (lostResultDetector) Describe() string {
	return "results posted from background threads to components whose lifecycle may have passed teardown (arXiv:1808.03178)"
}

func (lostResultDetector) Detect(ctx context.Context, dc *Context) ([]Warning, error) {
	m := dc.Model
	var ws []Warning
	for _, th := range candidates(m, lostChild, lostParent) {
		if resultCancelled(m, th) {
			continue
		}
		ws = append(ws, Warning{
			Detector: "lost-result",
			Tag:      "lost-result",
			Subject:  fmt.Sprintf("posted callback %s of component %s", th.Entry.Method, th.Component),
			Site:     th.Site,
			Lineage:  m.Lineage(th.ID),
			Detail: fmt.Sprintf("posted from background thread %s; component %s declares onDestroy but never drains the queue",
				spawnerEntry(m, th), th.Component),
			Fingerprint: fingerprint.Generic("lost-result", th.Site.Method, th.Entry.Method, th.Component),
		})
	}
	return ws, nil
}

// spawnerEntry names the parent thread's entry method.
func spawnerEntry(m *threadify.Model, th *threadify.Thread) string {
	if th.Parent < 0 || th.Parent >= len(m.Threads) {
		return "?"
	}
	p := m.Threads[th.Parent]
	if p.Kind == threadify.KindDummyMain {
		return "main"
	}
	return p.Entry.Method
}

// threadControlled reports whether any thread of th's component reaches
// a join/interrupt whose receiver may be th's thread object. Opaque
// receivers (empty points-to sets) conservatively cover.
func threadControlled(m *threadify.Model, th *threadify.Thread) bool {
	for _, other := range m.Threads {
		if other.Kind == threadify.KindDummyMain || other.Component != th.Component {
			continue
		}
		for _, mc := range m.Reach(other.ID) {
			mth, err := m.H.MethodByRef(mc.Method)
			if err != nil || mth.Abstract {
				continue
			}
			for _, in := range mth.Instrs {
				if in.Op != ir.OpInvoke {
					continue
				}
				if framework.ClassifyThreadControl(m.H, in.Callee().Class, in.Callee().Name) == framework.ThreadControlNone {
					continue
				}
				objs := m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
				if len(objs) == 0 {
					return true
				}
				for _, o := range objs {
					if o == th.Entry.Recv {
						return true
					}
				}
			}
		}
	}
	return false
}

// resultCancelled reports whether th's component may drain the queue
// the result was posted to: a Handler.removeCallbacks[AndMessages] on a
// handler aliasing the post site's receiver. Unresolvable sites and
// opaque receivers conservatively cover.
func resultCancelled(m *threadify.Model, th *threadify.Thread) bool {
	mth, err := m.H.MethodByRef(th.Site.Method)
	if err != nil || th.Site.Index < 0 || th.Site.Index >= len(mth.Instrs) {
		return true
	}
	post := mth.Instrs[th.Site.Index]
	if post.Op != ir.OpInvoke {
		return true
	}
	recv := make(map[pointsto.ObjID]bool)
	if th.Parent >= 0 {
		for _, mc := range m.Reach(th.Parent) {
			if mc.Method != th.Site.Method {
				continue
			}
			for _, o := range m.PTS.PointsTo(mc.Method, mc.Recv, post.B) {
				recv[o] = true
			}
		}
	}
	if len(recv) == 0 {
		return true
	}
	for _, other := range m.Threads {
		if other.Kind == threadify.KindDummyMain || other.Component != th.Component {
			continue
		}
		for _, mc := range m.Reach(other.ID) {
			cm, err := m.H.MethodByRef(mc.Method)
			if err != nil || cm.Abstract {
				continue
			}
			for _, in := range cm.Instrs {
				if in.Op != ir.OpInvoke {
					continue
				}
				if framework.ClassifyCancel(m.H, in.Callee().Class, in.Callee().Name) != framework.CancelRemoveCallbacks {
					continue
				}
				objs := m.PTS.PointsTo(mc.Method, mc.Recv, in.B)
				if len(objs) == 0 {
					return true
				}
				for _, o := range objs {
					if recv[o] {
						return true
					}
				}
			}
		}
	}
	return false
}
