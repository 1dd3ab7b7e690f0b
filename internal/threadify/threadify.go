// Package threadify implements the paper's core contribution (§4): it
// statically models every event callback of an Android application as a
// thread, converting single-threaded ordering violations between
// callbacks into multi-threaded ordering violations a conventional race
// detector can find.
//
// Entry callbacks (lifecycle, UI-listener, system callbacks — externally
// invoked by the Android runtime) become children of a dummy main
// thread. Posted callbacks (Handler posts/messages, service connection
// callbacks, broadcast receivers, AsyncTask callbacks — internally
// triggered by the application) become children of the posting callback
// or thread, preserving the poster/postee causal relation. Native
// threads (Thread.start, executors, timers, doInBackground) stay
// threads.
//
// The spawn discovery runs inside the points-to solve: a posting API
// call site resolves its target object exactly like a virtual call, but
// records a spawn edge instead of a call edge.
package threadify

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"nadroid/internal/apk"
	"nadroid/internal/cha"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
)

// Kind classifies a modeled thread.
type Kind int

const (
	// KindDummyMain is the synthetic root: the initial looper thread.
	KindDummyMain Kind = iota
	// KindEntryCallback (EC): externally invoked by the Android runtime.
	KindEntryCallback
	// KindPostedCallback (PC): internally posted, runs on the looper.
	KindPostedCallback
	// KindTaskBody is AsyncTask.doInBackground: a background thread.
	KindTaskBody
	// KindNativeThread is a plain thread (Thread.run, executor, timer).
	KindNativeThread
)

var kindNames = [...]string{"dummy-main", "EC", "PC", "task-body", "thread"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MCtx is a method context: an entry method plus the abstract receiver
// under which it runs.
type MCtx struct {
	Method string
	Recv   pointsto.ObjID
}

func (m MCtx) String() string { return fmt.Sprintf("%s@%d", m.Method, int(m.Recv)) }

// Thread is one modeled thread.
type Thread struct {
	ID   int
	Kind Kind
	// Post records the posting API for PCs/threads (PostNone for ECs).
	Post framework.PostKind
	// Origin is a short tag: "lifecycle", "ui", "service-lifecycle",
	// "receiver-manifest", "listener", or the posting API name.
	Origin string
	// Entry is the callback/thread body context; zero for the dummy main.
	Entry MCtx
	// Parent is the spawning thread's ID (-1 for the dummy main).
	Parent int
	// Site is the posting/registration instruction ("" for ECs).
	Site ir.InstrID
	// Looper is true when the body runs on the main looper (ECs and PCs)
	// and false for background threads. Callbacks on the same looper are
	// atomic with respect to each other.
	Looper bool
	// Component is the manifest component class this thread belongs to,
	// when known (lifecycle ECs and their descendants).
	Component string
}

// Name renders a compact human-readable thread name.
func (t *Thread) Name() string {
	if t.Kind == KindDummyMain {
		return "main"
	}
	_, name, _ := ir.SplitRef(t.Entry.Method)
	cls, _, _ := ir.SplitRef(t.Entry.Method)
	return fmt.Sprintf("%s.%s#%d", ir.ShortName(cls), name, t.ID)
}

// Model is the threadified program: the thread forest plus the points-to
// result it was derived from.
type Model struct {
	Pkg     *apk.Package
	H       *cha.Hierarchy
	PTS     *pointsto.Result
	Threads []*Thread
	// reach[t] caches Reach(t); nil until first asked. calls is the
	// call graph Reach searches.
	reach [][]MCtx
	calls *callGraph
	// compObj maps component class -> synthetic receiver object.
	compObj map[string]pointsto.ObjID
}

// Options configures modeling.
type Options struct {
	// K is the points-to object-sensitivity depth (default 2, as in §5).
	K int
	// MaxThreads caps the forest size against pathological post cycles.
	MaxThreads int
	// Presolved, when non-nil, is a points-to snapshot the caller
	// guarantees equals what the solve over this package would produce
	// (the incremental pipeline gates it on a digest over every
	// solver-consumed input). BuildContext then restores the result
	// instead of running the solve; everything downstream — thread
	// attachment, adjacency, reach — is rebuilt fresh against it.
	Presolved *pointsto.Snapshot
}

// spawn tags passed through the points-to solver.
const (
	tagRunnablePC   = iota + 1 // Handler.post / View.post / runOnUiThread
	tagHandlerMsg              // sendMessage -> handleMessage
	tagServiceConn             // bindService -> onServiceConnected/Disconnected
	tagReceiver                // registerReceiver -> onReceive
	tagTaskBody                // execute -> doInBackground
	tagTaskCallback            // execute -> onPreExecute / onPostExecute
	tagTaskProgress            // publishProgress -> onProgressUpdate
	tagNative                  // Thread.start / executor / timer
	tagListener                // setOnXListener / requestLocationUpdates ...
)

func tagPostKind(tag int) framework.PostKind {
	switch tag {
	case tagRunnablePC:
		return framework.PostRunnable
	case tagHandlerMsg:
		return framework.PostSendMessage
	case tagServiceConn:
		return framework.PostBindService
	case tagReceiver:
		return framework.PostRegisterReceiver
	case tagTaskBody, tagTaskCallback:
		return framework.PostExecuteTask
	case tagTaskProgress:
		return framework.PostPublishProgress
	case tagNative:
		return framework.PostStartThread
	}
	return framework.PostNone
}

// Build threadifies the package: discovers entry callbacks, runs the
// points-to solve with spawn discovery, and assembles the thread forest.
func Build(pkg *apk.Package, opts Options) (*Model, error) {
	return BuildContext(context.Background(), pkg, opts)
}

// ecSeed is one discovered entry callback.
type ecSeed struct {
	mctx      MCtx
	origin    string
	component string
}

// SolveInputs bundles everything BuildContext feeds the points-to
// solver: the hierarchy, the synthetic component objects, the entry
// contexts, and the solver options (spawn/factory oracles included).
// PrepareSolve exposes it so benchmarks and tools can measure or rerun
// pointsto.SolveWithSynthetics in isolation without duplicating the
// setup.
type SolveInputs struct {
	H       *cha.Hierarchy
	Synths  []pointsto.Obj
	Entries []pointsto.Entry
	Opts    pointsto.Options

	seeds   []ecSeed
	compObj map[string]pointsto.ObjID
}

// PrepareSolve runs every modeling step up to (but excluding) the
// points-to solve: component discovery, entry-callback seeding, and
// oracle construction.
func PrepareSolve(pkg *apk.Package, opts Options) (*SolveInputs, error) {
	if opts.K <= 0 {
		opts.K = 2
	}
	h := cha.New(pkg.Program)

	// Synthetic receiver objects: one instance per manifest component
	// ("the framework allocates the component"), as in the paper's
	// single-instance assumption (§8.1).
	var synths []pointsto.Obj
	compObj := make(map[string]pointsto.ObjID)
	for _, comp := range pkg.Manifest.Components() {
		compObj[comp.Class] = pointsto.ObjID(len(synths))
		synths = append(synths, pointsto.Obj{
			Site:  "synthetic:" + comp.Class,
			Class: comp.Class,
		})
	}

	// Entry callbacks: lifecycle methods declared on component classes.
	var seeds []ecSeed
	for _, comp := range pkg.Manifest.Components() {
		names := entryCallbackNames(pkg.Program, comp)
		for _, n := range names {
			m := h.Resolve(comp.Class, n.method)
			if m == nil {
				continue
			}
			seeds = append(seeds, ecSeed{
				mctx:      MCtx{Method: m.Ref(), Recv: compObj[comp.Class]},
				origin:    n.origin,
				component: comp.Class,
			})
		}
	}

	oracle := newOracle(h)
	var entries []pointsto.Entry
	for _, s := range seeds {
		m, err := h.MethodByRef(s.mctx.Method)
		if err != nil {
			return nil, err
		}
		entries = append(entries, pointsto.Entry{Method: m, Receivers: []pointsto.ObjID{s.mctx.Recv}})
	}
	return &SolveInputs{
		H:       h,
		Synths:  synths,
		Entries: entries,
		Opts: pointsto.Options{
			K:       opts.K,
			Spawner: oracle.classify,
			Factory: oracle.factory,
		},
		seeds:   seeds,
		compObj: compObj,
	}, nil
}

// BuildContext is Build under an observability context: the points-to
// solve and thread attachment run in their own spans, and the modeled
// thread / spawn-edge counts land in the pipeline counters.
func BuildContext(ctx context.Context, pkg *apk.Package, opts Options) (*Model, error) {
	if opts.MaxThreads <= 0 {
		opts.MaxThreads = 4096
	}
	si, err := PrepareSolve(pkg, opts)
	if err != nil {
		return nil, err
	}
	h, compObj, seeds := si.H, si.compObj, si.seeds

	// Points-to solve with spawn discovery — or, when the caller carries
	// a digest-matched snapshot from a previous run, a restore.
	var pts *pointsto.Result
	if opts.Presolved != nil {
		pts = pointsto.FromSnapshot(h, opts.Presolved)
	} else {
		pts = pointsto.SolveWithSyntheticsContext(ctx, h, si.Synths, si.Entries, si.Opts)
	}

	m := &Model{
		Pkg:     pkg,
		H:       h,
		PTS:     pts,
		calls:   newCallGraph(pts),
		compObj: compObj,
	}

	// Thread 0: dummy main.
	m.Threads = append(m.Threads, &Thread{ID: 0, Kind: KindDummyMain, Parent: -1, Looper: true, Origin: "dummy"})

	// EC threads.
	for _, s := range seeds {
		m.Threads = append(m.Threads, &Thread{
			ID:        len(m.Threads),
			Kind:      KindEntryCallback,
			Origin:    s.origin,
			Entry:     s.mctx,
			Parent:    0,
			Looper:    true,
			Component: s.component,
		})
	}

	_, span := obs.Start(ctx, "threadify.attach")
	err = m.attachSpawnedThreads(opts.MaxThreads)
	span.SetAttr("threads", len(m.Threads))
	span.End()
	if err != nil {
		return nil, err
	}
	obs.Add(ctx, "threads_modeled", int64(len(m.Threads)))
	obs.Add(ctx, "spawn_edges", int64(len(pts.SpawnEdges())))
	return m, nil
}

// namedCallback pairs a callback method name with its origin tag.
type namedCallback struct {
	method string
	origin string
}

// entryCallbackNames lists the lifecycle callbacks a component class (or
// its app-defined superclasses) declares.
func entryCallbackNames(prog *ir.Program, comp *manifest.Component) []namedCallback {
	var names []namedCallback
	seen := make(map[string]bool)
	for cur := comp.Class; cur != ""; {
		c := prog.Class(cur)
		if c == nil {
			break
		}
		for _, mth := range c.Methods {
			if mth.Abstract || seen[mth.Name] {
				continue
			}
			switch comp.Kind {
			case manifest.ActivityComponent:
				if framework.IsLifecycleCallback(mth.Name) {
					seen[mth.Name] = true
					names = append(names, namedCallback{mth.Name, "lifecycle"})
				}
			case manifest.ServiceComponent:
				if framework.IsServiceLifecycleCallback(mth.Name) {
					seen[mth.Name] = true
					names = append(names, namedCallback{mth.Name, "service-lifecycle"})
				}
			case manifest.ReceiverComponent:
				if mth.Name == framework.ReceiverCallback {
					seen[mth.Name] = true
					names = append(names, namedCallback{mth.Name, "receiver-manifest"})
				}
			}
		}
		// Stop at framework classes: their methods are abstract anyway.
		cur = c.Super
	}
	sort.Slice(names, func(i, j int) bool { return names[i].method < names[j].method })
	return names
}

// oracle classifies invokes into spawn specs using the class hierarchy.
type oracle struct {
	h *cha.Hierarchy
}

func newOracle(h *cha.Hierarchy) *oracle { return &oracle{h: h} }

// factory models framework calls that return fresh objects as
// allocations at the call site, so downstream analyses (no-sleep lock
// identity, view identity) can distinguish the results.
func (o *oracle) factory(caller *ir.Method, idx int, in ir.Instr) (string, bool) {
	if in.Op != ir.OpInvoke {
		return "", false
	}
	if framework.ClassifyWakeLock(o.h, in.Callee().Class, in.Callee().Name) == framework.WakeNew {
		return framework.WakeLock, true
	}
	switch in.Callee().Name {
	case "findViewById":
		if o.h.IsSubtypeOf(in.Callee().Class, framework.Activity) {
			return framework.View, true
		}
	case "obtainMessage":
		if o.h.IsSubtypeOf(in.Callee().Class, framework.Handler) {
			return framework.Message, true
		}
	}
	return "", false
}

func (o *oracle) classify(caller *ir.Method, idx int, in ir.Instr) []pointsto.SpawnSpec {
	if in.Op != ir.OpInvoke {
		return nil
	}
	recvClass := in.Callee().Class
	if argIdx, iface, ok := framework.IsRegistrationCall(o.h, recvClass, in.Callee().Name); ok {
		return []pointsto.SpawnSpec{{
			Tag:     tagListener,
			FromArg: argIdx,
			Methods: framework.ListenerMethods(iface),
		}}
	}
	switch framework.ClassifyPost(o.h, recvClass, in.Callee().Name) {
	case framework.PostRunnable:
		return []pointsto.SpawnSpec{{Tag: tagRunnablePC, FromArg: 0, Methods: []string{framework.RunMethod}}}
	case framework.PostSendMessage:
		return []pointsto.SpawnSpec{{Tag: tagHandlerMsg, FromArg: -1, Methods: []string{framework.HandlerCallback}}}
	case framework.PostBindService:
		return []pointsto.SpawnSpec{{Tag: tagServiceConn, FromArg: 0, Methods: framework.ServiceConnCallbacks}}
	case framework.PostRegisterReceiver:
		return []pointsto.SpawnSpec{{Tag: tagReceiver, FromArg: 0, Methods: []string{framework.ReceiverCallback}}}
	case framework.PostExecuteTask:
		return []pointsto.SpawnSpec{
			{Tag: tagTaskBody, FromArg: -1, Methods: []string{framework.AsyncTaskBody}},
			{Tag: tagTaskCallback, FromArg: -1, Methods: []string{"onPreExecute", "onPostExecute"}},
		}
	case framework.PostPublishProgress:
		return []pointsto.SpawnSpec{{Tag: tagTaskProgress, FromArg: -1, Methods: []string{"onProgressUpdate"}}}
	case framework.PostStartThread:
		return []pointsto.SpawnSpec{{Tag: tagNative, FromArg: -1, Methods: []string{framework.RunMethod}}}
	case framework.PostExecutorSubmit, framework.PostTimerSchedule:
		return []pointsto.SpawnSpec{{Tag: tagNative, FromArg: 0, Methods: []string{framework.RunMethod}}}
	}
	return nil
}

// callGraph is the context-sensitive call graph in dense form. It
// numbers every method context of the points-to solve in (method,
// receiver) order, so a sorted list of numbers is a sorted list of
// contexts.
type callGraph struct {
	pts  *pointsto.Result
	ctxs []MCtx
	// rank[id] is the number of the solver's context id.
	rank []int32
	// The callees of context i are succ[off[i]:off[i+1]].
	off, succ []int32
	// reach[i] caches the contexts reachable from context i, and
	// reachNums the same as numbers; threads with the same entry share
	// them.
	reach     [][]MCtx
	reachNums [][]int32
	// seen, stack and found are reused by every depth-first search:
	// seen[i] == epoch marks context i visited by the current search.
	seen         []uint32
	epoch        uint32
	stack, found []int32
}

// newCallGraph numbers the solver's contexts and renumbers its call
// graph to match.
func newCallGraph(pts *pointsto.Result) *callGraph {
	n := pts.NumContexts()
	g := &callGraph{pts: pts, ctxs: make([]MCtx, n), rank: make([]int32, n)}
	byRank := make([]int32, n)
	for id := range byRank {
		byRank[id] = int32(id)
	}
	slices.SortFunc(byRank, func(a, b int32) int {
		am, ar := pts.Context(a)
		bm, br := pts.Context(b)
		return compareMCtx(MCtx{am, ar}, MCtx{bm, br})
	})
	for r, id := range byRank {
		g.rank[id] = int32(r)
		method, recv := pts.Context(id)
		g.ctxs[r] = MCtx{method, recv}
	}
	off, succ := pts.CallGraph()
	g.off = make([]int32, n+1)
	g.succ = make([]int32, 0, len(succ))
	for r, id := range byRank {
		for _, callee := range succ[off[id]:off[id+1]] {
			g.succ = append(g.succ, g.rank[callee])
		}
		g.off[r+1] = int32(len(g.succ))
	}
	g.reach = make([][]MCtx, n)
	g.reachNums = make([][]int32, n)
	g.seen = make([]uint32, n)
	return g
}

func compareMCtx(a, b MCtx) int {
	if c := strings.Compare(a.Method, b.Method); c != 0 {
		return c
	}
	return cmp.Compare(a.Recv, b.Recv)
}

// num returns the number of context mc, or false when the solve did not
// analyze it.
func (g *callGraph) num(mc MCtx) (int32, bool) {
	id, ok := g.pts.ContextID(mc.Method, mc.Recv)
	if !ok {
		return 0, false
	}
	return g.rank[id], true
}

// from returns the contexts reachable from entry over call edges, entry
// included, sorted by (method, receiver), and their numbers (nil when
// the solve did not analyze entry).
func (g *callGraph) from(entry MCtx) ([]MCtx, []int32) {
	root, ok := g.num(entry)
	if !ok {
		return []MCtx{entry}, nil
	}
	if r := g.reach[root]; r != nil {
		return r, g.reachNums[root]
	}
	g.epoch++
	g.found = append(g.found[:0], root)
	g.seen[root] = g.epoch
	g.stack = append(g.stack[:0], root)
	for len(g.stack) > 0 {
		i := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, j := range g.succ[g.off[i]:g.off[i+1]] {
			if g.seen[j] != g.epoch {
				g.seen[j] = g.epoch
				g.found = append(g.found, j)
				g.stack = append(g.stack, j)
			}
		}
	}
	nums := slices.Clone(g.found)
	slices.Sort(nums)
	r := make([]MCtx, len(nums))
	for k, i := range nums {
		r[k] = g.ctxs[i]
	}
	g.reach[root], g.reachNums[root] = r, nums
	return r, nums
}

// Reach returns the method contexts thread t may execute (its entry plus
// everything reachable over call edges — spawn edges excluded), sorted
// by (method, receiver). The slice is cached and shared: callers must
// not modify it.
func (m *Model) Reach(t int) []MCtx {
	if t < len(m.reach) && m.reach[t] != nil {
		return m.reach[t]
	}
	if n := len(m.Threads); len(m.reach) < n {
		m.reach = append(m.reach, make([][]MCtx, n-len(m.reach))...)
	}
	r := []MCtx{}
	if th := m.Threads[t]; th.Kind != KindDummyMain {
		r, _ = m.calls.from(th.Entry)
	}
	m.reach[t] = r
	return r
}

// attachSpawnedThreads grows the forest to fixpoint: a spawn edge whose
// caller context is executed by thread t adds a child of t.
func (m *Model) attachSpawnedThreads(maxThreads int) error {
	g := m.calls
	edges := m.PTS.SpawnEdges()
	// A made thread is keyed by its parent, its entry context's number,
	// and its spawn site as (number of the site method's first context,
	// instruction index).
	type childKey struct {
		parent, entry, siteMethod, site int32
	}
	made := make(map[childKey]int32)
	// keys[i] is spawn edge i's key without the parent; the edges
	// callers[c] makes are byCaller[callerOff[c]:callerOff[c+1]], in
	// edge order. The solve analyzes both ends of every spawn edge, so
	// an edge with an end it did not number belongs to a corrupt result
	// and is dropped.
	keys := make([]childKey, len(edges))
	callerOf := make([]int32, len(edges))
	callerOff := make([]int32, len(g.ctxs)+1)
	for i, e := range edges {
		caller, ok1 := g.num(MCtx{e.CallerMethod, e.CallerRecv})
		entry, ok2 := g.num(MCtx{e.TargetMethod, e.TargetRecv})
		if !ok1 || !ok2 {
			callerOf[i] = -1
			continue
		}
		siteMethod := sort.Search(len(g.ctxs), func(r int) bool { return g.ctxs[r].Method >= e.CallerMethod })
		keys[i] = childKey{entry: entry, siteMethod: int32(siteMethod), site: int32(e.Site)}
		callerOf[i] = caller
		callerOff[caller+1]++
	}
	for c := range g.ctxs {
		callerOff[c+1] += callerOff[c]
	}
	byCaller := make([]int32, callerOff[len(g.ctxs)])
	next := slices.Clone(callerOff[:len(g.ctxs)])
	for i, c := range callerOf {
		if c >= 0 {
			byCaller[next[c]] = int32(i)
			next[c]++
		}
	}

	mkThread := func(parent int, kind Kind, tag int, key childKey, entry MCtx, site ir.InstrID, looper bool, component string) int {
		key.parent = int32(parent)
		if id, ok := made[key]; ok {
			return int(id)
		}
		// Refuse to re-create an entry that is already on the ancestor
		// chain: posting cycles would otherwise unroll forever.
		for a := parent; a >= 0; a = m.Threads[a].Parent {
			t := m.Threads[a]
			if t.Entry == entry && t.Site == site {
				made[key] = int32(a)
				return a
			}
		}
		th := &Thread{
			ID:        len(m.Threads),
			Kind:      kind,
			Post:      tagPostKind(tag),
			Origin:    tagPostKind(tag).String(),
			Entry:     entry,
			Parent:    parent,
			Site:      site,
			Looper:    looper,
			Component: component,
		}
		if tag == tagListener {
			th.Origin = "listener"
			th.Post = framework.PostNone
		}
		m.Threads = append(m.Threads, th)
		made[key] = int32(th.ID)
		return th.ID
	}

	// spawns[tid] lists, in edge order, the edges whose caller context
	// thread tid executes. A thread's reach set never changes, so the
	// list is built on the thread's first pass.
	var spawns [][]int32
	for changed := true; changed; {
		changed = false
		if len(m.Threads) > maxThreads {
			return fmt.Errorf("threadify: thread forest exceeded %d threads", maxThreads)
		}
		// Snapshot: iterating while appending is fine (children processed
		// in later passes), but we re-check each thread every pass and
		// dedupe through `made`.
		for tid := 0; tid < len(m.Threads); tid++ {
			if tid == len(spawns) {
				var own []int32
				if th := m.Threads[tid]; th.Kind != KindDummyMain {
					_, nums := g.from(th.Entry)
					for _, c := range nums {
						own = append(own, byCaller[callerOff[c]:callerOff[c+1]]...)
					}
				}
				slices.Sort(own)
				spawns = append(spawns, own)
			}
			for _, i := range spawns[tid] {
				e, key := edges[i], keys[i]
				site := ir.InstrID{Method: e.CallerMethod, Index: e.Site}
				entry := MCtx{e.TargetMethod, e.TargetRecv}
				before := len(m.Threads)
				comp := m.Threads[tid].Component
				switch e.Tag {
				case tagListener:
					// UI/system listeners are entry callbacks: children of
					// the dummy main regardless of who registered them
					// (§4.1), but they still belong to the registering
					// thread's component for lifecycle/CHB reasoning.
					mkThread(0, KindEntryCallback, e.Tag, key, entry, site, true, comp)
				case tagNative:
					mkThread(tid, KindNativeThread, e.Tag, key, entry, site, false, comp)
				case tagTaskBody:
					mkThread(tid, KindTaskBody, e.Tag, key, entry, site, false, comp)
				case tagTaskCallback:
					// onPreExecute/onPostExecute: children of the AsyncTask
					// body thread for the same task object (§4.2).
					bodyEntry, ok := m.taskBodyEntry(e.TargetRecv)
					if !ok {
						break
					}
					body, ok := g.num(bodyEntry)
					if !ok {
						break
					}
					bodyKey := key
					bodyKey.parent, bodyKey.entry = int32(tid), body
					bodyID, ok := made[bodyKey]
					if !ok {
						break
					}
					mkThread(int(bodyID), KindPostedCallback, e.Tag, key, entry, site, true, comp)
				case tagTaskProgress:
					mkThread(tid, KindPostedCallback, e.Tag, key, entry, site, true, comp)
				default:
					mkThread(tid, KindPostedCallback, e.Tag, key, entry, site, true, comp)
				}
				if len(m.Threads) != before {
					changed = true
				}
			}
		}
	}
	return nil
}

// taskBodyEntry finds the doInBackground entry context for a task object.
func (m *Model) taskBodyEntry(task pointsto.ObjID) (MCtx, bool) {
	cls := m.PTS.Obj(task).Class
	tm := m.H.Resolve(cls, framework.AsyncTaskBody)
	if tm == nil {
		return MCtx{}, false
	}
	return MCtx{tm.Ref(), task}, true
}

// ComponentObj returns the synthetic receiver for a component class.
func (m *Model) ComponentObj(class string) (pointsto.ObjID, bool) {
	o, ok := m.compObj[class]
	return o, ok
}

// IsAncestor reports whether thread a is an ancestor of b (or a == b).
func (m *Model) IsAncestor(a, b int) bool {
	for cur := b; cur >= 0; cur = m.Threads[cur].Parent {
		if cur == a {
			return true
		}
	}
	return false
}

// Lineage renders the ancestor chain of a thread, root first — the
// "callback and thread sequence" aid of §7.
func (m *Model) Lineage(t int) string {
	var parts []string
	for cur := t; cur >= 0; cur = m.Threads[cur].Parent {
		parts = append(parts, m.Threads[cur].Name())
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " -> ")
}

// Stats summarizes the model for Table 1's EC/PC/T columns.
type Stats struct {
	EC int // entry callbacks
	PC int // posted callbacks
	T  int // threads: dummy main + task bodies + native threads
}

// Stats counts thread kinds the way Table 1 reports them.
func (m *Model) Stats() Stats {
	var s Stats
	for _, t := range m.Threads {
		switch t.Kind {
		case KindDummyMain, KindTaskBody, KindNativeThread:
			s.T++
		case KindEntryCallback:
			s.EC++
		case KindPostedCallback:
			s.PC++
		}
	}
	return s
}
