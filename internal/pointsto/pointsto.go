// Package pointsto implements a k-object-sensitive, flow-insensitive,
// inclusion-based (Andersen-style) points-to analysis with an on-the-fly
// call graph — the same analysis family Chord contributes to the paper's
// pipeline (§5, "k-object-sensitive-analysis" with default k=2).
//
// Abstract objects are allocation sites qualified by a heap context: the
// chain of up to k-1 allocation sites of the receivers under which the
// allocation was analyzed. Instance methods are analyzed once per
// abstract receiver object (object sensitivity); static methods inherit
// the caller's context.
//
// Internally the solver runs on a dense, interned constraint graph:
// method refs, method contexts, field names, and static fields become
// int32 handles; each method context owns a contiguous block of variable
// IDs (one per register its method names); points-to sets are
// word-packed bitsets with difference propagation (each worklist drain
// pushes only the delta); and copy-edge cycles are collapsed online
// through a path-compressed union-find so context-cloned copy chains
// stop re-propagating.
package pointsto

import (
	"time"

	"context"
	"slices"
	"sort"

	"nadroid/internal/cha"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
)

// ObjID identifies an abstract heap object (allocation site + context).
type ObjID int

// Obj describes an abstract object.
type Obj struct {
	// Site is "method:index" for real allocations or "synthetic:<name>"
	// for component instances the framework allocates.
	Site string
	// Class is the allocated class.
	Class string
	// Ctx is the heap context: up to k-1 receiver allocation sites,
	// outermost last, joined with '|'. "" is the empty context.
	Ctx string
}

func (o Obj) String() string {
	if o.Ctx == "" {
		return o.Site
	}
	return o.Site + "[" + o.Ctx + "]"
}

// Options configures the solver.
type Options struct {
	// K is the object-sensitivity depth; the paper's default is 2
	// (receiver chain of length 1 qualifying each allocation).
	K int
	// SkipCall lets threadification cut posting-API call sites out of
	// the call graph (they became thread spawns).
	SkipCall func(m *ir.Method, idx int, in ir.Instr) bool
	// Spawner classifies invokes as thread-spawn sites (posting APIs,
	// Thread.start, listener registrations). A spawn site does not
	// transfer control synchronously; instead the solver creates callee
	// contexts for the spec'd methods on the target object and records
	// SpawnEdges threadification consumes.
	Spawner SpawnOracle
	// Factory classifies invokes that behave like allocations (framework
	// factories such as PowerManager.newWakeLock or findViewById): the
	// call site is modeled as an allocation of the returned class.
	Factory FactoryOracle
}

// FactoryOracle returns the allocated class for factory-like invokes, or
// ok=false for ordinary calls.
type FactoryOracle func(caller *ir.Method, idx int, in ir.Instr) (class string, ok bool)

// SpawnSpec describes one family of threads created by a spawn site.
type SpawnSpec struct {
	// Tag is an opaque client tag (threadify stores its PostKind here).
	Tag int
	// FromArg selects the register whose pointees become the spawned
	// thread's receiver: -1 for the invoke receiver, else an arg index.
	FromArg int
	// Methods are candidate entry method names resolved against the
	// target object's class; unresolved names are skipped.
	Methods []string
}

// SpawnOracle classifies an invoke instruction; nil/empty means the call
// is an ordinary call.
type SpawnOracle func(caller *ir.Method, idx int, in ir.Instr) []SpawnSpec

// SpawnEdge is one resolved spawn: the spawn site, the client tag, and
// the entry method context of the spawned thread.
type SpawnEdge struct {
	CallerMethod string
	CallerRecv   ObjID
	Site         int
	Tag          int
	TargetMethod string
	TargetRecv   ObjID
}

// CallEdge is one context-sensitive call-graph edge.
type CallEdge struct {
	CallerMethod string
	CallerRecv   ObjID
	Site         int
	CalleeMethod string
	CalleeRecv   ObjID
}

// Entry seeds the solver: an entry method plus the abstract objects its
// receiver may point to. Static entry methods use no receiver.
type Entry struct {
	Method    *ir.Method
	Receivers []ObjID
}

// NoRecv is the receiver value for context-free (static/entry) contexts.
const NoRecv = ObjID(-1)

// Result is the solved points-to state. Accessors are safe for
// concurrent use: the union-find is fully flattened when the solve
// finishes, so lookups never mutate shared state.
type Result struct {
	c *core
}

// SolveStats summarizes the work a solve did.
type SolveStats struct {
	// Iterations is the number of worklist items drained to fixpoint.
	Iterations int
	// DeltaObjs is the total number of objects pushed through worklist
	// deltas — the difference-propagation volume (each drain moves only
	// the new objects, not the var's full set).
	DeltaObjs int
	// VarFacts is the total points-to tuple count over all variables.
	VarFacts int
	// Objects is the abstract-object count (synthetics included).
	Objects int
	// MCtxs is the number of analyzed method contexts.
	MCtxs int
}

// SolveTime is the wall time the solve that built r took; zero when r
// was restored from a snapshot.
func (r *Result) SolveTime() time.Duration { return r.c.elapsed }

// Stats recomputes the solve summary from the result (O(vars)).
func (r *Result) Stats() SolveStats {
	c := r.c
	st := SolveStats{
		Iterations: c.iterations,
		DeltaObjs:  int(c.deltaObjs),
		Objects:    len(c.objs),
		MCtxs:      len(c.mctxs),
	}
	for _, mc := range c.mctxs {
		if mc.varBase < 0 {
			continue
		}
		for slot := range varID(mc.nregs) {
			st.VarFacts += c.varPts[c.root(mc.varBase+slot)].Count()
		}
	}
	return st
}

// SolveWithSynthetics runs the analysis from the given entries with
// pre-interned synthetic objects: synths[i] is assigned ObjID(i),
// letting threadification seed entry receivers (component instances
// "allocated by the framework") before the solve. Pass nil synths for a
// plain solve.
func SolveWithSynthetics(h *cha.Hierarchy, synths []Obj, entries []Entry, opts Options) *Result {
	return SolveWithSyntheticsContext(context.Background(), h, synths, entries, opts)
}

// SolveWithSyntheticsContext is SolveWithSynthetics under an
// observability context: the solve runs inside a "pointsto.solve" span
// and reports iteration/delta/fact/object counts as pipeline counters.
func SolveWithSyntheticsContext(ctx context.Context, h *cha.Hierarchy, synths []Obj, entries []Entry, opts Options) *Result {
	_, span := obs.Start(ctx, "pointsto.solve", obs.KV("k", opts.K), obs.KV("entries", len(entries)))
	res := solveWithSynthetics(h, synths, entries, opts)
	st := res.Stats()
	span.SetAttr("iterations", st.Iterations)
	span.SetAttr("delta_objs", st.DeltaObjs)
	span.SetAttr("var_facts", st.VarFacts)
	span.SetAttr("objects", st.Objects)
	span.SetAttr("mctxs", st.MCtxs)
	span.End()
	obs.Add(ctx, "pointsto_iterations", int64(st.Iterations))
	obs.Add(ctx, "pointsto_delta_objs", int64(st.DeltaObjs))
	obs.Add(ctx, "pointsto_var_facts", int64(st.VarFacts))
	obs.Add(ctx, "pointsto_objects", int64(st.Objects))
	obs.Add(ctx, "pointsto_mctxs", int64(st.MCtxs))
	return res
}

// --- Result accessors -------------------------------------------------

// Objects returns the interned object table.
func (r *Result) Objects() []Obj { return r.c.objs }

// Obj returns the descriptor for id.
func (r *Result) Obj(id ObjID) Obj { return r.c.objs[id] }

// VarSet returns the points-to set of register reg of method under the
// context keyed by recv, or nil. The set is the solver's own storage:
// callers read it and must not modify it. The other *Set accessors
// share the same contract.
func (r *Result) VarSet(method string, recv ObjID, reg int) Bitset {
	c := r.c
	mid, ok := c.methodIdx[method]
	if !ok {
		return nil
	}
	mc, ok := c.mctxIdx[mctxKeyOf(mid, recv)]
	if !ok {
		return nil
	}
	info := &c.mctxs[mc]
	if info.varBase < 0 {
		return nil
	}
	slot, ok := slotOf(c.methodRegs[mid], info.nregs, reg)
	if !ok {
		return nil
	}
	return c.varPts[c.root(info.varBase+slot)]
}

// PointsTo returns the sorted points-to set of register reg of method
// (by canonical ref) under the context keyed by receiver object recv.
func (r *Result) PointsTo(method string, recv ObjID, reg int) []ObjID {
	set := r.VarSet(method, recv, reg)
	return set.AppendIDs(make([]ObjID, 0, set.Count()))
}

// Reachable reports whether method was analyzed under any context.
func (r *Result) Reachable(method string) bool {
	mid, ok := r.c.methodIdx[method]
	return ok && len(r.c.methodMctxs[mid]) > 0
}

// FieldSet returns the pointees of (obj, field), or nil.
func (r *Result) FieldSet(obj ObjID, field string) Bitset {
	c := r.c
	fid, ok := c.fieldIdx[field]
	if !ok {
		return nil
	}
	si, ok := c.fpIdx[fpKeyOf(obj, fid)]
	if !ok {
		return nil
	}
	return c.fpSets[si]
}

// FieldPointsTo returns the pointees of (obj, field), sorted.
func (r *Result) FieldPointsTo(obj ObjID, field string) []ObjID {
	return r.FieldSet(obj, field).AppendIDs(nil)
}

// StaticSet returns the pointees of a static field "Class.name", or nil.
func (r *Result) StaticSet(field string) Bitset {
	c := r.c
	sid, ok := c.staticIdx[field]
	if !ok {
		return nil
	}
	return c.staticSets[sid]
}

// StaticPointsTo returns the pointees of a static field "Class.name",
// named by its declaring class.
func (r *Result) StaticPointsTo(field string) []ObjID {
	return r.StaticSet(field).AppendIDs(nil)
}

// CalleeContextsAt returns (calleeMethod, calleeRecv) pairs at a site.
func (r *Result) CalleeContextsAt(method string, recv ObjID, site int) []struct {
	Method string
	Recv   ObjID
} {
	c := r.c
	var out []struct {
		Method string
		Recv   ObjID
	}
	for _, mc := range r.calleeMctxsAt(method, recv, site) {
		out = append(out, struct {
			Method string
			Recv   ObjID
		}{c.methodNames[c.mctxs[mc].method], c.mctxs[mc].recv})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		return out[i].Recv < out[j].Recv
	})
	return out
}

func (r *Result) calleeMctxsAt(method string, recv ObjID, site int) []mctxID {
	mc, ok := r.ContextID(method, recv)
	if !ok {
		return nil
	}
	return r.CalleesAt(mc, site)
}

// NumContexts returns how many method contexts the solve analyzed.
// Context ids run from 0 to NumContexts()-1.
func (r *Result) NumContexts() int { return len(r.c.mctxs) }

// Context returns the method and receiver of context id.
func (r *Result) Context(id int32) (method string, recv ObjID) {
	mc := &r.c.mctxs[id]
	return r.c.methodNames[mc.method], mc.recv
}

// ContextID returns the id of the context (method, recv), or false when
// the solve analyzed no such context.
func (r *Result) ContextID(method string, recv ObjID) (int32, bool) {
	mid, ok := r.c.methodIdx[method]
	if !ok {
		return 0, false
	}
	mc, ok := r.c.mctxIdx[mctxKeyOf(mid, recv)]
	return mc, ok
}

// CalleesAt returns the callee contexts of context id at instruction
// site, in the order the solve found them. The slice is shared: callers
// must not modify it.
func (r *Result) CalleesAt(id int32, site int) []int32 {
	return r.c.calleeEdges[edgeKeyOf(id, int32(site))]
}

// CallGraph returns the context call graph with contexts as ids: the
// callees of context i are succ[off[i]:off[i+1]], one entry per call
// site that reaches the callee, in no particular order.
func (r *Result) CallGraph() (off, succ []int32) {
	c := r.c
	off = make([]int32, len(c.mctxs)+1)
	n := 0
	for ek, callees := range c.calleeEdges {
		off[ek>>32+1] += int32(len(callees))
		n += len(callees)
	}
	for i := range c.mctxs {
		off[i+1] += off[i]
	}
	succ = make([]int32, n)
	next := slices.Clone(off[:len(c.mctxs)])
	for ek, callees := range c.calleeEdges {
		caller := ek >> 32
		next[caller] += int32(copy(succ[next[caller]:], callees))
	}
	return off, succ
}

// SpawnEdges returns the resolved spawn edges in discovery order.
func (r *Result) SpawnEdges() []SpawnEdge { return r.c.spawnEdges }

// CallEdges flattens the context-sensitive call graph. Edges are sorted
// for deterministic consumption.
func (r *Result) CallEdges() []CallEdge {
	c := r.c
	var out []CallEdge
	for ek, callees := range c.calleeEdges {
		caller := &c.mctxs[mctxID(ek>>32)]
		site := int(int32(uint32(ek)))
		for _, mc := range callees {
			out = append(out, CallEdge{
				CallerMethod: c.methodNames[caller.method],
				CallerRecv:   caller.recv,
				Site:         site,
				CalleeMethod: c.methodNames[c.mctxs[mc].method],
				CalleeRecv:   c.mctxs[mc].recv,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CallerMethod != b.CallerMethod {
			return a.CallerMethod < b.CallerMethod
		}
		if a.CallerRecv != b.CallerRecv {
			return a.CallerRecv < b.CallerRecv
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.CalleeMethod != b.CalleeMethod {
			return a.CalleeMethod < b.CalleeMethod
		}
		return a.CalleeRecv < b.CalleeRecv
	})
	return out
}

// Hierarchy returns the class hierarchy the result was solved against.
func (r *Result) Hierarchy() *cha.Hierarchy { return r.c.h }
