package pointsto

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"nadroid/internal/cha"
	"nadroid/internal/ir"
)

// Interned handle types. Every hot identifier the solver juggles —
// method refs, method contexts, variables, instance fields, static
// fields — is an int32 index into a dense table, so constraint-graph
// edges are integer pairs instead of struct-keyed map entries.
type (
	methodID = int32
	mctxID   = int32
	varID    = int32
	fieldID  = int32
	staticID = int32
)

// mctxInfo is one interned method context: a method analyzed under one
// receiver object. Its registers occupy the contiguous varID block
// [varBase, varBase+nregs); varBase is -1 when the method could not be
// resolved (the context still counts as analyzed, matching the
// map-based solver this replaced).
type mctxInfo struct {
	method  methodID
	recv    ObjID
	varBase varID
	nregs   int32
	m       *ir.Method
}

// core is the interned analysis state shared by the solver and the
// public Result accessors. After the solve finishes the union-find in
// parent is flattened (parent[v] is the class representative directly),
// so accessors never mutate it and a Result is safe for concurrent use.
type core struct {
	h *cha.Hierarchy

	objs   []Obj
	objIdx map[Obj]ObjID

	methodNames []string
	methodIdx   map[string]methodID
	methodOf    []*ir.Method // resolved method per id; nil if unresolved
	methodMctxs [][]mctxID   // contexts per method, in creation order

	mctxs   []mctxInfo
	mctxIdx map[uint64]mctxID

	fieldNames []string
	fieldIdx   map[string]fieldID

	// Per-variable points-to state, indexed by varID through parent.
	varPts   []Bitset
	varDelta []Bitset
	parent   []varID // union-find over copy-cycle-collapsed variables

	// Instance-field points-to: (obj, field) -> set.
	fpIdx  map[uint64]int32
	fpSets []Bitset

	// Static-field points-to: "Class.field" -> set.
	staticIdx  map[string]staticID
	staticSets []Bitset

	calleeEdges map[uint64][]mctxID
	spawnEdges  []SpawnEdge

	iterations int
	deltaObjs  int64
	// elapsed is the wall time of the solve that built this result; a
	// result restored from a snapshot was not solved and reads zero.
	elapsed time.Duration
}

func mctxKeyOf(mid methodID, recv ObjID) uint64 {
	return uint64(uint32(mid))<<32 | uint64(uint32(int32(recv)))
}

func edgeKeyOf(mc mctxID, site int32) uint64 {
	return uint64(uint32(mc))<<32 | uint64(uint32(site))
}

func fpKeyOf(obj ObjID, fid fieldID) uint64 {
	return uint64(uint32(int32(obj)))<<32 | uint64(uint32(fid))
}

// internObj interns an abstract object, returning its stable id.
func (c *core) internObj(o Obj) ObjID {
	if id, ok := c.objIdx[o]; ok {
		return id
	}
	id := ObjID(len(c.objs))
	c.objs = append(c.objs, o)
	c.objIdx[o] = id
	return id
}

// find returns v's class representative with path compression. Solver
// use only: it mutates parent, so post-solve readers go through the
// flattened parent slice instead.
func (c *core) find(v varID) varID {
	for c.parent[v] != v {
		c.parent[v] = c.parent[c.parent[v]]
		v = c.parent[v]
	}
	return v
}

// flattenParent path-compresses every variable to its root so that
// parent[v] is always a direct representative and concurrent readers
// never write.
func (c *core) flattenParent() {
	for v := range c.parent {
		c.parent[v] = c.find(varID(v))
	}
}

// root returns v's class representative without mutation. Only valid
// after flattenParent, which every solve runs before returning; Result
// accessors use it so they are safe for concurrent readers.
func (c *core) root(v varID) varID { return c.parent[v] }

// Constraint edge types, attached to the variable whose growth triggers
// them (base var for loads/stores/invokes, value var for store-sources
// and static stores, target var for spawns).
type (
	loadC struct {
		field fieldID
		dst   varID
	}
	// storeC with field >= 0 is an instance-field store hanging off the
	// base variable; field < 0 encodes a static store ^field hanging off
	// the value variable (statics interleave with instance stores in the
	// same list to preserve the original solver's drain order).
	storeC struct {
		field int32
		src   varID
	}
	storeSrcC struct {
		base  varID
		field fieldID
	}
	invokeC struct {
		caller mctxID
		idx    int32
	}
	spawnC struct {
		caller mctxID
		idx    int32
		spec   SpawnSpec
	}
)

type spawnKey struct {
	caller mctxID
	site   int32
	tag    int32
	target methodID
	recv   ObjID
}

// collapseEvery is the number of newly inserted copy edges between
// online SCC-collapse passes. Copy cycles come from context cloning
// (the same parameter chains re-materialized per receiver object), and
// collapsing them early keeps one merged set per cycle instead of
// ping-ponging deltas around it.
const collapseEvery = 128

// solver carries the constraint graph and worklist. All per-variable
// slices are indexed by varID and grown in lock-step by growVars.
type solver struct {
	h    *cha.Hierarchy
	opts Options
	c    *core

	methodIdxByPtr map[*ir.Method]methodID
	methodRets     [][]int32 // cached return registers per methodID
	methodRetsOK   []bool

	copyOut   [][]varID
	loads     [][]loadC
	stores    [][]storeC
	storeSrcs [][]storeSrcC
	invokes   [][]invokeC
	spawns    [][]spawnC
	inWork    []bool

	fpDeps     [][]varID // load destinations per fp set
	staticDeps [][]varID // load destinations per static field

	work      []varID
	copySeen  map[uint64]bool
	spawnSeen map[spawnKey]bool

	copiesSinceCollapse int

	hctx   []string // heap-context cache per receiver ObjID
	hctxOK []bool
}

func solveWithSynthetics(h *cha.Hierarchy, synths []Obj, entries []Entry, opts Options) *Result {
	start := time.Now()
	if opts.K < 1 {
		opts.K = 2
	}
	c := &core{
		h:           h,
		objIdx:      make(map[Obj]ObjID),
		methodIdx:   make(map[string]methodID),
		mctxIdx:     make(map[uint64]mctxID),
		fieldIdx:    make(map[string]fieldID),
		fpIdx:       make(map[uint64]int32),
		staticIdx:   make(map[string]staticID),
		calleeEdges: make(map[uint64][]mctxID),
	}
	s := &solver{
		h:              h,
		opts:           opts,
		c:              c,
		methodIdxByPtr: make(map[*ir.Method]methodID),
		copySeen:       make(map[uint64]bool),
		spawnSeen:      make(map[spawnKey]bool),
	}
	// A method analyzed under several receivers takes one register block
	// per receiver, which puts the variable count 6–16% past the
	// program's register total on the corpus apps; the quarter of
	// headroom keeps such solves from copying the tables at the end.
	regs := registerTotal(h.Program())
	s.reserveVars(regs + regs/4)
	for _, o := range synths {
		c.internObj(o)
	}
	for _, e := range entries {
		if e.Method == nil || e.Method.Abstract {
			continue
		}
		mid := s.internMethod(e.Method)
		if len(e.Receivers) == 0 {
			s.processMethod(mid, NoRecv)
			continue
		}
		for _, recv := range e.Receivers {
			mc := s.processMethod(mid, recv)
			if base := c.mctxs[mc].varBase; base >= 0 {
				s.addObj(base+varID(e.Method.ThisReg()), recv)
			}
		}
	}
	s.run()
	c.flattenParent()
	c.elapsed = time.Since(start)
	return &Result{c: c}
}

// internMethod interns a resolved method, keyed by pointer on the hot
// path so virtual dispatch doesn't rebuild ref strings.
func (s *solver) internMethod(m *ir.Method) methodID {
	if mid, ok := s.methodIdxByPtr[m]; ok {
		return mid
	}
	ref := m.Ref()
	mid, ok := s.c.methodIdx[ref]
	if !ok {
		mid = methodID(len(s.c.methodNames))
		s.c.methodNames = append(s.c.methodNames, ref)
		s.c.methodOf = append(s.c.methodOf, m)
		s.c.methodMctxs = append(s.c.methodMctxs, nil)
		s.methodRets = append(s.methodRets, nil)
		s.methodRetsOK = append(s.methodRetsOK, false)
		s.c.methodIdx[ref] = mid
	}
	s.methodIdxByPtr[m] = mid
	return mid
}

func (s *solver) internField(name string) fieldID {
	if fid, ok := s.c.fieldIdx[name]; ok {
		return fid
	}
	fid := fieldID(len(s.c.fieldNames))
	s.c.fieldNames = append(s.c.fieldNames, name)
	s.c.fieldIdx[name] = fid
	return fid
}

func (s *solver) internStatic(field string) staticID {
	if sid, ok := s.c.staticIdx[field]; ok {
		return sid
	}
	sid := staticID(len(s.c.staticSets))
	s.c.staticSets = append(s.c.staticSets, nil)
	s.staticDeps = append(s.staticDeps, nil)
	s.c.staticIdx[field] = sid
	return sid
}

// fpIntern interns the (obj, field) points-to set slot.
func (s *solver) fpIntern(obj ObjID, fid fieldID) int32 {
	key := fpKeyOf(obj, fid)
	if si, ok := s.c.fpIdx[key]; ok {
		return si
	}
	si := int32(len(s.c.fpSets))
	s.c.fpSets = append(s.c.fpSets, nil)
	s.fpDeps = append(s.fpDeps, nil)
	s.c.fpIdx[key] = si
	return si
}

// internMctx interns a method context and allocates its register block.
func (s *solver) internMctx(mid methodID, recv ObjID) (mctxID, bool) {
	key := mctxKeyOf(mid, recv)
	if mc, ok := s.c.mctxIdx[key]; ok {
		return mc, false
	}
	mc := mctxID(len(s.c.mctxs))
	info := mctxInfo{method: mid, recv: recv, varBase: -1}
	if m := s.c.methodOf[mid]; m != nil && !m.Abstract {
		info.m = m
		info.nregs = int32(m.NumRegs)
		info.varBase = varID(len(s.c.parent))
		s.growVars(m.NumRegs)
		for v := info.varBase; v < varID(len(s.c.parent)); v++ {
			s.c.parent[v] = v
		}
	}
	s.c.mctxs = append(s.c.mctxs, info)
	s.c.mctxIdx[key] = mc
	s.c.methodMctxs[mid] = append(s.c.methodMctxs[mid], mc)
	return mc, true
}

// registerTotal sums the registers of every method body in p: the
// variable count of a solve that analyzes each method under exactly one
// receiver context. A method counts for no more registers than its
// receiver, arguments and instructions could name. The reservation
// covers unreached methods too, so without that bound one sparse
// register number (r65535 in a one-line body) would reserve tables for
// 65,536 variables that no solve uses.
func registerTotal(p *ir.Program) int {
	n := 0
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if !m.Abstract {
				n += min(m.NumRegs, 1+m.NumArgs+len(m.Instrs))
			}
		}
	}
	return n
}

// reserveVars sizes every per-variable table for n variables up front,
// so a solve that stays within n never copies them.
func (s *solver) reserveVars(n int) {
	s.c.varPts = make([]Bitset, 0, n)
	s.c.varDelta = make([]Bitset, 0, n)
	s.c.parent = make([]varID, 0, n)
	s.inWork = make([]bool, 0, n)
	s.copyOut = make([][]varID, 0, n)
	s.loads = make([][]loadC, 0, n)
	s.stores = make([][]storeC, 0, n)
	s.storeSrcs = make([][]storeSrcC, 0, n)
	s.invokes = make([][]invokeC, 0, n)
	s.spawns = make([][]spawnC, 0, n)
}

// growVars appends n zero entries to every per-variable table. Within
// the reserved capacity this only reslices; past it the tables grow as
// append grows them.
func (s *solver) growVars(n int) {
	s.c.varPts = extend(s.c.varPts, n)
	s.c.varDelta = extend(s.c.varDelta, n)
	s.c.parent = extend(s.c.parent, n)
	s.inWork = extend(s.inWork, n)
	s.copyOut = extend(s.copyOut, n)
	s.loads = extend(s.loads, n)
	s.stores = extend(s.stores, n)
	s.storeSrcs = extend(s.storeSrcs, n)
	s.invokes = extend(s.invokes, n)
	s.spawns = extend(s.spawns, n)
}

// extend lengthens xs by n zero elements. The tables it serves never
// shrink, so the capacity it reuses was never written.
func extend[T any](xs []T, n int) []T {
	return slices.Grow(xs, n)[:len(xs)+n]
}

// heapCtxOf derives the heap context for allocations analyzed under
// receiver recv: [recv.Site | recv.Ctx] truncated to k-1 sites. Cached
// per receiver — every method context under the same receiver shares it.
func (s *solver) heapCtxOf(recv ObjID) string {
	if recv == NoRecv || s.opts.K <= 1 {
		return ""
	}
	for int(recv) >= len(s.hctx) {
		s.hctx = append(s.hctx, "")
		s.hctxOK = append(s.hctxOK, false)
	}
	if s.hctxOK[recv] {
		return s.hctx[recv]
	}
	ro := s.c.objs[recv]
	parts := []string{ro.Site}
	if ro.Ctx != "" {
		parts = append(parts, strings.Split(ro.Ctx, "|")...)
	}
	if len(parts) > s.opts.K-1 {
		parts = parts[:s.opts.K-1]
	}
	h := strings.Join(parts, "|")
	s.hctx[recv] = h
	s.hctxOK[recv] = true
	return h
}

// returnRegsOf lists registers returned by a method (cached per id).
func (s *solver) returnRegsOf(mid methodID, m *ir.Method) []int32 {
	if s.methodRetsOK[mid] {
		return s.methodRets[mid]
	}
	var out []int32
	for _, in := range m.Instrs {
		if in.Op == ir.OpReturn && in.A != ir.NoReg {
			out = append(out, int32(in.A))
		}
	}
	s.methodRets[mid] = out
	s.methodRetsOK[mid] = true
	return out
}

// processMethod installs the constraints of one method context. Returns
// the context id whether it was new or already processed.
func (s *solver) processMethod(mid methodID, recv ObjID) mctxID {
	mc, created := s.internMctx(mid, recv)
	if !created {
		return mc
	}
	m := s.c.mctxs[mc].m
	if m == nil {
		return mc
	}
	base := s.c.mctxs[mc].varBase
	hctx := s.heapCtxOf(recv)
	methodRef := s.c.methodNames[mid]
	vk := func(reg int) varID { return base + varID(reg) }
	for i, in := range m.Instrs {
		switch in.Op {
		case ir.OpNew:
			obj := s.c.internObj(Obj{
				Site:  methodRef + ":" + strconv.Itoa(i),
				Class: in.Type,
				Ctx:   hctx,
			})
			s.addObj(vk(in.A), obj)
		case ir.OpMove:
			s.addCopy(vk(in.B), vk(in.A))
		case ir.OpGetField:
			b := vk(in.B)
			s.loads[b] = append(s.loads[b], loadC{s.internField(in.Field.Name), vk(in.A)})
			s.retrigger(b)
		case ir.OpPutField:
			b, src := vk(in.B), vk(in.A)
			fid := s.internField(in.Field.Name)
			s.stores[b] = append(s.stores[b], storeC{field: int32(fid), src: src})
			s.storeSrcs[src] = append(s.storeSrcs[src], storeSrcC{base: b, field: fid})
			s.retrigger(b)
			s.retrigger(src)
		case ir.OpGetStatic:
			s.addStaticLoad(s.h.CanonicalField(in.Field).String(), vk(in.A))
		case ir.OpPutStatic:
			s.addStaticStore(vk(in.A), s.h.CanonicalField(in.Field).String())
		case ir.OpInvoke:
			if s.opts.SkipCall != nil && s.opts.SkipCall(m, i, in) {
				continue
			}
			if s.opts.Factory != nil && in.A != ir.NoReg {
				if cls, ok := s.opts.Factory(m, i, in); ok {
					obj := s.c.internObj(Obj{
						Site:  methodRef + ":" + strconv.Itoa(i),
						Class: cls,
						Ctx:   hctx,
					})
					s.addObj(vk(in.A), obj)
					continue
				}
			}
			if s.opts.Spawner != nil {
				if specs := s.opts.Spawner(m, i, in); len(specs) > 0 {
					for _, spec := range specs {
						var target varID
						if spec.FromArg < 0 {
							target = vk(in.B)
						} else if spec.FromArg < len(in.Args) {
							target = vk(in.Args[spec.FromArg])
						} else {
							continue
						}
						s.spawns[target] = append(s.spawns[target], spawnC{mc, int32(i), spec})
						s.retrigger(target)
					}
					continue // spawn sites are not synchronous calls
				}
			}
			b := vk(in.B)
			s.invokes[b] = append(s.invokes[b], invokeC{mc, int32(i)})
			s.retrigger(b)
		case ir.OpInvokeStatic:
			if s.opts.SkipCall != nil && s.opts.SkipCall(m, i, in) {
				continue
			}
			s.linkStaticCall(mc, base, i, in)
		case ir.OpReturn:
			// Handled at call sites via return-reg linking.
		}
	}
	return mc
}

// addCalleeEdge records the context-sensitive call edge (dedup'd).
func (s *solver) addCalleeEdge(caller mctxID, site int32, callee mctxID) {
	key := edgeKeyOf(caller, site)
	list := s.c.calleeEdges[key]
	for _, e := range list {
		if e == callee {
			return
		}
	}
	s.c.calleeEdges[key] = append(list, callee)
}

// linkStaticCall wires a static call in caller context mc.
func (s *solver) linkStaticCall(mc mctxID, callerBase varID, idx int, in ir.Instr) {
	target := s.h.Resolve(in.Callee.Class, in.Callee.Name)
	if target == nil || target.Abstract {
		return
	}
	tmid := s.internMethod(target)
	recv := s.c.mctxs[mc].recv // statics inherit the caller context
	callee := s.processMethod(tmid, recv)
	s.addCalleeEdge(mc, int32(idx), callee)
	cb := s.c.mctxs[callee].varBase
	if cb < 0 {
		return
	}
	for ai, areg := range in.Args {
		if ai >= target.NumArgs {
			break
		}
		s.addCopy(callerBase+varID(areg), cb+varID(target.ArgReg(ai)))
	}
	if in.A != ir.NoReg {
		for _, rr := range s.returnRegsOf(tmid, target) {
			s.addCopy(cb+varID(rr), callerBase+varID(in.A))
		}
	}
}

// linkVirtualCall wires one resolved virtual dispatch for receiver obj.
func (s *solver) linkVirtualCall(ic invokeC, recvObj ObjID) {
	caller := s.c.mctxs[ic.caller]
	in := caller.m.Instrs[ic.idx]
	cls := s.c.objs[recvObj].Class
	if !s.h.IsSubtypeOf(cls, in.Callee.Class) {
		// The receiver set can contain objects of unrelated types when a
		// variable merges flows; dispatching on them would be spurious.
		return
	}
	target := s.h.Resolve(cls, in.Callee.Name)
	if target == nil || target.Abstract {
		return
	}
	tmid := s.internMethod(target)
	callee := s.processMethod(tmid, recvObj)
	s.addCalleeEdge(ic.caller, ic.idx, callee)
	cb := s.c.mctxs[callee].varBase
	if cb < 0 {
		return
	}
	// Receiver binding.
	s.addObj(cb+varID(target.ThisReg()), recvObj)
	for ai, areg := range in.Args {
		if ai >= target.NumArgs {
			break
		}
		s.addCopy(caller.varBase+varID(areg), cb+varID(target.ArgReg(ai)))
	}
	if in.A != ir.NoReg {
		for _, rr := range s.returnRegsOf(tmid, target) {
			s.addCopy(cb+varID(rr), caller.varBase+varID(in.A))
		}
	}
}

// linkSpawn wires one spawn site to a concrete target object: every
// spec'd method resolvable on the object's class becomes a spawned-thread
// entry context.
func (s *solver) linkSpawn(sc spawnC, target ObjID) {
	caller := s.c.mctxs[sc.caller]
	in := caller.m.Instrs[sc.idx]
	cls := s.c.objs[target].Class
	for _, name := range sc.spec.Methods {
		tm := s.h.Resolve(cls, name)
		if tm == nil || tm.Abstract {
			continue
		}
		tmid := s.internMethod(tm)
		skey := spawnKey{caller: sc.caller, site: sc.idx, tag: int32(sc.spec.Tag), target: tmid, recv: target}
		if s.spawnSeen[skey] {
			continue
		}
		s.spawnSeen[skey] = true
		s.c.spawnEdges = append(s.c.spawnEdges, SpawnEdge{
			CallerMethod: s.c.methodNames[caller.method],
			CallerRecv:   caller.recv,
			Site:         int(sc.idx),
			Tag:          sc.spec.Tag,
			TargetMethod: s.c.methodNames[tmid],
			TargetRecv:   target,
		})
		callee := s.processMethod(tmid, target)
		cb := s.c.mctxs[callee].varBase
		if cb < 0 {
			continue
		}
		s.addObj(cb+varID(tm.ThisReg()), target)
		// Bind the spawn call's arguments positionally (covers
		// sendMessage's Message flowing into handleMessage).
		for ai, areg := range in.Args {
			if ai >= tm.NumArgs {
				break
			}
			s.addCopy(caller.varBase+varID(areg), cb+varID(tm.ArgReg(ai)))
		}
	}
}

// push schedules v (a class representative) for a worklist drain.
func (s *solver) push(v varID) {
	if !s.inWork[v] {
		s.inWork[v] = true
		s.work = append(s.work, v)
	}
}

// addObj adds one object to a var's set, scheduling propagation.
func (s *solver) addObj(v varID, o ObjID) {
	v = s.c.find(v)
	if s.c.varPts[v].Add(o) {
		s.c.varDelta[v].Add(o)
		s.push(v)
	}
}

// addSet unions set into dst's points-to set with delta tracking.
func (s *solver) addSet(dst varID, set Bitset) {
	dst = s.c.find(dst)
	if s.c.varPts[dst].orInto(set, &s.c.varDelta[dst]) > 0 {
		s.push(dst)
	}
}

// retrigger reprocesses constraints hanging off v against its full set.
func (s *solver) retrigger(v varID) {
	v = s.c.find(v)
	if !s.c.varPts[v].empty() {
		s.c.varDelta[v].Or(s.c.varPts[v])
		s.push(v)
	}
}

// addCopy installs src ⊆ dst and propagates existing facts.
func (s *solver) addCopy(src, dst varID) {
	src, dst = s.c.find(src), s.c.find(dst)
	if src == dst {
		return // collapsed into the same class: the edge is a tautology
	}
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if s.copySeen[key] {
		return
	}
	s.copySeen[key] = true
	s.copyOut[src] = append(s.copyOut[src], dst)
	s.copiesSinceCollapse++
	s.addSet(dst, s.c.varPts[src])
}

func (s *solver) addStaticLoad(field string, dst varID) {
	sid := s.internStatic(field)
	s.staticDeps[sid] = append(s.staticDeps[sid], dst)
	s.addSet(dst, s.c.staticSets[sid])
}

func (s *solver) addStaticStore(src varID, field string) {
	sid := s.internStatic(field)
	v := s.c.find(src)
	// A static store rides the value var's store list with a negative
	// field id; growth re-triggers it like any other store constraint.
	s.stores[v] = append(s.stores[v], storeC{field: ^int32(sid)})
	s.staticAddBits(sid, s.c.varPts[v])
}

// staticAddBits unions bits into a static field's set, feeding loads.
func (s *solver) staticAddBits(sid staticID, bits Bitset) {
	var delta Bitset
	if (&s.c.staticSets[sid]).orInto(bits, &delta) == 0 {
		return
	}
	for _, dst := range s.staticDeps[sid] {
		s.addSet(dst, delta)
	}
}

// fpAddBits unions bits into an instance field's set, feeding loads.
func (s *solver) fpAddBits(si int32, bits Bitset) {
	var delta Bitset
	if (&s.c.fpSets[si]).orInto(bits, &delta) == 0 {
		return
	}
	for _, dst := range s.fpDeps[si] {
		s.addSet(dst, delta)
	}
}

// run drains the worklist to fixpoint, collapsing copy cycles whenever
// enough new copy edges have accumulated.
func (s *solver) run() {
	for len(s.work) > 0 {
		if s.copiesSinceCollapse >= collapseEvery {
			s.collapseSCCs()
		}
		v := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		v = s.c.find(v)
		if !s.inWork[v] {
			continue // stale entry: drained or merged away
		}
		s.inWork[v] = false
		d := s.c.varDelta[v]
		s.c.varDelta[v] = nil
		if d.empty() {
			continue
		}
		s.c.iterations++
		s.c.deltaObjs += int64(d.Count())
		s.drain(v, d)
	}
}

// drain pushes one variable's delta through every constraint attached to
// it, in the same category order as the original map-based solver:
// copies, loads, stores (statics interleaved), store-sources, invokes,
// spawns.
func (s *solver) drain(v varID, d Bitset) {
	// Copies.
	cps := s.copyOut[v]
	for i := range cps {
		dst := s.c.find(cps[i])
		if dst == v {
			continue
		}
		if s.c.varPts[dst].orInto(d, &s.c.varDelta[dst]) > 0 {
			s.push(dst)
		}
	}
	// Loads: new base objects feed their field contents into dst.
	lcs := s.loads[v]
	for i := range lcs {
		lc := lcs[i]
		d.ForEach(func(base ObjID) {
			si := s.fpIntern(base, lc.field)
			s.fpDeps[si] = appendUniqueVarID(s.fpDeps[si], lc.dst)
			s.addSet(lc.dst, s.c.fpSets[si])
		})
	}
	// Stores where v is the base (or the value var, for statics).
	scs := s.stores[v]
	for i := range scs {
		sc := scs[i]
		if sc.field < 0 {
			s.staticAddBits(^sc.field, d)
			continue
		}
		srcSet := s.c.varPts[s.c.find(sc.src)]
		if srcSet.empty() {
			continue
		}
		d.ForEach(func(base ObjID) {
			s.fpAddBits(s.fpIntern(base, sc.field), srcSet)
		})
	}
	// Stores where v is the source: flow new objects into all bases.
	rcs := s.storeSrcs[v]
	for i := range rcs {
		rc := rcs[i]
		baseSet := s.c.varPts[s.c.find(rc.base)]
		baseSet.ForEach(func(base ObjID) {
			s.fpAddBits(s.fpIntern(base, rc.field), d)
		})
	}
	// Invokes.
	ics := s.invokes[v]
	for i := range ics {
		ic := ics[i]
		d.ForEach(func(recv ObjID) {
			s.linkVirtualCall(ic, recv)
		})
	}
	// Spawns.
	sps := s.spawns[v]
	for i := range sps {
		sc := sps[i]
		d.ForEach(func(target ObjID) {
			s.linkSpawn(sc, target)
		})
	}
}

// collapseSCCs finds strongly connected components of the copy graph
// (over current class representatives) with an iterative Tarjan pass
// and merges each multi-node component into its minimum-varID member.
func (s *solver) collapseSCCs() {
	s.copiesSinceCollapse = 0
	n := len(s.c.parent)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]varID, 0, 64)
	type frame struct {
		v  varID
		ei int
	}
	var frames []frame
	var next int32
	for start := 0; start < n; start++ {
		sv := varID(start)
		if index[sv] != 0 || s.c.find(sv) != sv || len(s.copyOut[sv]) == 0 {
			continue
		}
		next++
		index[sv], low[sv] = next, next
		stack = append(stack, sv)
		onStack[sv] = true
		frames = append(frames[:0], frame{sv, 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(s.copyOut[v]) {
				w := s.c.find(s.copyOut[v][f.ei])
				f.ei++
				if w == v {
					continue
				}
				if index[w] == 0 {
					next++
					index[w], low[w] = next, next
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				top := len(stack)
				for stack[top-1] != v {
					top--
				}
				comp := stack[top:]
				for _, w := range comp {
					onStack[w] = false
				}
				if len(comp) > 1 {
					s.unionComp(comp)
				}
				stack = stack[:top]
			}
		}
	}
}

// unionComp merges a copy cycle into its minimum-varID member: sets,
// deltas, and constraint lists all move to the representative, and the
// representative is fully re-triggered so merged constraints observe
// the union.
func (s *solver) unionComp(comp []varID) {
	rep := comp[0]
	for _, w := range comp {
		if w < rep {
			rep = w
		}
	}
	for _, w := range comp {
		if w == rep {
			continue
		}
		s.c.parent[w] = rep
		s.c.varPts[rep].Or(s.c.varPts[w])
		s.c.varPts[w] = nil
		s.c.varDelta[rep].Or(s.c.varDelta[w])
		s.c.varDelta[w] = nil
		s.copyOut[rep] = append(s.copyOut[rep], s.copyOut[w]...)
		s.copyOut[w] = nil
		s.loads[rep] = append(s.loads[rep], s.loads[w]...)
		s.loads[w] = nil
		s.stores[rep] = append(s.stores[rep], s.stores[w]...)
		s.stores[w] = nil
		s.storeSrcs[rep] = append(s.storeSrcs[rep], s.storeSrcs[w]...)
		s.storeSrcs[w] = nil
		s.invokes[rep] = append(s.invokes[rep], s.invokes[w]...)
		s.invokes[w] = nil
		s.spawns[rep] = append(s.spawns[rep], s.spawns[w]...)
		s.spawns[w] = nil
		s.inWork[w] = false
	}
	// Normalize the merged copy list: resolve through find, drop
	// self-loops, dedup in place.
	out := s.copyOut[rep][:0]
	seen := make(map[varID]bool, len(s.copyOut[rep]))
	for _, d0 := range s.copyOut[rep] {
		d := s.c.find(d0)
		if d == rep || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	s.copyOut[rep] = out
	// Re-trigger the representative against the merged set so every
	// adopted constraint sees the full union.
	if !s.c.varPts[rep].empty() {
		s.c.varDelta[rep].Or(s.c.varPts[rep])
		s.push(rep)
	}
}

func appendUniqueVarID(list []varID, v varID) []varID {
	for _, e := range list {
		if e == v {
			return list
		}
	}
	return append(list, v)
}
