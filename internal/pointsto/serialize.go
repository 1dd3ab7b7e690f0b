package pointsto

import (
	"sort"

	"nadroid/internal/cha"
	"nadroid/internal/ir"
)

// Snapshot is the flat, serialization-friendly form of a solved Result:
// every interned table as a plain slice, every map flattened into
// parallel key/value slices, and every Bitset as its word array. It
// exists for the IR cold-start cache — a solved points-to state is the
// most expensive artifact of modeling, and snapshotting it lets warm
// runs skip the solve entirely.
//
// The snapshot is complete for the read-only accessor surface (PointsTo,
// CalleeContextsAt, SpawnEdges, ...). Solve-only state (worklists, variable
// deltas) is intentionally dropped: a restored Result can answer
// queries but not resume a solve.
type Snapshot struct {
	Objs        []Obj
	MethodNames []string
	MethodMctxs [][]int32
	Mctxs       []MctxSnap
	FieldNames  []string
	VarPts      [][]uint64
	Parent      []int32
	FPKeys      []uint64
	FPSets      [][]uint64
	StaticNames []string
	StaticSets  [][]uint64
	EdgeKeys    []uint64
	EdgeVals    [][]int32
	SpawnEdges  []SpawnEdge
	Iterations  int
	DeltaObjs   int64
}

// MctxSnap is one method context in snapshot form.
type MctxSnap struct {
	Method  int32
	Recv    int32
	VarBase int32
	NRegs   int32
}

// Snapshot flattens the result. Map-backed tables are emitted in sorted
// key order so identical results produce identical snapshots.
func (r *Result) Snapshot() *Snapshot {
	c := r.c
	s := &Snapshot{
		Objs:        c.objs,
		MethodNames: c.methodNames,
		FieldNames:  c.fieldNames,
		SpawnEdges:  c.spawnEdges,
		Iterations:  c.iterations,
		DeltaObjs:   c.deltaObjs,
	}
	s.MethodMctxs = make([][]int32, len(c.methodMctxs))
	for i, mcs := range c.methodMctxs {
		s.MethodMctxs[i] = mcs
	}
	s.Mctxs = make([]MctxSnap, len(c.mctxs))
	for i := range c.mctxs {
		mc := &c.mctxs[i]
		s.Mctxs[i] = MctxSnap{Method: mc.method, Recv: int32(mc.recv), VarBase: mc.varBase, NRegs: mc.nregs}
	}
	s.VarPts = make([][]uint64, len(c.varPts))
	for i, b := range c.varPts {
		s.VarPts[i] = b
	}
	s.Parent = c.parent

	fpKeys := make([]uint64, 0, len(c.fpIdx))
	for k := range c.fpIdx {
		fpKeys = append(fpKeys, k)
	}
	sort.Slice(fpKeys, func(i, j int) bool { return fpKeys[i] < fpKeys[j] })
	s.FPKeys = fpKeys
	s.FPSets = make([][]uint64, len(fpKeys))
	for i, k := range fpKeys {
		s.FPSets[i] = c.fpSets[c.fpIdx[k]]
	}

	statics := make([]string, 0, len(c.staticIdx))
	for name := range c.staticIdx {
		statics = append(statics, name)
	}
	sort.Strings(statics)
	s.StaticNames = statics
	s.StaticSets = make([][]uint64, len(statics))
	for i, name := range statics {
		s.StaticSets[i] = c.staticSets[c.staticIdx[name]]
	}

	edgeKeys := make([]uint64, 0, len(c.calleeEdges))
	for k := range c.calleeEdges {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Slice(edgeKeys, func(i, j int) bool { return edgeKeys[i] < edgeKeys[j] })
	s.EdgeKeys = edgeKeys
	s.EdgeVals = make([][]int32, len(edgeKeys))
	for i, k := range edgeKeys {
		s.EdgeVals[i] = c.calleeEdges[k]
	}
	return s
}

// FromSnapshot rebuilds a queryable Result against a hierarchy (the one
// built over the restored program). Method bodies are re-resolved
// through the hierarchy; an unresolvable method keeps a nil body, same
// as after a live solve.
func FromSnapshot(h *cha.Hierarchy, s *Snapshot) *Result {
	c := &core{
		h:           h,
		objs:        s.Objs,
		methodNames: s.MethodNames,
		methodIdx:   make(map[string]methodID, len(s.MethodNames)),
		methodOf:    make([]*ir.Method, len(s.MethodNames)),
		fieldNames:  s.FieldNames,
		fieldIdx:    make(map[string]fieldID, len(s.FieldNames)),
		mctxIdx:     make(map[uint64]mctxID, len(s.Mctxs)),
		fpIdx:       make(map[uint64]int32, len(s.FPKeys)),
		staticIdx:   make(map[string]staticID, len(s.StaticNames)),
		calleeEdges: make(map[uint64][]mctxID, len(s.EdgeKeys)),
		spawnEdges:  s.SpawnEdges,
		iterations:  s.Iterations,
		deltaObjs:   s.DeltaObjs,
	}
	for i, name := range s.MethodNames {
		c.methodIdx[name] = methodID(i)
		if m, err := h.MethodByRef(name); err == nil {
			c.methodOf[i] = m
		}
	}
	c.methodMctxs = make([][]mctxID, len(s.MethodMctxs))
	for i, mcs := range s.MethodMctxs {
		c.methodMctxs[i] = mcs
	}
	// A block as long as its method's register count numbers every
	// register as itself (a snapshot taken before blocks were numbered
	// has only such blocks); any other block is numbered again from the
	// method, as the solve numbered it.
	c.methodRegs = make([][]int32, len(s.MethodNames))
	var mark []uint64
	c.mctxs = make([]mctxInfo, len(s.Mctxs))
	for i, ms := range s.Mctxs {
		c.mctxs[i] = mctxInfo{method: ms.Method, recv: ObjID(ms.Recv), varBase: ms.VarBase, nregs: ms.NRegs}
		if int(ms.Method) < len(c.methodOf) {
			m := c.methodOf[ms.Method]
			c.mctxs[i].m = m
			if m != nil && ms.VarBase >= 0 && int(ms.NRegs) != m.NumRegs && c.methodRegs[ms.Method] == nil {
				c.methodRegs[ms.Method], mark = numberRegs(m, mark)
			}
		}
		c.mctxIdx[mctxKeyOf(ms.Method, ObjID(ms.Recv))] = mctxID(i)
	}
	for i, name := range s.FieldNames {
		c.fieldIdx[name] = fieldID(i)
	}
	c.varPts = make([]Bitset, len(s.VarPts))
	for i, w := range s.VarPts {
		c.varPts[i] = w
	}
	c.parent = s.Parent
	c.fpSets = make([]Bitset, len(s.FPKeys))
	for i, k := range s.FPKeys {
		c.fpIdx[k] = int32(i)
		c.fpSets[i] = s.FPSets[i]
	}
	c.staticSets = make([]Bitset, len(s.StaticNames))
	for i, name := range s.StaticNames {
		c.staticIdx[name] = staticID(i)
		c.staticSets[i] = s.StaticSets[i]
	}
	for i, k := range s.EdgeKeys {
		c.calleeEdges[k] = s.EdgeVals[i]
	}
	return &Result{c: c}
}
