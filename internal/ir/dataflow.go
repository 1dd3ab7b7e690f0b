package ir

import "sync"

// OriginKind classifies where a register's value came from, as far as a
// simple intra-procedural forward analysis can tell. The UAF definition
// ("free" = putfield of null), the IA filter (store of a fresh allocation)
// and the MA filter (store of a getter result) all key off this lattice.
type OriginKind int

const (
	// OriginUnknown is the lattice top: conflicting or untracked.
	OriginUnknown OriginKind = iota
	// OriginUndef means the register was never assigned on any path yet
	// (lattice bottom; merges as identity).
	OriginUndef
	// OriginNull: definitely null.
	OriginNull
	// OriginNew: definitely the object allocated at Site.
	OriginNew
	// OriginCall: definitely the return value of the invoke at Site.
	OriginCall
	// OriginParam: an incoming parameter or receiver.
	OriginParam
	// OriginLoad: loaded from the field at Site (a getfield/getstatic).
	OriginLoad
	// OriginConst: a non-null primitive constant.
	OriginConst
)

func (k OriginKind) String() string {
	switch k {
	case OriginUndef:
		return "undef"
	case OriginNull:
		return "null"
	case OriginNew:
		return "new"
	case OriginCall:
		return "call"
	case OriginParam:
		return "param"
	case OriginLoad:
		return "load"
	case OriginConst:
		return "const"
	}
	return "unknown"
}

// Origin is one lattice element: a kind plus, where meaningful, the
// instruction index that produced the value.
type Origin struct {
	Kind OriginKind
	Site int // producing instruction index for New/Call/Load; else -1
}

func mergeOrigin(a, b Origin) Origin {
	if a.Kind == OriginUndef {
		return b
	}
	if b.Kind == OriginUndef {
		return a
	}
	if a == b {
		return a
	}
	return Origin{Kind: OriginUnknown, Site: -1}
}

// OriginInfo holds the per-instruction origin states of one method.
type OriginInfo struct {
	m   *Method
	cfg *CFG
	// before[i][r] is the origin of register r immediately before
	// instruction i executes.
	before []map[int]Origin
}

// CFG returns the control-flow graph the dataflow ran over.
func (oi *OriginInfo) CFG() *CFG { return oi.cfg }

// At returns the origin of register r immediately before instruction i.
func (oi *OriginInfo) At(i, r int) Origin {
	if o, ok := oi.before[i][r]; ok {
		return o
	}
	return Origin{Kind: OriginUndef, Site: -1}
}

// ComputeOrigins runs the forward value-origin dataflow over m's CFG.
func ComputeOrigins(m *Method) *OriginInfo {
	g := BuildCFG(m)
	n := len(m.Instrs)
	oi := &OriginInfo{m: m, cfg: g, before: make([]map[int]Origin, n+1)}
	entry := make(map[int]Origin)
	for r := 0; r <= m.NumArgs; r++ {
		entry[r] = Origin{Kind: OriginParam, Site: -1}
	}

	in := make([]map[int]Origin, len(g.Blocks))
	in[0] = entry
	// Worklist over blocks.
	work := []int{0}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		state := copyState(in[b])
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			oi.before[i] = copyState(state)
			applyOrigin(&state, m.Instrs[i], i)
		}
		for _, s := range blk.Succs {
			if mergeInto(&in[s], state) {
				if !inWork[s] {
					work = append(work, s)
					inWork[s] = true
				}
			}
		}
	}
	// Instructions in unreachable blocks keep nil maps; At handles that.
	for i := range oi.before {
		if oi.before[i] == nil {
			oi.before[i] = map[int]Origin{}
		}
	}
	return oi
}

// Origins is one analysis's table of value origins: a method's
// OriginInfo is computed the first time it is asked for, and every later
// request shares it. Access collection asks at each put it classifies
// and the §6 pattern filters at the uses they inspect, so a method is
// analysed at most once per table. The table belongs to one analysis and
// is dropped with it; a re-analysis of the same methods computes their
// origins afresh. It is safe for concurrent use.
type Origins struct {
	mu       sync.Mutex
	byMethod map[*Method]*OriginInfo
}

// NewOrigins returns an empty table.
func NewOrigins() *Origins { return &Origins{byMethod: make(map[*Method]*OriginInfo)} }

// Of returns m's origins, computing them on the first request. The lock
// is held while computing, so concurrent first requests compute once.
func (t *Origins) Of(m *Method) *OriginInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	oi, ok := t.byMethod[m]
	if !ok {
		oi = ComputeOrigins(m)
		t.byMethod[m] = oi
	}
	return oi
}

// Computed reports how many methods' origins the table has computed.
func (t *Origins) Computed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byMethod)
}

// Each calls fn for every entry computed so far, in no particular order,
// without holding the table's lock.
func (t *Origins) Each(fn func(m *Method, oi *OriginInfo)) {
	t.mu.Lock()
	entries := make(map[*Method]*OriginInfo, len(t.byMethod))
	for m, oi := range t.byMethod {
		entries[m] = oi
	}
	t.mu.Unlock()
	for m, oi := range entries {
		fn(m, oi)
	}
}

func applyOrigin(state *map[int]Origin, in Instr, idx int) {
	set := func(r int, o Origin) { (*state)[r] = o }
	switch in.Op {
	case OpConstNull:
		set(in.A, Origin{Kind: OriginNull, Site: idx})
	case OpConstInt, OpConstStr:
		set(in.A, Origin{Kind: OriginConst, Site: idx})
	case OpNew:
		set(in.A, Origin{Kind: OriginNew, Site: idx})
	case OpMove:
		set(in.A, (*state)[in.B])
	case OpGetField, OpGetStatic:
		set(in.A, Origin{Kind: OriginLoad, Site: idx})
	case OpInvoke, OpInvokeStatic:
		if in.A != NoReg {
			set(in.A, Origin{Kind: OriginCall, Site: idx})
		}
	}
}

func copyState(s map[int]Origin) map[int]Origin {
	out := make(map[int]Origin, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeInto merges src into *dst, reporting whether *dst changed.
func mergeInto(dst *map[int]Origin, src map[int]Origin) bool {
	if *dst == nil {
		*dst = copyState(src)
		return true
	}
	changed := false
	for r, o := range src {
		old, ok := (*dst)[r]
		if !ok {
			(*dst)[r] = o
			changed = true
			continue
		}
		merged := mergeOrigin(old, o)
		if merged != old {
			(*dst)[r] = merged
			changed = true
		}
	}
	return changed
}

// IsFree reports whether instruction i of m is a "free" in the paper's
// sense: a putfield (or putstatic) storing a definitely-null value.
func IsFree(oi *OriginInfo, m *Method, i int) bool {
	in := m.Instrs[i]
	if in.Op != OpPutField && in.Op != OpPutStatic {
		return false
	}
	return oi.At(i, in.A).Kind == OriginNull
}

// UsesOfDef returns the instruction indices that may read the value
// defined by instruction def (which must define a register), following
// moves transitively. The walk is path-insensitive: any read of the
// register reachable from def before a redefinition counts.
func UsesOfDef(m *Method, def int) []int {
	r, ok := m.Instrs[def].DefReg()
	if !ok {
		return nil
	}
	type st struct {
		instr int
		reg   int
	}
	seen := make(map[st]bool)
	var out []int
	outSeen := make(map[int]bool)
	var walk func(i, reg int)
	walk = func(i, reg int) {
		for {
			if i >= len(m.Instrs) {
				return
			}
			key := st{i, reg}
			if seen[key] {
				return
			}
			seen[key] = true
			in := m.Instrs[i]
			for _, u := range in.Uses() {
				if u == reg && !outSeen[i] {
					outSeen[i] = true
					out = append(out, i)
				}
			}
			// Follow a move of our value into another register.
			if in.Op == OpMove && in.B == reg {
				walk(i+1, in.A)
			}
			if d, has := in.DefReg(); has && d == reg {
				return // redefined
			}
			if in.IsBranch() {
				walk(m.Index(in.Target), reg)
				if in.Op == OpGoto {
					return
				}
			}
			if in.IsTerminator() {
				return
			}
			i++
		}
	}
	walk(def+1, r)
	return out
}
