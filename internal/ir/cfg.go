package ir

import "sort"

// Block is a basic block: a maximal straight-line instruction range
// [Start, End) plus successor/predecessor edges by block index.
type Block struct {
	Index      int
	Start, End int // instruction index range, half open
	Succs      []int
	Preds      []int
}

// CFG is the control-flow graph of one method. Block 0 is the entry.
type CFG struct {
	Method *Method
	Blocks []*Block
	// blockOf maps an instruction index to its block index.
	blockOf []int
}

// BuildCFG derives the control-flow graph. Empty methods get a single
// empty entry block so dominance queries stay total.
func BuildCFG(m *Method) *CFG {
	n := len(m.Instrs)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	for i, in := range m.Instrs {
		if in.IsBranch() {
			leader[m.Index(in.Target())] = true
			if i+1 <= n {
				leader[min(i+1, n)] = true
			}
		}
		if in.IsTerminator() && i+1 <= n {
			leader[min(i+1, n)] = true
		}
	}
	// Labels that are jump targets of nothing still matter for dexasm
	// round trips but not for the CFG; only branch targets split blocks.
	cfg := &CFG{Method: m, blockOf: make([]int, n)}
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			b := &Block{Index: len(cfg.Blocks), Start: start, End: i}
			cfg.Blocks = append(cfg.Blocks, b)
			start = i
		}
	}
	if len(cfg.Blocks) == 0 {
		cfg.Blocks = append(cfg.Blocks, &Block{Index: 0})
	}
	for _, b := range cfg.Blocks {
		for i := b.Start; i < b.End; i++ {
			cfg.blockOf[i] = b.Index
		}
	}
	// Edges.
	for _, b := range cfg.Blocks {
		if b.Start == b.End {
			continue
		}
		last := m.Instrs[b.End-1]
		addEdge := func(to int) {
			b.Succs = append(b.Succs, to)
			cfg.Blocks[to].Preds = append(cfg.Blocks[to].Preds, b.Index)
		}
		if last.IsBranch() {
			addEdge(cfg.blockOf[m.Index(last.Target())])
		}
		if !last.IsTerminator() && b.End < n {
			addEdge(cfg.blockOf[b.End])
		}
	}
	return cfg
}

// BlockOf returns the block index containing instruction i.
func (g *CFG) BlockOf(i int) int { return g.blockOf[i] }

// Reachable returns the set of blocks reachable from entry.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	work := []int{0}
	seen[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// Dominators computes the immediate-dominator array idom[b] for every
// block (idom[0] == 0) using the Cooper–Harvey–Kennedy iterative
// algorithm. Unreachable blocks get idom -1.
func (g *CFG) Dominators() []int {
	n := len(g.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	// Reverse postorder.
	rpo := g.reversePostorder()
	pos := make([]int, n)
	for i, b := range rpo {
		pos[b] = i
	}
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

func (g *CFG) reversePostorder() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
	var visit func(int)
	visit = func(b int) {
		seen[b] = true
		succs := append([]int(nil), g.Blocks[b].Succs...)
		sort.Ints(succs)
		for _, s := range succs {
			if !seen[s] {
				visit(s)
			}
		}
		post = append(post, b)
	}
	visit(0)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominates reports whether instruction a dominates instruction b: every
// path from entry to b passes through a. Within a block, earlier
// instructions dominate later ones.
func (g *CFG) Dominates(idom []int, a, b int) bool {
	ba, bb := g.blockOf[a], g.blockOf[b]
	if ba == bb {
		return a <= b
	}
	// Walk b's dominator chain up to entry.
	for bb != 0 {
		if idom[bb] == -1 {
			return false
		}
		bb = idom[bb]
		if bb == ba {
			return true
		}
	}
	return ba == 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
