package race

import (
	"cmp"
	"slices"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
)

// Join evaluates RacyRule over one app's accesses as a hash join: every
// free is filed under (field, h) for each escaping object h it may
// touch, and every use probes the buckets of its own field and objects.
// A static field lives on the one object h:static, which always
// escapes. The rule is not recursive, so one pass derives every pair.
type Join struct {
	accesses []Access
	frees    map[joinKey][]joinFree
	stats    JoinStats
}

// JoinStats counts the fact base the join reads.
type JoinStats struct {
	// Facts counts the distinct tuples of RacyRule's three relations:
	// an RdAcc or WrAcc tuple per (use or free, object it may touch),
	// and an Esc tuple for h:static and for each escaping object that
	// any access, non-null writes included, may touch.
	Facts int
}

// joinKey is one bucket: a canonical field and an escaping object.
type joinKey struct {
	field ir.FieldRef
	obj   pointsto.ObjID
}

// joinFree is one free filed in a bucket.
type joinFree struct {
	id, thread int
}

// staticObj stands for h:static in a joinKey.
const staticObj pointsto.ObjID = -1

var staticObjs = []pointsto.ObjID{staticObj}

// objsOf returns the objects a's RdAcc or WrAcc tuples name.
func objsOf(a *Access) []pointsto.ObjID {
	if a.Static {
		return staticObjs
	}
	return a.Objs
}

// NewJoin files the frees of accesses by (field, escaping object) and
// counts the fact base. escaped is the Esc relation over abstract
// objects, usually (*escape.Result).Escaped.
func NewJoin(accesses []Access, escaped func(pointsto.ObjID) bool) *Join {
	j := &Join{accesses: accesses, frees: make(map[joinKey][]joinFree)}
	j.stats.Facts = 1 // Esc(h:static)
	var seen pointsto.Bitset
	for i := range accesses {
		a := &accesses[i]
		for _, o := range a.Objs {
			if seen.Add(o) && escaped(o) {
				j.stats.Facts++
			}
		}
		if a.Kind == Write {
			continue
		}
		objs := objsOf(a)
		j.stats.Facts += len(objs)
		if a.Kind != NullWrite {
			continue
		}
		for _, o := range objs {
			if o == staticObj || escaped(o) {
				k := joinKey{a.Field, o}
				j.frees[k] = append(j.frees[k], joinFree{a.ID, a.Thread})
			}
		}
	}
	return j
}

// Stats returns the size of the join's fact base.
func (j *Join) Stats() JoinStats { return j.stats }

// Pairs derives the racy (use, free) pairs: each use probes its
// buckets and pairs with every free there on another thread. A use and
// a free that share several escaping objects make one pair. Pairs are
// sorted by use, then free.
func (j *Join) Pairs() []Pair {
	var pairs []Pair
	for i := range j.accesses {
		a := &j.accesses[i]
		if a.Kind != Read {
			continue
		}
		for _, o := range objsOf(a) {
			for _, f := range j.frees[joinKey{a.Field, o}] {
				if f.thread != a.Thread {
					pairs = append(pairs, Pair{A: a.ID, B: f.id})
				}
			}
		}
	}
	slices.SortFunc(pairs, func(x, y Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return slices.Compact(pairs)
}
