package race

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
)

// ruleFacts is RacyRule's fact base read off an access set, one tuple
// per row, with h:static as object -1:
//
//	RdAcc(a, t, f, h)  a use a on thread t may read field f of object h
//	WrAcc(b, t, f, h)  a free b on thread t may null field f of object h
//	Esc(h)             object h escapes (h:static always does)
type ruleFacts struct {
	rd, wr []accTuple
	esc    map[pointsto.ObjID]bool
}

type accTuple struct {
	acc, thread int
	field       ir.FieldRef
	obj         pointsto.ObjID
}

func factsOf(accs []Access, escaped func(pointsto.ObjID) bool) ruleFacts {
	fs := ruleFacts{esc: map[pointsto.ObjID]bool{-1: true}}
	for _, a := range accs {
		for _, o := range a.Objs {
			if escaped(o) {
				fs.esc[o] = true
			}
		}
		objs := a.Objs
		if a.Static {
			objs = []pointsto.ObjID{-1}
		}
		for _, o := range objs {
			t := accTuple{a.ID, a.Thread, a.Field, o}
			switch a.Kind {
			case Read:
				fs.rd = append(fs.rd, t)
			case NullWrite:
				fs.wr = append(fs.wr, t)
			}
		}
	}
	return fs
}

// size counts the distinct tuples of the fact base.
func (fs ruleFacts) size() int {
	rd, wr := make(map[accTuple]bool), make(map[accTuple]bool)
	for _, t := range fs.rd {
		rd[t] = true
	}
	for _, t := range fs.wr {
		wr[t] = true
	}
	return len(rd) + len(wr) + len(fs.esc)
}

// rulePairs reads RacyRule literally, as a nested loop over every
// (RdAcc, WrAcc) tuple pair:
//
//	Racy(a, b) :- RdAcc(a, t1, f, h), WrAcc(b, t2, f, h), t1 != t2, Esc(h)
//
// It returns the distinct pairs, sorted by use, then free.
func rulePairs(fs ruleFacts) []Pair {
	seen := make(map[Pair]bool)
	var out []Pair
	for _, r := range fs.rd {
		for _, w := range fs.wr {
			p := Pair{A: r.acc, B: w.acc}
			if r.field == w.field && r.obj == w.obj && r.thread != w.thread && fs.esc[r.obj] && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// randomAccesses draws an access set over a few threads, fields and
// objects with every shape the corpus lacks: static fields, uses and
// frees that share several objects, same-thread pairs, objects that do
// not escape, and non-null writes. It returns the accesses and the
// escape verdict of each object.
func randomAccesses(rng *rand.Rand) ([]Access, func(pointsto.ObjID) bool) {
	nObjs := 1 + rng.Intn(8)
	esc := make([]bool, nObjs)
	for o := range esc {
		esc[o] = rng.Intn(3) > 0
	}
	fields := []ir.FieldRef{{Class: "r/A", Name: "f"}, {Class: "r/A", Name: "g"}, {Class: "r/B", Name: "f"}}
	threads := 1 + rng.Intn(4)
	accs := make([]Access, rng.Intn(40))
	for i := range accs {
		a := Access{
			ID:     i,
			Thread: rng.Intn(threads),
			Field:  fields[rng.Intn(len(fields))],
			Kind:   AccessKind(rng.Intn(3)),
			Static: rng.Intn(4) == 0,
		}
		if !a.Static {
			for o := 0; o < nObjs; o++ {
				if rng.Intn(3) == 0 {
					a.Objs = append(a.Objs, pointsto.ObjID(o))
				}
			}
		}
		accs[i] = a
	}
	return accs, func(o pointsto.ObjID) bool { return o >= 0 && int(o) < nObjs && esc[o] }
}

// TestJoinMatchesRule compares the join with the literal reading of
// RacyRule on 300 random access sets, pairs and fact counts, and checks
// that the sets exercise every shape they were drawn for.
func TestJoinMatchesRule(t *testing.T) {
	var statics, shared, sameThread, local, writes int
	for seed := int64(0); seed < 300; seed++ {
		accs, escaped := randomAccesses(rand.New(rand.NewSource(seed)))
		fs := factsOf(accs, escaped)
		want := rulePairs(fs)
		j := NewJoin(accs, escaped)
		if got := j.Pairs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: join pairs\n got %v\nwant %v", seed, got, want)
		}
		if got, want := j.Stats().Facts, fs.size(); got != want {
			t.Fatalf("seed %d: join counts %d facts, the rule's fact base has %d", seed, got, want)
		}
		for _, p := range want {
			use, free := accs[p.A], accs[p.B]
			if use.Static {
				statics++
			}
			n := 0
			for _, o := range intersect(use.Objs, free.Objs) {
				if escaped(o) {
					n++
				}
			}
			if n > 1 {
				shared++
			}
		}
		for _, r := range fs.rd {
			for _, w := range fs.wr {
				if r.field == w.field && r.obj == w.obj && fs.esc[r.obj] && r.thread == w.thread {
					sameThread++
				}
			}
		}
		for _, a := range accs {
			if a.Kind == Write {
				writes++
			}
			for _, o := range a.Objs {
				if !escaped(o) {
					local++
				}
			}
		}
	}
	for shape, n := range map[string]int{
		"static pairs": statics, "pairs sharing several escaping objects": shared,
		"same-thread matches": sameThread, "non-escaping objects": local, "non-null writes": writes,
	} {
		if n == 0 {
			t.Errorf("no %s in the random access sets", shape)
		}
	}
}

func intersect(a, b []pointsto.ObjID) []pointsto.ObjID {
	var out []pointsto.ObjID
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}
