// Package uaf turns racy (use, free) pairs into use-after-free warnings
// (§5): a warning is a (use, free) pair of instructions on the same
// field, annotated with every (use-thread, free-thread) combination the
// race detector found. The uaf detector in internal/detect builds them
// over the shared detector context. Filters (§6) prune thread pairs; a
// warning survives while at least one pair survives.
package uaf

import (
	"fmt"
	"sort"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
)

// ThreadPair is one (use-thread, free-thread) combination.
type ThreadPair struct {
	Use, Free int
}

// Warning is one potential UAF: a use and a free of the same field that
// may execute in an order that dereferences null.
type Warning struct {
	Field ir.FieldRef
	Use   ir.InstrID
	Free  ir.InstrID
	// Pairs are the thread combinations still alive; filters remove
	// entries and annotate Filtered.
	Pairs []ThreadPair
	// Objs are the shared abstract objects underlying the race.
	Objs []pointsto.ObjID
	// FilteredBy records, per removed pair, which filter removed it.
	FilteredBy map[ThreadPair]string
	// Races are the racy access-ID pairs that contributed to this
	// warning, in detection order — the hooks provenance queries use to
	// re-derive the warning from the Datalog engine.
	Races []race.Pair
}

// Key identifies a warning for deduplication and reporting.
func (w *Warning) Key() string {
	return fmt.Sprintf("%s|%s|%s", w.Field, w.Use, w.Free)
}

// Alive reports whether any thread pair survives.
func (w *Warning) Alive() bool { return len(w.Pairs) > 0 }

// RemovePairs deletes the pairs selected by keep==false, recording the
// filter name; it returns how many pairs were removed.
func (w *Warning) RemovePairs(filter string, remove func(ThreadPair) bool) int {
	kept := w.Pairs[:0]
	n := 0
	for _, p := range w.Pairs {
		if remove(p) {
			if w.FilteredBy == nil {
				w.FilteredBy = make(map[ThreadPair]string)
			}
			w.FilteredBy[p] = filter
			n++
		} else {
			kept = append(kept, p)
		}
	}
	w.Pairs = kept
	return n
}

// Detection is the result of the UAF stage.
type Detection struct {
	Model    *threadify.Model
	Race     *race.Result
	Warnings []*Warning
}

// AccessFor returns the access metadata for an id, or the zero Access
// for an id the race result does not hold. Access IDs are indexes into
// Race.Accesses: race.CollectAccesses numbers them that way, and so
// does the incremental pipeline when it concatenates thread partitions.
func (d *Detection) AccessFor(id int) race.Access {
	if d.Race == nil || id < 0 || id >= len(d.Race.Accesses) {
		return race.Access{}
	}
	return d.Race.Accesses[id]
}

// Group assembles warnings from a race result, keyed by (field, use
// instr, free instr).
func Group(m *threadify.Model, rr *race.Result) *Detection {
	d := &Detection{Model: m, Race: rr}
	byKey := make(map[string]*Warning)
	var order []string
	for _, p := range rr.Pairs {
		use, free := d.AccessFor(p.A), d.AccessFor(p.B)
		w := &Warning{Field: use.Field, Use: use.Instr, Free: free.Instr}
		k := w.Key()
		existing, ok := byKey[k]
		if !ok {
			byKey[k] = w
			order = append(order, k)
			existing = w
		}
		pair := ThreadPair{Use: use.Thread, Free: free.Thread}
		if !hasPair(existing.Pairs, pair) {
			existing.Pairs = append(existing.Pairs, pair)
		}
		existing.Races = append(existing.Races, p)
		existing.Objs = mergeObjs(existing.Objs, intersect(use.Objs, free.Objs))
	}
	sort.Strings(order)
	for _, k := range order {
		d.Warnings = append(d.Warnings, byKey[k])
	}
	for _, w := range d.Warnings {
		sort.Slice(w.Pairs, func(i, j int) bool {
			if w.Pairs[i].Use != w.Pairs[j].Use {
				return w.Pairs[i].Use < w.Pairs[j].Use
			}
			return w.Pairs[i].Free < w.Pairs[j].Free
		})
	}
	return d
}

// AliveCount counts warnings with at least one surviving pair.
func (d *Detection) AliveCount() int {
	n := 0
	for _, w := range d.Warnings {
		if w.Alive() {
			n++
		}
	}
	return n
}

// Alive returns the surviving warnings.
func (d *Detection) Alive() []*Warning {
	var out []*Warning
	for _, w := range d.Warnings {
		if w.Alive() {
			out = append(out, w)
		}
	}
	return out
}

func hasPair(pairs []ThreadPair, p ThreadPair) bool {
	for _, q := range pairs {
		if q == p {
			return true
		}
	}
	return false
}

func intersect(a, b []pointsto.ObjID) []pointsto.ObjID {
	set := make(map[pointsto.ObjID]bool, len(a))
	for _, o := range a {
		set[o] = true
	}
	var out []pointsto.ObjID
	for _, o := range b {
		if set[o] {
			out = append(out, o)
		}
	}
	if out == nil && len(a) == 0 && len(b) == 0 {
		// Static accesses carry no objects; keep empty.
		return nil
	}
	return out
}

func mergeObjs(a, b []pointsto.ObjID) []pointsto.ObjID {
	set := make(map[pointsto.ObjID]bool, len(a)+len(b))
	for _, o := range a {
		set[o] = true
	}
	for _, o := range b {
		set[o] = true
	}
	out := make([]pointsto.ObjID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
