package pointsto

import "math/bits"

// Bitset is a word-packed object set indexed by ObjID. The zero value
// is an empty set; words grow lazily as high object IDs are inserted.
// Abstract-object counts per app are small (hundreds to low thousands),
// so a dense representation from bit 0 is both the fastest and the
// simplest choice: union is a word loop, iteration yields ObjIDs in
// ascending order for free, and the per-var footprint is a few words.
// The escape analysis searches the heap graph over the same sets.
type Bitset []uint64

// Add sets bit o and reports whether it was newly set.
func (b *Bitset) Add(o ObjID) bool {
	w, m := int(o>>6), uint64(1)<<(uint(o)&63)
	s := *b
	if w >= len(s) {
		ns := make(Bitset, w+1)
		copy(ns, s)
		s = ns
		*b = s
	}
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// has reports whether bit o is set.
func (b Bitset) has(o ObjID) bool {
	w := int(o >> 6)
	return w < len(b) && b[w]&(1<<(uint(o)&63)) != 0
}

// Or unions other into b, returning the number of newly set bits.
func (b *Bitset) Or(other Bitset) int {
	if len(other) == 0 {
		return 0
	}
	s := *b
	if len(other) > len(s) {
		ns := make(Bitset, len(other))
		copy(ns, s)
		s = ns
		*b = s
	}
	added := 0
	for w, ow := range other {
		if nw := ow &^ s[w]; nw != 0 {
			added += bits.OnesCount64(nw)
			s[w] |= nw
		}
	}
	return added
}

// orInto is Or plus delta tracking: bits newly set in b are also set
// in delta. Returns the number of newly set bits.
func (b *Bitset) orInto(other Bitset, delta *Bitset) int {
	if len(other) == 0 {
		return 0
	}
	s := *b
	if len(other) > len(s) {
		ns := make(Bitset, len(other))
		copy(ns, s)
		s = ns
		*b = s
	}
	added := 0
	for w, ow := range other {
		nw := ow &^ s[w]
		if nw == 0 {
			continue
		}
		added += bits.OnesCount64(nw)
		s[w] |= nw
		d := *delta
		if w >= len(d) {
			nd := make(Bitset, len(s))
			copy(nd, d)
			d = nd
			*delta = d
		}
		d[w] |= nw
	}
	return added
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// empty reports whether no bit is set.
func (b Bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach visits set bits in ascending ObjID order.
func (b Bitset) ForEach(fn func(ObjID)) {
	for w, word := range b {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			fn(ObjID(w<<6 + tz))
			word &= word - 1
		}
	}
}

// AppendIDs appends the set bits in ascending order.
func (b Bitset) AppendIDs(out []ObjID) []ObjID {
	for w, word := range b {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			out = append(out, ObjID(w<<6+tz))
			word &= word - 1
		}
	}
	return out
}

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	if len(b) == 0 {
		return nil
	}
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}
