package incr

import (
	"errors"
	"fmt"
	"sort"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
)

// Version is the partition format version. It is baked into the file
// name (see Name), so a format change makes old partitions invisible
// rather than mis-decoded. v3: a static access names its field by the
// declaring class. v4: no points-to projection digest.
const Version = 4

var magic = [4]byte{'N', 'I', 'N', 'C'}

// Name returns the store key of the partition for an IR digest at
// sensitivity K. Mirrors ircache.Name: digest first so GC can protect
// by prefix, version and K in the name so mismatches miss cleanly.
func Name(digest string, k int) string {
	return fmt.Sprintf("%s-v%d-k%d.incr", digest, Version, k)
}

// Access is one persisted field access of a thread, in thread-local
// ID order (the slice index is the thread-local ID). Method serves as
// both the context method and the instruction's method — they are the
// same string in a collected access.
type Access struct {
	Method     string
	Recv       int32
	Index      int32
	FieldClass string
	FieldName  string
	Kind       int8
	Static     bool
	Objs       []int32
}

// Thread is one thread's persisted fact partition plus the digests
// that gate its reuse.
type Thread struct {
	ID        int
	Dummy     bool
	AccDigest uint64
	// Acc is the thread's access partition in thread-local ID order.
	Acc []Access
}

// Partition is the per-app incremental state persisted under the run's
// IR digest: the method digest table the next run diffs against, the
// structure digest that gates every replay, and the per-thread fact
// partitions.
type Partition struct {
	App       string
	K         int
	Methods   map[string]uint64
	Structure uint64
	Threads   []Thread
}

// FromRaceAccesses converts one thread's collected accesses to
// persistable form. Accesses must be thread-local (IDs 0..n-1 in
// slice order), as race.CollectThreadAccesses returns them.
func FromRaceAccesses(accs []race.Access) []Access {
	out := make([]Access, len(accs))
	for i, a := range accs {
		out[i] = Access{
			Method:     a.MCtx.Method,
			Recv:       int32(a.MCtx.Recv),
			Index:      int32(a.Index),
			FieldClass: a.Field.Class,
			FieldName:  a.Field.Name,
			Kind:       int8(a.Kind),
			Static:     a.Static,
			Objs:       objsToI32(a.Objs),
		}
	}
	return out
}

// ToRaceAccesses reconstructs a thread's access partition. IDs are
// thread-local; the caller renumbers when concatenating threads.
func ToRaceAccesses(thread int, accs []Access) []race.Access {
	out := make([]race.Access, len(accs))
	for i, a := range accs {
		out[i] = race.Access{
			ID:     i,
			Thread: thread,
			MCtx:   threadify.MCtx{Method: a.Method, Recv: pointsto.ObjID(a.Recv)},
			Instr:  ir.InstrID{Method: a.Method, Index: int(a.Index)},
			Index:  int(a.Index),
			Field:  ir.FieldRef{Class: a.FieldClass, Name: a.FieldName},
			Kind:   race.AccessKind(a.Kind),
			Static: a.Static,
			Objs:   i32ToObjs(a.Objs),
		}
	}
	return out
}

func objsToI32(objs []pointsto.ObjID) []int32 {
	if len(objs) == 0 {
		return nil
	}
	out := make([]int32, len(objs))
	for i, o := range objs {
		out[i] = int32(o)
	}
	return out
}

func i32ToObjs(v []int32) []pointsto.ObjID {
	if len(v) == 0 {
		return nil
	}
	out := make([]pointsto.ObjID, len(v))
	for i, o := range v {
		out[i] = pointsto.ObjID(o)
	}
	return out
}

// enc is a varint writer with inline string interning: the first
// occurrence of a string writes its id followed by the literal, later
// occurrences write the id alone.
type enc struct {
	buf  []byte
	strs map[string]int
}

func (e *enc) u(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

func (e *enc) i(v int64) {
	e.u(uint64(v<<1) ^ uint64(v>>63)) // zigzag
}

func (e *enc) b(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) s(s string) {
	id, ok := e.strs[s]
	if ok {
		e.u(uint64(id))
		return
	}
	id = len(e.strs)
	e.strs[s] = id
	e.u(uint64(id))
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) i32s(v []int32) {
	e.u(uint64(len(v)))
	for _, x := range v {
		e.i(int64(x))
	}
}

// Encode serializes a partition.
func (p *Partition) Encode() []byte {
	e := &enc{strs: make(map[string]int)}
	e.buf = append(e.buf, magic[:]...)
	e.u(Version)
	e.s(p.App)
	e.u(uint64(p.K))
	refs := make([]string, 0, len(p.Methods))
	for r := range p.Methods {
		refs = append(refs, r)
	}
	sort.Strings(refs)
	e.u(uint64(len(refs)))
	for _, r := range refs {
		e.s(r)
		e.u(p.Methods[r])
	}
	e.u(p.Structure)
	e.u(uint64(len(p.Threads)))
	for _, t := range p.Threads {
		e.u(uint64(t.ID))
		e.b(t.Dummy)
		e.u(t.AccDigest)
		e.u(uint64(len(t.Acc)))
		for _, a := range t.Acc {
			e.s(a.Method)
			e.i(int64(a.Recv))
			e.i(int64(a.Index))
			e.s(a.FieldClass)
			e.s(a.FieldName)
			e.i(int64(a.Kind))
			e.b(a.Static)
			e.i32s(a.Objs)
		}
	}
	return e.buf
}

type dec struct {
	buf  []byte
	pos  int
	strs []string
}

func (d *dec) u() uint64 {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			panic("incr: truncated varint")
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			panic("incr: varint overflow")
		}
	}
}

func (d *dec) i() int64 {
	v := d.u()
	return int64(v>>1) ^ -int64(v&1)
}

func (d *dec) b() bool {
	if d.pos >= len(d.buf) {
		panic("incr: truncated bool")
	}
	v := d.buf[d.pos]
	d.pos++
	return v != 0
}

func (d *dec) s() string {
	id := d.u()
	if id < uint64(len(d.strs)) {
		return d.strs[id]
	}
	if id != uint64(len(d.strs)) {
		panic("incr: bad string id")
	}
	n := d.n()
	if d.pos+n > len(d.buf) {
		panic("incr: truncated string")
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	d.strs = append(d.strs, s)
	return s
}

// n reads a count and bounds it by the remaining input so corrupt
// headers cannot force huge allocations.
func (d *dec) n() int {
	v := d.u()
	if v > uint64(len(d.buf)-d.pos) {
		panic("incr: count exceeds input")
	}
	return int(v)
}

func (d *dec) i32s() []int32 {
	n := d.n()
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.i())
	}
	return out
}

// Decode parses a partition; any corruption (truncation, bad magic,
// version skew, oversized counts) returns an error instead of
// panicking or over-allocating.
func Decode(data []byte) (p *Partition, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("incr: corrupt partition: %v", r)
		}
	}()
	if len(data) < 5 {
		return nil, errors.New("incr: partition too short")
	}
	if [4]byte(data[:4]) != magic {
		return nil, errors.New("incr: bad magic")
	}
	d := &dec{buf: data, pos: 4}
	if v := d.u(); v != Version {
		return nil, fmt.Errorf("incr: version %d, want %d", v, Version)
	}
	p = &Partition{}
	p.App = d.s()
	p.K = int(d.u())
	nm := d.n()
	p.Methods = make(map[string]uint64, nm)
	for i := 0; i < nm; i++ {
		r := d.s()
		p.Methods[r] = d.u()
	}
	p.Structure = d.u()
	nt := d.n()
	p.Threads = make([]Thread, nt)
	for i := range p.Threads {
		t := &p.Threads[i]
		t.ID = int(d.u())
		t.Dummy = d.b()
		t.AccDigest = d.u()
		na := d.n()
		if na == 0 {
			continue
		}
		t.Acc = make([]Access, na)
		for j := range t.Acc {
			a := &t.Acc[j]
			a.Method = d.s()
			a.Recv = int32(d.i())
			a.Index = int32(d.i())
			a.FieldClass = d.s()
			a.FieldName = d.s()
			a.Kind = int8(d.i())
			a.Static = d.b()
			a.Objs = d.i32s()
		}
	}
	if d.pos != len(data) {
		return nil, errors.New("incr: trailing garbage")
	}
	return p, nil
}
