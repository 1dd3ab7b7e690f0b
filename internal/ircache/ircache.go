// Package ircache is the binary cold-start cache: a versioned,
// digest-keyed serialization of the IR program, the manifest, the
// threadified model with its solved points-to state (the base facts
// every detector builds on), and the thread-escape result. A warm run
// decodes the blob instead, so it skips dexasm.Parse (which has no
// span), the "modeling" span with its "pointsto.solve" and
// "threadify.attach" children, and the "escape.analyze" span.
//
// The format is hand-rolled (no gob, no reflection on the hot path):
// a magic + version header, an interned string table, then a body of
// uvarint/zigzag-varint fields. Strings repeat heavily across an IR
// program (class names, method refs, field refs), so interning is the
// dominant size win. Encoding is deterministic: identical inputs
// produce identical bytes, so blobs are content-stable under their
// digest key.
//
// Compatibility is by rejection, not migration: the version is baked
// into both the header and the cache filename, so a newer binary simply
// misses old entries and rewrites them (GC collects the orphans).
package ircache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"nadroid/internal/apk"
	"nadroid/internal/cha"
	"nadroid/internal/escape"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// Version is bumped whenever the encoding or any serialized structure
// changes shape; mismatched blobs are treated as cache misses.
//
// v2 appended the thread-escape result (the costliest of the base facts
// the detection context builds on). v3: the points-to result keys a
// static field by its declaring class, not by the ref that names it.
// v4: the points-to snapshot drops the union-find parent array (the
// solver no longer merges variables).
const Version = 4

var magic = [4]byte{'N', 'I', 'R', 'C'}

// Name renders the cache filename for an app digest under sensitivity
// depth k. The digest leads (everything before the first '-') so the
// store's GC can map entries back to runs.
func Name(digest string, k int) string {
	return fmt.Sprintf("%s-v%d-k%d.bin", digest, Version, k)
}

// --- encoder ----------------------------------------------------------

type enc struct {
	strs map[string]uint64
	tab  []string
	body []byte
}

func (e *enc) u(v uint64) { e.body = binary.AppendUvarint(e.body, v) }
func (e *enc) i(v int64)  { e.body = binary.AppendVarint(e.body, v) }
func (e *enc) b(v bool) {
	if v {
		e.u(1)
	} else {
		e.u(0)
	}
}
func (e *enc) s(s string) {
	id, ok := e.strs[s]
	if !ok {
		id = uint64(len(e.tab))
		e.strs[s] = id
		e.tab = append(e.tab, s)
	}
	e.u(id)
}
func (e *enc) ints(v []int) {
	e.u(uint64(len(v)))
	for _, x := range v {
		e.i(int64(x))
	}
}
func (e *enc) words(v []uint64) {
	e.u(uint64(len(v)))
	for _, x := range v {
		e.u(x)
	}
}
func (e *enc) i32s(v []int32) {
	e.u(uint64(len(v)))
	for _, x := range v {
		e.i(int64(x))
	}
}

// Encode serializes a parsed+modeled application plus its thread-escape
// facts. The model must carry its points-to result (every BuildContext
// model does).
func Encode(pkg *apk.Package, model *threadify.Model, esc *escape.Result) []byte {
	e := &enc{strs: make(map[string]uint64)}
	e.encodePackage(pkg)
	e.encodeModel(model)
	e.encodeSnapshot(model.PTS.Snapshot())
	e.encodeEscape(esc)

	// Header + string table + body.
	out := make([]byte, 0, len(e.body)+len(e.tab)*16+64)
	out = append(out, magic[:]...)
	out = binary.AppendUvarint(out, Version)
	out = binary.AppendUvarint(out, uint64(len(e.tab)))
	for _, s := range e.tab {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return append(out, e.body...)
}

func (e *enc) encodePackage(pkg *apk.Package) {
	e.s(pkg.Name)
	classes := pkg.Program.Classes()
	e.u(uint64(len(classes)))
	for _, c := range classes {
		e.s(c.Name)
		e.s(c.Super)
		e.u(uint64(len(c.Interfaces)))
		for _, iface := range c.Interfaces {
			e.s(iface)
		}
		e.s(c.Outer)
		e.b(c.IsIface)
		e.u(uint64(len(c.Fields)))
		for _, f := range c.Fields {
			e.s(f.Name)
			e.s(f.Type)
			e.b(f.Static)
		}
		e.u(uint64(len(c.Methods)))
		for _, m := range c.Methods {
			e.encodeMethod(m)
		}
	}
	m := pkg.Manifest
	e.s(m.Package)
	comps := m.Components()
	e.u(uint64(len(comps)))
	for _, c := range comps {
		e.i(int64(c.Kind))
		e.s(c.Class)
		e.b(c.Main)
		e.b(c.Reachable)
	}
}

func (e *enc) encodeMethod(m *ir.Method) {
	e.s(m.Name)
	e.i(int64(m.NumArgs))
	e.b(m.Static)
	e.b(m.Synch)
	e.b(m.Abstract)
	e.i(int64(m.NumRegs))
	labels := make([]string, 0, len(m.Labels))
	for l := range m.Labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	e.u(uint64(len(labels)))
	for _, l := range labels {
		e.s(l)
		e.i(int64(m.Labels[l]))
	}
	e.u(uint64(len(m.Instrs)))
	for _, in := range m.Instrs {
		e.i(int64(in.Op))
		e.i(int64(in.A))
		e.i(int64(in.B))
		e.ints(in.Args)
		e.s(in.Field().Class)
		e.s(in.Field().Name)
		e.s(in.Type())
		e.s(in.Callee().Class)
		e.s(in.Callee().Name)
		e.s(in.Target())
		e.i(in.IntVal)
		e.s(in.StrVal())
	}
}

func (e *enc) encodeModel(model *threadify.Model) {
	e.u(uint64(len(model.Threads)))
	for _, t := range model.Threads {
		e.i(int64(t.ID))
		e.i(int64(t.Kind))
		e.i(int64(t.Post))
		e.s(t.Origin)
		e.s(t.Entry.Method)
		e.i(int64(t.Entry.Recv))
		e.i(int64(t.Parent))
		e.s(t.Site.Method)
		e.i(int64(t.Site.Index))
		e.b(t.Looper)
		e.s(t.Component)
	}
	compObj := model.ComponentObjs()
	classes := make([]string, 0, len(compObj))
	for cls := range compObj {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	e.u(uint64(len(classes)))
	for _, cls := range classes {
		e.s(cls)
		e.i(int64(compObj[cls]))
	}
}

func (e *enc) encodeSnapshot(s *pointsto.Snapshot) {
	e.u(uint64(len(s.Objs)))
	for _, o := range s.Objs {
		e.s(o.Site)
		e.s(o.Class)
		e.s(o.Ctx)
	}
	e.u(uint64(len(s.MethodNames)))
	for _, n := range s.MethodNames {
		e.s(n)
	}
	e.u(uint64(len(s.MethodMctxs)))
	for _, mcs := range s.MethodMctxs {
		e.i32s(mcs)
	}
	e.u(uint64(len(s.Mctxs)))
	for _, mc := range s.Mctxs {
		e.i(int64(mc.Method))
		e.i(int64(mc.Recv))
		e.i(int64(mc.VarBase))
		e.i(int64(mc.NRegs))
	}
	e.u(uint64(len(s.FieldNames)))
	for _, n := range s.FieldNames {
		e.s(n)
	}
	e.u(uint64(len(s.VarPts)))
	for _, w := range s.VarPts {
		e.words(w)
	}
	e.words(s.FPKeys)
	e.u(uint64(len(s.FPSets)))
	for _, w := range s.FPSets {
		e.words(w)
	}
	e.u(uint64(len(s.StaticNames)))
	for _, n := range s.StaticNames {
		e.s(n)
	}
	e.u(uint64(len(s.StaticSets)))
	for _, w := range s.StaticSets {
		e.words(w)
	}
	e.words(s.EdgeKeys)
	e.u(uint64(len(s.EdgeVals)))
	for _, v := range s.EdgeVals {
		e.i32s(v)
	}
	e.u(uint64(len(s.SpawnEdges)))
	for _, se := range s.SpawnEdges {
		e.s(se.CallerMethod)
		e.i(int64(se.CallerRecv))
		e.i(int64(se.Site))
		e.i(int64(se.Tag))
		e.s(se.TargetMethod)
		e.i(int64(se.TargetRecv))
	}
	e.i(int64(s.Iterations))
	e.i(s.DeltaObjs)
}

// --- decoder ----------------------------------------------------------

var errTruncated = errors.New("ircache: truncated blob")

type dec struct {
	data []byte
	pos  int
	tab  []string
}

func (d *dec) u() uint64 {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		panic(errTruncated)
	}
	d.pos += n
	return v
}
func (d *dec) i() int64 {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		panic(errTruncated)
	}
	d.pos += n
	return v
}
func (d *dec) b() bool { return d.u() != 0 }
func (d *dec) s() string {
	id := d.u()
	if id >= uint64(len(d.tab)) {
		panic(fmt.Errorf("ircache: string id %d out of table range %d", id, len(d.tab)))
	}
	return d.tab[id]
}

// n reads a count and sanity-bounds it against the remaining bytes (any
// element costs ≥1 byte), so corrupt counts fail instead of allocating.
func (d *dec) n() int {
	v := d.u()
	if v > uint64(len(d.data)-d.pos) {
		panic(fmt.Errorf("ircache: count %d exceeds remaining %d bytes", v, len(d.data)-d.pos))
	}
	return int(v)
}
func (d *dec) ints() []int {
	n := d.n()
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.i())
	}
	return out
}
func (d *dec) words() []uint64 {
	n := d.n()
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u()
	}
	return out
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

// Decoded is a restored application: the package, the fully wired
// model (hierarchy, points-to result, thread forest), and the
// thread-escape facts the detection context builds on.
type Decoded struct {
	Pkg    *apk.Package
	Model  *threadify.Model
	Escape *escape.Result
}

// Decode rebuilds a Decoded from an Encode blob. Any malformed input —
// wrong magic, version skew, truncation, out-of-range references —
// returns an error; the decoder never panics out.
func Decode(data []byte) (out *Decoded, err error) {
	defer func() {
		// The IR constructors panic on structural violations (duplicate
		// class, bad label) and the reader panics on truncation; a corrupt
		// blob surfaces all of those as a decode error.
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("ircache: corrupt blob: %w", e)
			} else {
				err = fmt.Errorf("ircache: corrupt blob: %v", r)
			}
			out = nil
		}
	}()
	if len(data) < len(magic)+2 || string(data[:4]) != string(magic[:]) {
		return nil, errors.New("ircache: bad magic")
	}
	d := &dec{data: data, pos: len(magic)}
	if v := d.u(); v != Version {
		return nil, fmt.Errorf("ircache: version %d, want %d", v, Version)
	}
	nstr := d.n()
	d.tab = make([]string, nstr)
	for i := range d.tab {
		l := d.n()
		if d.pos+l > len(d.data) {
			return nil, errTruncated
		}
		d.tab[i] = string(d.data[d.pos : d.pos+l])
		d.pos += l
	}

	pkg := d.decodePackage()
	threads, compObj := d.decodeModelParts()
	snap := d.decodeSnapshot()
	esc := d.decodeEscape()
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("ircache: %d trailing bytes", len(d.data)-d.pos)
	}
	if err := checkModel(threads, compObj, len(snap.Objs)); err != nil {
		return nil, err
	}
	if err := checkBlocks(snap); err != nil {
		return nil, err
	}

	h := cha.New(pkg.Program)
	pts := pointsto.FromSnapshot(h, snap)
	model := threadify.Restore(pkg, pts, threads, compObj)
	return &Decoded{Pkg: pkg, Model: model, Escape: esc}, nil
}

func (d *dec) decodePackage() *apk.Package {
	name := d.s()
	prog := ir.NewProgram()
	for nc := d.n(); nc > 0; nc-- {
		c := ir.NewClass(d.s(), d.s())
		for ni := d.n(); ni > 0; ni-- {
			c.Interfaces = append(c.Interfaces, d.s())
		}
		c.Outer = d.s()
		c.IsIface = d.b()
		for nf := d.n(); nf > 0; nf-- {
			c.AddField(&ir.Field{Name: d.s(), Type: d.s(), Static: d.b()})
		}
		for nm := d.n(); nm > 0; nm-- {
			c.AddMethod(d.decodeMethod(c.Name))
		}
		prog.AddClass(c)
	}
	man := manifest.New(d.s())
	for n := d.n(); n > 0; n-- {
		man.Add(&manifest.Component{
			Kind:      manifest.ComponentKind(d.i()),
			Class:     d.s(),
			Main:      d.b(),
			Reachable: d.b(),
		})
	}
	return &apk.Package{Name: name, Program: prog, Manifest: man}
}

func (d *dec) decodeMethod(class string) *ir.Method {
	m := ir.NewMethod(class, d.s(), int(d.i()))
	m.Static = d.b()
	m.Synch = d.b()
	m.Abstract = d.b()
	m.NumRegs = int(d.i())
	if n := d.n(); n > 0 {
		m.Labels = make(map[string]int, n)
		for ; n > 0; n-- {
			m.Labels[d.s()] = int(d.i())
		}
	}
	ni := d.n()
	if ni > 0 {
		m.Instrs = make([]ir.Instr, ni)
	}
	for i := 0; i < ni; i++ {
		in := ir.Instr{Op: ir.Op(d.i()), A: int(d.i()), B: int(d.i()), Args: d.ints()}
		// The blob spells every symbolic operand an instruction could
		// have; the instruction keeps the one its op names.
		field := ir.FieldRef{Class: d.s(), Name: d.s()}
		typ := d.s()
		callee := ir.MethodRef{Class: d.s(), Name: d.s()}
		target := d.s()
		in.IntVal = d.i()
		str := d.s()
		switch in.Op {
		case ir.OpGetField, ir.OpPutField, ir.OpGetStatic, ir.OpPutStatic:
			in = in.WithField(field)
		case ir.OpInvoke, ir.OpInvokeStatic:
			in = in.WithCallee(callee)
		case ir.OpNew:
			in = in.WithType(typ)
		case ir.OpIfNull, ir.OpIfNonNull, ir.OpIfCond, ir.OpGoto:
			in = in.WithTarget(target)
		case ir.OpConstStr:
			in = in.WithStrVal(str)
		}
		m.Instrs[i] = in
	}
	return m
}

func (d *dec) decodeModelParts() ([]*threadify.Thread, map[string]pointsto.ObjID) {
	n := d.n()
	threads := make([]*threadify.Thread, 0, n)
	for ; n > 0; n-- {
		threads = append(threads, &threadify.Thread{
			ID:        int(d.i()),
			Kind:      threadify.Kind(d.i()),
			Post:      framework.PostKind(d.i()),
			Origin:    d.s(),
			Entry:     threadify.MCtx{Method: d.s(), Recv: pointsto.ObjID(d.i())},
			Parent:    int(d.i()),
			Site:      ir.InstrID{Method: d.s(), Index: int(d.i())},
			Looper:    d.b(),
			Component: d.s(),
		})
	}
	compObj := make(map[string]pointsto.ObjID)
	for n := d.n(); n > 0; n-- {
		compObj[d.s()] = pointsto.ObjID(d.i())
	}
	return threads, compObj
}

// checkModel rejects a thread forest the pipeline would index out of
// range: every thread's ID is its index, its parent is an earlier
// thread (-1 for thread 0 only), and its entry receiver, like every
// component object, lies inside the snapshot's table of nobjs objects.
// The receivers are checked here, after the snapshot, because the
// snapshot follows the model in the blob.
func checkModel(threads []*threadify.Thread, compObj map[string]pointsto.ObjID, nobjs int) error {
	inTable := func(o pointsto.ObjID) bool { return o >= 0 && int(o) < nobjs }
	for i, t := range threads {
		switch {
		case t.ID != i:
			return fmt.Errorf("ircache: thread %d has ID %d", i, t.ID)
		case i == 0 && t.Parent != -1, i > 0 && (t.Parent < 0 || t.Parent >= i):
			return fmt.Errorf("ircache: thread %d has parent %d", i, t.Parent)
		case !inTable(t.Entry.Recv):
			return fmt.Errorf("ircache: thread %d has receiver %d of %d objects", i, t.Entry.Recv, nobjs)
		}
	}
	for cls, o := range compObj {
		if !inTable(o) {
			return fmt.Errorf("ircache: component %s has object %d of %d objects", cls, o, nobjs)
		}
	}
	return nil
}

// checkBlocks rejects a method context whose register block
// [VarBase, VarBase+NRegs) leaves the snapshot's variable table, which
// the first read of that context's registers would index out of range.
// A context without a body has VarBase -1 and NRegs 0.
func checkBlocks(s *pointsto.Snapshot) error {
	for i, mc := range s.Mctxs {
		if mc.VarBase == -1 && mc.NRegs == 0 {
			continue
		}
		if mc.VarBase < 0 || mc.NRegs < 0 || int64(mc.VarBase)+int64(mc.NRegs) > int64(len(s.VarPts)) {
			return fmt.Errorf("ircache: context %d has %d registers at variable %d, outside the %d variables",
				i, mc.NRegs, mc.VarBase, len(s.VarPts))
		}
	}
	return nil
}

func (d *dec) decodeSnapshot() *pointsto.Snapshot {
	s := &pointsto.Snapshot{}
	s.Objs = make([]pointsto.Obj, d.n())
	for i := range s.Objs {
		s.Objs[i] = pointsto.Obj{Site: d.s(), Class: d.s(), Ctx: d.s()}
	}
	s.MethodNames = make([]string, d.n())
	for i := range s.MethodNames {
		s.MethodNames[i] = d.s()
	}
	s.MethodMctxs = make([][]int32, d.n())
	for i := range s.MethodMctxs {
		s.MethodMctxs[i] = d.i32s()
	}
	s.Mctxs = make([]pointsto.MctxSnap, d.n())
	for i := range s.Mctxs {
		s.Mctxs[i] = pointsto.MctxSnap{
			Method: int32(d.i()), Recv: int32(d.i()),
			VarBase: int32(d.i()), NRegs: int32(d.i()),
		}
	}
	s.FieldNames = make([]string, d.n())
	for i := range s.FieldNames {
		s.FieldNames[i] = d.s()
	}
	s.VarPts = make([][]uint64, d.n())
	for i := range s.VarPts {
		s.VarPts[i] = d.words()
	}
	s.FPKeys = d.words()
	s.FPSets = make([][]uint64, d.n())
	for i := range s.FPSets {
		s.FPSets[i] = d.words()
	}
	s.StaticNames = make([]string, d.n())
	for i := range s.StaticNames {
		s.StaticNames[i] = d.s()
	}
	s.StaticSets = make([][]uint64, d.n())
	for i := range s.StaticSets {
		s.StaticSets[i] = d.words()
	}
	s.EdgeKeys = d.words()
	s.EdgeVals = make([][]int32, d.n())
	for i := range s.EdgeVals {
		s.EdgeVals[i] = d.i32s()
	}
	s.SpawnEdges = make([]pointsto.SpawnEdge, d.n())
	for i := range s.SpawnEdges {
		s.SpawnEdges[i] = pointsto.SpawnEdge{
			CallerMethod: d.s(),
			CallerRecv:   pointsto.ObjID(d.i()),
			Site:         int(d.i()),
			Tag:          int(d.i()),
			TargetMethod: d.s(),
			TargetRecv:   pointsto.ObjID(d.i()),
		}
	}
	s.Iterations = int(d.i())
	s.DeltaObjs = d.i()
	return s
}

// encodeEscape writes the thread-escape rows sorted by object ID, so
// identical inputs keep producing identical bytes.
func (e *enc) encodeEscape(esc *escape.Result) {
	objs, reachers, escaped := esc.Snapshot()
	idx := make([]int, len(objs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return objs[idx[a]] < objs[idx[b]] })
	e.u(uint64(len(objs)))
	for _, i := range idx {
		e.i(int64(objs[i]))
		e.u(uint64(reachers[i]))
		e.b(escaped[i])
	}
}

func (d *dec) decodeEscape() *escape.Result {
	n := d.n()
	objs := make([]pointsto.ObjID, n)
	reachers := make([]int, n)
	for i := 0; i < n; i++ {
		objs[i] = pointsto.ObjID(d.i())
		reachers[i] = int(d.u())
		d.b() // escaped: implied by the reacher count
	}
	return escape.FromSnapshot(objs, reachers)
}
