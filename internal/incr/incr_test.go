package incr_test

import (
	"reflect"
	"testing"

	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/incr"
	"nadroid/internal/ir"
)

// TestDigestStability proves every digest is a pure function of app
// content: a format/parse round trip (fresh IR objects, fresh maps)
// yields identical method, structure, and points-to-projection
// digests for every corpus app.
func TestDigestStability(t *testing.T) {
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			pkg := app.Build()
			reparsed, err := dexasm.Parse(dexasm.Format(pkg))
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			a := incr.MethodDigests(pkg.Program)
			b := incr.MethodDigests(reparsed.Program)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("method digests differ across reparse")
			}
			if d := incr.DiffMethods(a, b); d.Changed() != 0 {
				t.Errorf("diff across reparse: %+v", d)
			}
			if x, y := incr.StructureDigest(pkg), incr.StructureDigest(reparsed); x != y {
				t.Errorf("structure digest differs across reparse: %x vs %x", x, y)
			}
			if x, y := incr.PtsProjection(pkg, 2), incr.PtsProjection(reparsed, 2); x != y {
				t.Errorf("pts projection differs across reparse: %x vs %x", x, y)
			}
			if x, y := incr.PtsProjection(pkg, 1), incr.PtsProjection(pkg, 2); x == y {
				t.Errorf("pts projection ignores K")
			}
		})
	}
}

// TestDiffClassification edits, adds, and removes methods at the IR
// level and checks the classification sees exactly that.
func TestDiffClassification(t *testing.T) {
	pkg := corpus.Apps()[0].Build()
	base := incr.MethodDigests(pkg.Program)

	// Pick a class with a concrete method to edit.
	var victim *ir.Method
	var class *ir.Class
	for _, c := range pkg.Program.Classes() {
		for _, m := range c.Methods {
			if !m.Abstract && len(m.Instrs) > 0 {
				victim, class = m, c
				break
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no editable method in corpus app 0")
	}

	victim.Instrs = append(victim.Instrs, ir.Instr{Op: ir.OpMove, A: 0, B: 0})
	d := incr.DiffMethods(base, incr.MethodDigests(pkg.Program))
	if d.Edited != 1 || d.Added != 0 || d.Removed != 0 {
		t.Errorf("after body edit: %+v, want exactly 1 edited", d)
	}

	added := ir.NewMethod(class.Name, "incrTestAdded", 0)
	added.Instrs = []ir.Instr{{Op: ir.OpReturn, A: -1}}
	class.AddMethod(added)
	d = incr.DiffMethods(base, incr.MethodDigests(pkg.Program))
	if d.Edited != 1 || d.Added != 1 || d.Removed != 0 {
		t.Errorf("after add: %+v, want 1 edited + 1 added", d)
	}

	// Removal: diff the other direction (base has methods cur lacks).
	d = incr.DiffMethods(incr.MethodDigests(pkg.Program), base)
	if d.Removed != 1 || d.Edited != 1 {
		t.Errorf("reverse diff: %+v, want 1 removed + 1 edited", d)
	}
}

// TestStructureDigestSeesSignatures checks that body edits do NOT
// move the structure digest, while signature and hierarchy changes do.
func TestStructureDigestSeesSignatures(t *testing.T) {
	pkg := corpus.Apps()[0].Build()
	base := incr.StructureDigest(pkg)

	for _, c := range pkg.Program.Classes() {
		for _, m := range c.Methods {
			if !m.Abstract && len(m.Instrs) > 0 {
				m.Instrs = append(m.Instrs, ir.Instr{Op: ir.OpMove, A: 0, B: 0})
				if incr.StructureDigest(pkg) != base {
					t.Fatalf("body edit moved structure digest")
				}
				m.NumArgs++
				if incr.StructureDigest(pkg) == base {
					t.Fatalf("signature change did not move structure digest")
				}
				m.NumArgs--
				return
			}
		}
	}
	t.Fatal("no editable method")
}

func samplePartition() *incr.Partition {
	return &incr.Partition{
		App: "sample",
		K:   2,
		Methods: map[string]uint64{
			"A.m":  0xdeadbeef,
			"A.n":  12,
			"B.go": 1 << 60,
		},
		Structure: 7,
		PtsProj:   9,
		Threads: []incr.Thread{
			{ID: 0, Dummy: true},
			{
				ID: 1, AccDigest: 102,
				Acc: []incr.Access{
					{Method: "A.m", Recv: 3, Index: 4, FieldClass: "A", FieldName: "f", Kind: 2, Static: false, Objs: []int32{3}},
					{Method: "A.m", Recv: 3, Index: 9, FieldClass: "B", FieldName: "g", Kind: 0, Static: true},
				},
			},
		},
	}
}

// TestPartitionRoundtrip checks Encode/Decode is lossless.
func TestPartitionRoundtrip(t *testing.T) {
	p := samplePartition()
	q, err := incr.Decode(p.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Errorf("roundtrip mismatch:\n in: %+v\nout: %+v", p, q)
	}
}

// TestPartitionCorruption feeds every truncation prefix plus targeted
// corruptions through Decode and requires an error — never a panic,
// never a silently wrong partition.
func TestPartitionCorruption(t *testing.T) {
	data := samplePartition().Encode()
	for n := 0; n < len(data); n++ {
		if _, err := incr.Decode(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := incr.Decode(bad); err == nil {
		t.Errorf("bad magic decoded without error")
	}
	skew := append([]byte(nil), data...)
	skew[4] = incr.Version + 1
	if _, err := incr.Decode(skew); err == nil {
		t.Errorf("version skew decoded without error")
	}
	trail := append(append([]byte(nil), data...), 0)
	if _, err := incr.Decode(trail); err == nil {
		t.Errorf("trailing garbage decoded without error")
	}
}

// TestAccessConversionRoundtrip checks race.Access <-> incr.Access is
// faithful for a realistic partition.
func TestAccessConversionRoundtrip(t *testing.T) {
	p := samplePartition()
	th := p.Threads[1]
	back := incr.FromRaceAccesses(incr.ToRaceAccesses(th.ID, th.Acc))
	if !reflect.DeepEqual(back, th.Acc) {
		t.Errorf("conversion not faithful:\n in: %+v\nout: %+v", th.Acc, back)
	}
}
