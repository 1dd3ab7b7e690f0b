package fingerprint

import (
	"regexp"
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/escape"
	"nadroid/internal/race"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// buildOpts selects structural mutations of the fixture app. Every
// mutation shifts instruction indices or thread numbering; none of them
// may change the fingerprint of the base warning.
type buildOpts struct {
	// extraMethod adds an unrelated method to the activity (shifts
	// nothing inside existing bodies but adds call-graph surface).
	extraMethod bool
	// padUse emits unrelated statements before the use, shifting its
	// instruction index.
	padUse bool
	// padFree emits unrelated statements before the free.
	padFree bool
	// renameHelper renames an uninvolved helper class.
	renameHelper bool
	// secondField plants a second, distinct UAF (own field) whose use
	// and free share methods with the base warning.
	secondField bool
	// secondUse reads the base field twice in the same use method,
	// yielding two warnings distinguished only by access ordinal.
	secondUse bool
}

// buildApp is a Figure 1(a)-shaped fixture: a service connection frees
// `bound`, an entry callback uses it unguarded.
func buildApp(t *testing.T, o buildOpts) *apk.Package {
	t.Helper()
	b := appbuilder.New("fp-fixture")
	act := b.Activity("fp/Act")
	act.Field("bound", "fp/Binding")
	if o.secondField {
		act.Field("extra", "fp/Binding")
	}
	b.Class("fp/Binding", "java/lang/Object").Method("use", 0).Return()
	helper := "fp/Helper"
	if o.renameHelper {
		helper = "fp/RenamedHelper"
	}
	b.Class(helper, "java/lang/Object").Method("assist", 0).Return()

	conn := b.ServiceConn("fp/Conn")
	conn.Field("outer", "fp/Act")
	sc := conn.Method("onServiceConnected", 1)
	o1 := sc.GetThis("outer")
	bnd := sc.New("fp/Binding")
	sc.PutField(o1, "fp/Act", "bound", bnd)
	if o.secondField {
		e := sc.New("fp/Binding")
		sc.PutField(o1, "fp/Act", "extra", e)
	}
	sc.Return()
	sd := conn.Method("onServiceDisconnected", 1)
	o2 := sd.GetThis("outer")
	if o.padFree {
		h := sd.New(helper)
		sd.Use(h, helper)
	}
	sd.Free(o2, "fp/Act", "bound")
	if o.secondField {
		sd.Free(o2, "fp/Act", "extra")
	}
	sd.Return()

	os := act.Method("onStart", 0)
	cn := os.New("fp/Conn")
	os.PutField(cn, "fp/Conn", "outer", os.This())
	os.InvokeVoid(os.This(), "fp/Act", "bindService", cn)
	os.Return()

	menu := act.Method("onCreateContextMenu", 1)
	if o.padUse {
		h := menu.New(helper)
		menu.Use(h, helper)
		menu.Nop()
	}
	bb := menu.GetThis("bound")
	menu.Use(bb, "fp/Binding")
	if o.secondUse {
		bb2 := menu.GetThis("bound")
		menu.Use(bb2, "fp/Binding")
	}
	if o.secondField {
		ee := menu.GetThis("extra")
		menu.Use(ee, "fp/Binding")
	}
	menu.Return()

	if o.extraMethod {
		um := act.Method("unrelatedNewMethod", 0)
		h := um.New(helper)
		um.Use(h, helper)
		um.Return()
	}

	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// detect runs modeling + detection on the fixture, with the race steps
// the shared detector context runs (internal/detect imports this
// package, so its tests cannot call it).
func detect(t *testing.T, pkg *apk.Package) (*threadify.Model, *uaf.Detection) {
	t.Helper()
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("threadify: %v", err)
	}
	accs := race.CollectAccesses(m)
	pairs := race.NewJoin(accs, escape.Analyze(m).Escaped).Pairs()
	return m, uaf.Group(m, &race.Result{Accesses: accs, Pairs: pairs})
}

// findWarnings returns the fingerprints of all warnings on a field,
// ordered by warning key.
func findWarnings(t *testing.T, m *threadify.Model, d *uaf.Detection, field string) []ID {
	t.Helper()
	var out []ID
	for _, w := range d.Warnings {
		if w.Field.Name == field {
			out = append(out, Warning(m, w))
		}
	}
	if len(out) == 0 {
		t.Fatalf("no warning on field %q (have %d warnings)", field, len(d.Warnings))
	}
	return out
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestFingerprintShape(t *testing.T) {
	m, d := detect(t, buildApp(t, buildOpts{}))
	for _, w := range d.Warnings {
		id := Warning(m, w)
		if !hexID.MatchString(string(id)) {
			t.Errorf("fingerprint %q is not 16 hex chars", id)
		}
		if id2 := Warning(m, w); id2 != id {
			t.Errorf("fingerprint not deterministic: %s vs %s", id, id2)
		}
	}
}

// TestFingerprintStability: structural mutations that do not touch the
// warning keep its ID; the table names each survivable change.
func TestFingerprintStability(t *testing.T) {
	baseM, baseD := detect(t, buildApp(t, buildOpts{}))
	base := findWarnings(t, baseM, baseD, "bound")
	if len(base) != 1 {
		t.Fatalf("base fixture: want exactly 1 warning on bound, got %d", len(base))
	}

	cases := []struct {
		name string
		opts buildOpts
	}{
		{"unrelated method added", buildOpts{extraMethod: true}},
		{"statements reordered before use", buildOpts{padUse: true}},
		{"statements reordered before free", buildOpts{padFree: true}},
		{"unrelated class renamed", buildOpts{renameHelper: true}},
		{"all of the above", buildOpts{extraMethod: true, padUse: true, padFree: true, renameHelper: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, d := detect(t, buildApp(t, tc.opts))
			got := findWarnings(t, m, d, "bound")
			if len(got) != 1 || got[0] != base[0] {
				t.Errorf("fingerprint drifted: got %v, want %v", got, base)
			}
		})
	}
}

// TestFingerprintDistinctness: warnings that are genuinely different
// must not collide, even when they share methods — a second field, and
// a second use of the same field in the same method (ordinal).
func TestFingerprintDistinctness(t *testing.T) {
	t.Run("second field in same methods", func(t *testing.T) {
		m, d := detect(t, buildApp(t, buildOpts{secondField: true}))
		bound := findWarnings(t, m, d, "bound")
		extra := findWarnings(t, m, d, "extra")
		for _, b := range bound {
			for _, e := range extra {
				if b == e {
					t.Errorf("bound and extra warnings collide on %s", b)
				}
			}
		}
	})
	t.Run("second use of same field in same method", func(t *testing.T) {
		m, d := detect(t, buildApp(t, buildOpts{secondUse: true}))
		ids := findWarnings(t, m, d, "bound")
		if len(ids) != 2 {
			t.Fatalf("want 2 warnings (two use sites), got %d", len(ids))
		}
		if ids[0] == ids[1] {
			t.Errorf("distinct use sites collide on %s", ids[0])
		}
	})
}

// TestFingerprintSeparatesUseAndFreeRoles: a warning's ID must bind the
// field to its specific use/free methods — sanity-check the hashed
// components via the normalizer.
func TestNormalizeSiteComponents(t *testing.T) {
	m, d := detect(t, buildApp(t, buildOpts{}))
	w := d.Warnings[0]
	for _, ww := range d.Warnings {
		if ww.Field.Name == "bound" {
			w = ww
		}
	}
	sig, kind, _ := normalizeSite(m, w.Use)
	if !strings.HasSuffix(sig, "/1") || kind != "read" {
		t.Errorf("use site = (%s, %s), want .../1 arity and read kind", sig, kind)
	}
	sig, kind, _ = normalizeSite(m, w.Free)
	if !strings.HasSuffix(sig, "/1") || kind != "null-write" {
		t.Errorf("free site = (%s, %s), want .../1 arity and null-write kind", sig, kind)
	}
}
