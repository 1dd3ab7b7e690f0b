package nadroid_test

import (
	"context"
	"reflect"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/filters"
	"nadroid/internal/ir"
	"nadroid/internal/obs"
	"nadroid/internal/threadify"
)

// spanInt returns the int attribute key of the child span name of s.
func spanInt(t *testing.T, s *obs.Span, name, key string) int {
	t.Helper()
	for _, a := range findChild(t, s, name).Attrs() {
		if a.Key == key {
			if n, ok := a.Val.(int); ok {
				return n
			}
		}
	}
	t.Fatalf("span %q has no int attribute %q", name, key)
	return 0
}

// putMethods returns the methods access collection must analyse: every
// concrete method a modeled thread reaches that stores to a field.
func putMethods(m *threadify.Model) map[*ir.Method]bool {
	out := make(map[*ir.Method]bool)
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		for _, mc := range m.Reach(th.ID) {
			mth, err := m.H.MethodByRef(mc.Method)
			if err != nil || mth.Abstract {
				continue
			}
			for _, in := range mth.Instrs {
				if in.Op == ir.OpPutField || in.Op == ir.OpPutStatic {
					out[mth] = true
					break
				}
			}
		}
	}
	return out
}

// TestOriginsComputedOncePerAnalysis checks the value-origin table over
// the 30 corpus apps and random specs 1–6:
//   - collection computes the origins of exactly the reached methods
//     that hold a put, and filtering computes only those of use methods
//     and onResume bodies collection left out, so one analysis computes
//     each method's origins at most once ("origins_computed" sums the
//     two spans' counts);
//   - analysing the same package again computes them all again;
//   - every entry of a table filled the way analyze fills it answers
//     At(i, r) like a fresh ir.ComputeOrigins, for every instruction and
//     register of its method.
func TestOriginsComputedOncePerAnalysis(t *testing.T) {
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	for seed := uint64(1); seed <= 6; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	var totalCollected, totalFiltered int
	for _, app := range apps {
		pkg := app.Build()
		analyze := func() (*nadroid.Result, int64, int, int) {
			tracer, metrics := obs.NewTracer(), obs.NewMetrics()
			ctx := obs.WithMetrics(obs.WithTracer(context.Background(), tracer), metrics)
			res, err := nadroid.AnalyzeContext(ctx, pkg, nadroid.Options{})
			if err != nil {
				t.Fatalf("%s: %v", app.Name(), err)
			}
			root := tracer.Roots()[0]
			collected := spanInt(t, findChild(t, root, "detection"), "race.collect-accesses", "origins")
			filtered := spanInt(t, root, "filtering", "origins")
			return res, metrics.Get("origins_computed"), collected, filtered
		}
		res, computed, collected, filtered := analyze()
		totalCollected += collected
		totalFiltered += filtered
		if computed != int64(collected+filtered) {
			t.Errorf("%s: origins_computed = %d, spans say %d + %d", app.Name(), computed, collected, filtered)
		}
		puts := putMethods(res.Model)
		if collected != len(puts) {
			t.Errorf("%s: collection computed %d origins, want one per reached method with a put (%d)",
				app.Name(), collected, len(puts))
		}
		asked := make(map[*ir.Method]bool)
		for _, w := range res.Detection.Warnings {
			if mth, err := res.Model.H.MethodByRef(w.Use.Method); err == nil && !puts[mth] {
				asked[mth] = true
			}
		}
		for _, c := range pkg.Program.Classes() {
			if mth := c.Method("onResume"); mth != nil && !puts[mth] {
				asked[mth] = true
			}
		}
		if filtered > len(asked) {
			t.Errorf("%s: filtering computed %d origins, but only %d methods collection left out may be asked",
				app.Name(), filtered, len(asked))
		}

		if _, again, _, _ := analyze(); again != computed || computed == 0 {
			t.Errorf("%s: a second analysis computed %d origins, the first %d; want equal and non-zero",
				app.Name(), again, computed)
		}

		ctx := context.Background()
		m, err := threadify.BuildContext(ctx, pkg, threadify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dc := detect.BuildContext(ctx, pkg.Name, m, detect.Options{})
		if _, err := detect.Run(ctx, dc, detect.All()); err != nil {
			t.Fatal(err)
		}
		filters.RunWith(ctx, dc.UAF, filters.RunConfig{MHB: dc.MHB, Origins: dc.Origins})
		if int64(dc.Origins.Computed()) != computed {
			t.Errorf("%s: table holds %d entries, analyze computed %d", app.Name(), dc.Origins.Computed(), computed)
		}
		dc.Origins.Each(func(mth *ir.Method, oi *ir.OriginInfo) {
			fresh := ir.ComputeOrigins(mth)
			for i := 0; i <= len(mth.Instrs); i++ {
				for r := 0; r < mth.NumRegs; r++ {
					if got, want := oi.At(i, r), fresh.At(i, r); got != want {
						t.Errorf("%s: %s At(%d, r%d) = %v, fresh %v", app.Name(), mth.Ref(), i, r, got, want)
						return
					}
				}
			}
		})
	}
	if totalFiltered == 0 {
		t.Error("filtering never computed origins collection left out")
	}
	t.Logf("origins computed: %d by collection, %d by filtering", totalCollected, totalFiltered)
}

// TestResultHoldsNoOriginTable checks that nothing reachable from a
// Result (validated, with evidence) holds the analysis's origin table,
// so the table and its per-instruction maps die with the analysis.
func TestResultHoldsNoOriginTable(t *testing.T) {
	app, _ := corpus.ByName("ConnectBot")
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{Validate: true, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	table := reflect.TypeOf((*ir.Origins)(nil)).Elem()
	type visit struct {
		p uintptr
		t reflect.Type
	}
	seen := make(map[visit]bool)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Type() == table {
			t.Fatalf("Result holds an origin table at %s", path)
		}
		switch v.Kind() {
		case reflect.Ptr, reflect.Map, reflect.Slice:
			if v.IsNil() {
				return
			}
			k := visit{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
		}
		switch v.Kind() {
		case reflect.Ptr, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Ptr, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), path+"[]")
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key(), path+"{key}")
				walk(it.Value(), path+"{}")
			}
		}
	}
	walk(reflect.ValueOf(res), "Result")
	if len(seen) < 100 {
		t.Fatalf("walked %d values; the walk is vacuous", len(seen))
	}
}
