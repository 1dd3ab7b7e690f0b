package nadroid_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/deva"
	"nadroid/internal/dexasm"
	"nadroid/internal/explore"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/store"
)

// dumpSkeleton renders every framework class and member with all their
// fields, unexported ones included, so any write to them shows.
func dumpSkeleton(classes []*ir.Class) string {
	var b strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&b, "%#v\n", *c)
		for _, f := range c.Fields {
			fmt.Fprintf(&b, "  %#v\n", *f)
		}
		for _, m := range c.Methods {
			fmt.Fprintf(&b, "  %#v\n", *m)
		}
	}
	return b.String()
}

// TestFrameworkSkeletonUnwritten checks that every program shares the
// one framework skeleton framework.Declare adds, parsed and built alike,
// and that no analysis writes to it: cold, warm (IR cache) and
// incremental store-backed runs with validation, provenance and every
// detector, and DEvA, over apps with locks, async threads and a random
// spec.
func TestFrameworkSkeletonUnwritten(t *testing.T) {
	prog := ir.NewProgram()
	framework.Declare(prog)
	skeleton := prog.Classes()
	if len(skeleton) != framework.SkeletonSize() {
		t.Fatalf("Declare added %d classes, SkeletonSize is %d", len(skeleton), framework.SkeletonSize())
	}
	before := dumpSkeleton(skeleton)

	specs := []corpus.Spec{corpus.RandomSpec(1)}
	for _, name := range []string{"ConnectBot", "ThreadHerder", "K9Mail"} {
		app, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("%s missing from corpus", name)
		}
		specs = append(specs, app.Spec)
	}
	if testing.Short() {
		specs = specs[:3]
	}
	for _, spec := range specs {
		built := spec.Build()
		src := dexasm.Format(built)
		parsed, err := dexasm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range skeleton {
			if built.Program.Class(c.Name) != c || parsed.Program.Class(c.Name) != c {
				t.Fatalf("%s: %s is not the shared skeleton class", spec.Name, c.Name)
			}
		}

		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := nadroid.Options{
			Validate:    true,
			Explore:     explore.Options{MaxSchedules: 3000},
			Detectors:   detect.Names(),
			Provenance:  true,
			Store:       st,
			IRCache:     true,
			Incremental: true,
		}
		for run := 0; run < 2; run++ {
			if _, err := nadroid.AnalyzeSource(context.Background(), src, opts); err != nil {
				t.Fatalf("%s run %d: %v", spec.Name, run, err)
			}
		}
		if _, err := nadroid.Analyze(built, nadroid.Options{Validate: true, Detectors: detect.Names(), Provenance: true}); err != nil {
			t.Fatal(err)
		}
		deva.Analyze(parsed)
	}
	if after := dumpSkeleton(skeleton); after != before {
		t.Errorf("an analysis wrote to the framework skeleton:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
