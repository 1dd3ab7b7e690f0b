package explore

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/filters"
	"nadroid/internal/interp"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// randomSeeds are the corpus.RandomSpec seeds the tier-1 suite checks.
var randomSeeds = []uint64{1, 2, 3, 4, 5, 6}

// analysis is one app taken through the pipeline up to the filters, the
// way nadroid.Analyze runs it with default options.
type analysis struct {
	pkg       *apk.Package
	model     *threadify.Model
	conflicts *Conflicts
	alive     []*uaf.Warning
}

func analyze(t testing.TB, spec corpus.Spec) analysis {
	t.Helper()
	pkg := spec.Build()
	model, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	ctx := context.Background()
	dc := detect.BuildContext(ctx, spec.Name, model, detect.Options{})
	res, err := detect.Run(ctx, dc, detect.All())
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	filters.RunWith(ctx, res.UAF, filters.RunConfig{MHB: dc.MHB})
	return analysis{pkg: pkg, model: model, conflicts: NewConflicts(model, dc.Accesses), alive: res.UAF.Alive()}
}

// TestRandomSpecGroundTruth checks random specs against the answer the
// generator seeded: TrueTotal()+FPTotal() warnings survive the filters,
// and exactly TrueTotal() of them validate harmful.
func TestRandomSpecGroundTruth(t *testing.T) {
	for _, seed := range randomSeeds {
		spec := corpus.RandomSpec(seed)
		a := analyze(t, spec)
		if got, want := len(a.alive), spec.TrueTotal()+spec.FPTotal(); got != want {
			t.Errorf("seed %d: %d warnings survive, want %d (true %d + fp %d)",
				seed, got, want, spec.TrueTotal(), spec.FPTotal())
		}
		vals, err := ValidateAllDetailed(context.Background(), a.pkg, a.model, a.alive,
			Options{MaxSchedules: 3000, Workers: 1, Conflicts: a.conflicts})
		if err != nil {
			t.Fatal(err)
		}
		harmful := 0
		for _, v := range vals {
			if v.Harmful {
				harmful++
			}
		}
		if harmful != spec.TrueTotal() {
			t.Errorf("seed %d: %d warnings validate harmful, want %d", seed, harmful, spec.TrueTotal())
		}
	}
}

// TestResumeMatchesReplay is the differential gate on snapshot resume.
// Every schedule the DFS executes resumes from a snapshot of its
// parent's world (the root from a fresh one); the world it ends in must
// equal a fresh world that runs the same schedule from step 0: trace,
// NPEs, choice-point rows, steps, held wake locks and the recorded
// access log. It runs every surviving warning's validation search on
// all corpus apps and the random specs, plus an unfocused exhaustive
// search per app whose runs stop at 400 steps (exhaustive keys cost
// quadratic time in a run's choice points). -short checks ConnectBot
// and the random specs.
func TestResumeMatchesReplay(t *testing.T) {
	names := corpus.Names()
	if testing.Short() {
		names = []string{"ConnectBot"}
	}
	const budget, unfocused = 3000, 100
	var specs []corpus.Spec
	for _, name := range names {
		app, _ := corpus.ByName(name)
		specs = append(specs, app.Spec)
	}
	for _, seed := range randomSeeds {
		specs = append(specs, corpus.RandomSpec(seed))
	}
	runs, resumed := 0, 0
	for _, spec := range specs {
		a := analyze(t, spec)
		code := interp.NewCode(a.pkg, hierarchyFor(a.pkg, a.model))
		base := Options{}.withDefaults().Interp
		for i, w := range a.alive {
			// The options findNPE gives a pruned validation search.
			iopts := focus(base, a.model, w)
			iopts.RecordChoices = true
			use := w.Use
			n, r := resumeVsReplay(t, fmt.Sprintf("%s warning %d", spec.Name, i), code, iopts, budget,
				a.conflicts.ForWarning(w), npeMatching(func(npe interp.NPE) bool { return npe.LoadedAt == use }))
			runs, resumed = runs+n, resumed+r
		}
		never := func(*interp.World, []int) (interp.NPE, bool) { return interp.NPE{}, false }
		short := base
		short.MaxSteps = 400
		n, r := resumeVsReplay(t, spec.Name+" unfocused", code, short, unfocused, nil, never)
		runs, resumed = runs+n, resumed+r
	}
	if resumed == 0 {
		t.Fatalf("none of %d schedules resumed from a snapshot", runs)
	}
	t.Logf("%d schedules, %d resumed from a snapshot, all equal to replay", runs, resumed)
}

// resumeVsReplay runs one DFS with trace and access recording on and
// checks every executed schedule against a fresh replay. hit decides
// the search's outcome as it does in production, so the DFS explores
// the same tree. It returns how many schedules ran and how many of
// them resumed from a snapshot.
func resumeVsReplay(t *testing.T, name string, code *interp.Code, iopts interp.Options, budget int, pr *pruner, hit accept) (runs, resumed int) {
	t.Helper()
	iopts.Trace, iopts.Record = true, true
	check := func(w *interp.World, schedule []int) (interp.NPE, bool) {
		runs++
		if len(schedule) > 0 {
			resumed++
		}
		fresh := code.NewWorld(iopts)
		interp.Run(fresh, schedule)
		if d := worldDiff(w, fresh); d != "" {
			t.Fatalf("%s: schedule %v: resumed run differs from replay: %s", name, schedule, d)
		}
		return hit(w, schedule)
	}
	if _, _, err := dfs(context.Background(), code, iopts, budget, check, pr); err != nil {
		t.Fatal(err)
	}
	return runs, resumed
}

// worldDiff describes the first observable difference between a resumed
// world and its replay ("" when they agree).
func worldDiff(resumed, replay *interp.World) string {
	rt, pt := resumed.Trace(), replay.Trace()
	for i := 0; i < len(rt) || i < len(pt); i++ {
		if i >= len(rt) || i >= len(pt) || rt[i] != pt[i] {
			return fmt.Sprintf("trace line %d: resumed %q, replay %q", i, line(rt, i), line(pt, i))
		}
	}
	switch {
	case !reflect.DeepEqual(resumed.NPEs(), replay.NPEs()):
		return fmt.Sprintf("NPEs: resumed %v, replay %v", resumed.NPEs(), replay.NPEs())
	case !reflect.DeepEqual(resumed.Schedule(), replay.Schedule()):
		return fmt.Sprintf("choice points: resumed %+v, replay %+v", *resumed.Schedule(), *replay.Schedule())
	case resumed.Steps() != replay.Steps():
		return fmt.Sprintf("steps: resumed %d, replay %d", resumed.Steps(), replay.Steps())
	case resumed.HeldWakeLocks() != replay.HeldWakeLocks():
		return fmt.Sprintf("held wake locks: resumed %d, replay %d", resumed.HeldWakeLocks(), replay.HeldWakeLocks())
	case !reflect.DeepEqual(resumed.Recorded(), replay.Recorded()):
		return "recorded access logs differ"
	}
	return ""
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}
