package corpus

import (
	"reflect"
	"testing"

	"nadroid"
	"nadroid/internal/filters"
	"nadroid/internal/uaf"
)

// pipeline runs model+detect+filter on a package.
func pipeline(t *testing.T, s Spec) (*uaf.Detection, *filters.Stats) {
	t.Helper()
	pkg := s.Build()
	if err := pkg.Validate(); err != nil {
		t.Fatalf("%s: invalid package: %v", s.Name, err)
	}
	res, err := nadroid.Analyze(pkg, nadroid.Options{})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return res.Detection, res.Stats
}

// TestPatternFilterAttribution checks each benign pattern in isolation:
// exactly the intended filter must remove all of its warnings, and each
// surviving pattern must survive. This pins the semantics of every §6
// filter against its generator pattern.
func TestPatternFilterAttribution(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		// removedBy names filters allowed to kill warnings; empty means
		// the pattern must survive.
		removedBy map[string]bool
		surviving int
	}{
		{"MHBService", Spec{Name: "t", MHBService: 1}, map[string]bool{filters.NameMHB: true}, 0},
		{"MHBTask", Spec{Name: "t", MHBTask: 1}, map[string]bool{filters.NameMHB: true}, 0},
		{"MHBLifecycle", Spec{Name: "t", MHBLifecycle: 1}, map[string]bool{filters.NameMHB: true}, 0},
		{"ServiceDestroy", Spec{Name: "t", ServiceDestroy: 1}, map[string]bool{filters.NameMHB: true}, 0},
		{"MHBIGService", Spec{Name: "t", MHBIGService: 1}, map[string]bool{filters.NameMHB: true, filters.NameIG: true}, 0},
		{"IGLooper", Spec{Name: "t", IGLooper: 1}, map[string]bool{filters.NameIG: true}, 0},
		{"IGLocked", Spec{Name: "t", IGLocked: 1}, map[string]bool{filters.NameIG: true}, 0},
		{"IAAlloc", Spec{Name: "t", IAAlloc: 1}, map[string]bool{filters.NameIA: true}, 0},
		{"RHBResume", Spec{Name: "t", RHBResume: 1}, map[string]bool{filters.NameRHB: true}, 0},
		{"CHBFinish", Spec{Name: "t", CHBFinish: 1}, map[string]bool{filters.NameCHB: true}, 0},
		{"CHBUnbind", Spec{Name: "t", CHBUnbind: 1}, map[string]bool{filters.NameCHB: true, filters.NameUR: true}, 0},
		{"CHBIntraFinish", Spec{Name: "t", CHBIntraFinish: 1}, map[string]bool{filters.NameCHB: true}, 0},
		{"PHBPost", Spec{Name: "t", PHBPost: 1}, map[string]bool{filters.NamePHB: true}, 0},
		{"MAGetter", Spec{Name: "t", MAGetter: 1}, map[string]bool{filters.NameMA: true, filters.NameUR: true}, 0},
		{"URReturn", Spec{Name: "t", URReturn: 1}, map[string]bool{filters.NameUR: true}, 0},
		{"URParam", Spec{Name: "t", URParam: 1}, map[string]bool{filters.NameUR: true}, 0},
		{"TTThread", Spec{Name: "t", TTThread: 1}, map[string]bool{filters.NameTT: true}, 0},

		{"TrueService", Spec{Name: "t", TrueService: 1}, map[string]bool{filters.NameUR: true, filters.NameIG: true}, 1},
		{"TruePosted", Spec{Name: "t", TruePosted: 1}, map[string]bool{filters.NameUR: true, filters.NameIG: true}, 1},
		{"TrueThread", Spec{Name: "t", TrueThread: 1}, map[string]bool{filters.NameUR: true}, 1},
		{"TrueBackButton", Spec{Name: "t", TrueBackButton: 1}, nil, 1},
		{"FPPathInsens", Spec{Name: "t", FPPathInsens: 1}, nil, 1},
		{"FPPointsTo", Spec{Name: "t", FPPointsTo: 1}, nil, 1},
		{"FPNotReach", Spec{Name: "t", FPNotReach: 1}, nil, 1},
		{"FPMissingHB", Spec{Name: "t", FPMissingHB: 1}, nil, 1},
		{"FragmentPair", Spec{Name: "t", FragmentPair: 1}, nil, 0}, // invisible to nAdroid
		{"Padding", Spec{Name: "t", Padding: 3}, nil, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d, st := pipeline(t, c.spec)
			if st.AfterUnsound != c.surviving {
				t.Errorf("surviving = %d, want %d (stats %+v)", st.AfterUnsound, c.surviving, st)
			}
			for _, w := range d.Warnings {
				if w.Alive() {
					continue
				}
				for pair, by := range w.FilteredBy {
					if c.removedBy == nil || !c.removedBy[by] {
						t.Errorf("pair %v of %s removed by %s (allowed: %v)", pair, w.Key(), by, c.removedBy)
					}
				}
			}
		})
	}
}

// TestSurvivorsMatchSeeds asserts the corpus-wide invariant: for every
// app, warnings surviving the full pipeline == seeded true + seeded FP.
func TestSurvivorsMatchSeeds(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			_, st := pipeline(t, app.Spec)
			want := app.Spec.TrueTotal() + app.Spec.FPTotal()
			if st.AfterUnsound != want {
				t.Errorf("surviving = %d, want %d (true %d + fp %d)",
					st.AfterUnsound, want, app.Spec.TrueTotal(), app.Spec.FPTotal())
			}
		})
	}
}

// TestTestGroupShape asserts the Figure 5 shape over the 20 test apps:
// sound filters prune the large majority, IG dominating; unsound filters
// prune most of the remainder.
func TestTestGroupShape(t *testing.T) {
	var pot, sound, unsound int
	indep := map[string]int{}
	for _, app := range TestApps() {
		res, err := nadroid.Analyze(app.Build(), nadroid.Options{SkipSoundFilters: true, SkipUnsoundFilters: true})
		if err != nil {
			t.Fatal(err)
		}
		d := res.Detection
		removed, start := filters.MeasureIndependent(d, filters.SoundFilters(), false)
		for k, v := range removed {
			indep[k] += v
		}
		_ = start
		st := filters.Run(d)
		pot += st.Potential
		sound += st.AfterSound
		unsound += st.AfterUnsound
	}
	soundPct := 100 * float64(pot-sound) / float64(pot)
	if soundPct < 65 {
		t.Errorf("sound filters pruned %.0f%%, want the large majority (paper: 88%%)", soundPct)
	}
	unsoundPct := 100 * float64(sound-unsound) / float64(sound)
	if unsoundPct < 50 {
		t.Errorf("unsound filters pruned %.0f%% of the remainder, want most (paper: 70%%)", unsoundPct)
	}
	if !(indep[filters.NameIG] > indep[filters.NameMHB] && indep[filters.NameMHB] > indep[filters.NameIA]) {
		t.Errorf("independent ordering IG > MHB > IA violated: %v (paper: 66/21/13)", indep)
	}
}

// TestCorpusInventory pins the corpus composition.
func TestCorpusInventory(t *testing.T) {
	if got := len(Apps()); got != 27 {
		t.Errorf("apps = %d, want 27", got)
	}
	if got := len(TrainApps()); got != 7 {
		t.Errorf("train apps = %d, want 7", got)
	}
	if got := len(TestApps()); got != 20 {
		t.Errorf("test apps = %d, want 20", got)
	}
	trueTotal := 0
	for _, app := range Apps() {
		trueTotal += app.Spec.TrueTotal()
	}
	if trueTotal != 88 {
		t.Errorf("seeded true harmful = %d, want the paper's 88", trueTotal)
	}
	if _, ok := ByName("ConnectBot"); !ok {
		t.Error("ByName(ConnectBot) failed")
	}
	if _, ok := ByName("NoSuchApp"); ok {
		t.Error("ByName must reject unknown names")
	}
	// Names covers the Table 1 set plus the async-family apps, which are
	// addressable (ByName, -app) but excluded from Apps().
	if got := len(Names()); got != 27+len(AsyncApps()) {
		t.Errorf("Names = %d, want %d", got, 27+len(AsyncApps()))
	}
	if got := len(AsyncApps()); got != 3 {
		t.Errorf("async apps = %d, want 3", got)
	}
	if _, ok := ByName("ThreadHerder"); !ok {
		t.Error("ByName(ThreadHerder) failed")
	}
}

// TestInjectionSites checks BuildInjected returns one site per kind and
// the app still validates.
func TestInjectionSites(t *testing.T) {
	app, _ := ByName("Tomdroid")
	kinds := []InjectionKind{
		InjectECEC, InjectECPC, InjectPCPC, InjectCRT, InjectCNT,
		InjectHiddenBinder, InjectErrorFinish,
	}
	pkg, sites := app.Spec.BuildInjected(kinds)
	if err := pkg.Validate(); err != nil {
		t.Fatalf("injected package invalid: %v", err)
	}
	if len(sites) != len(kinds) {
		t.Fatalf("sites = %d, want %d", len(sites), len(kinds))
	}
	for i, s := range sites {
		if s.Kind != kinds[i] {
			t.Errorf("site %d kind = %v, want %v", i, s.Kind, kinds[i])
		}
		if s.Class == "" || s.Field == "" {
			t.Errorf("site %d missing location: %+v", i, s)
		}
	}
}

// TestGenerationDeterministic: the same spec builds byte-identical
// programs (the dexasm serialization is the canonical form).
func TestGenerationDeterministic(t *testing.T) {
	app, _ := ByName("Aard")
	p1, p2 := app.Build(), app.Build()
	if p1.Size() != p2.Size() {
		t.Fatalf("sizes differ: %d vs %d", p1.Size(), p2.Size())
	}
	c1, c2 := p1.Program.SortedClassNames(), p2.Program.SortedClassNames()
	if len(c1) != len(c2) {
		t.Fatalf("class counts differ")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("class %d: %s vs %s", i, c1[i], c2[i])
		}
	}
}

// TestRandomSpec pins RandomSpec's contract: a seed always draws the
// same spec, every pattern count is 0–2 and Padding is 0–19.
func TestRandomSpec(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s := RandomSpec(seed)
		if !reflect.DeepEqual(s, RandomSpec(seed)) {
			t.Fatalf("seed %d draws two different specs", seed)
		}
		v := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			name, max := v.Type().Field(i).Name, int64(2)
			if name == "Padding" {
				max = 19
			}
			if f := v.Field(i); f.Kind() == reflect.Int && (f.Int() < 0 || f.Int() > max) {
				t.Errorf("seed %d: %s = %d, want 0..%d", seed, name, f.Int(), max)
			}
		}
	}
}
