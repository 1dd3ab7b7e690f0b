// Package corpus provides the 27 synthetic applications that stand in
// for the paper's evaluation subjects (Table 1). Each app is generated
// from a Spec: counts of seeded true-harmful patterns (the Figure 1
// shapes), benign patterns each filter of §6 should prune, and
// false-positive patterns that survive all filters for the §8.5 reasons
// (path insensitivity, points-to imprecision, unreachable components,
// missing UI happens-before).
//
// Counts are scaled roughly 10–500× down from the paper's raw warning
// numbers (the subjects were 1.2k–103k LOC Java apps); the shape — which
// filters prune what fraction, where the true bugs sit, which apps come
// out clean — follows Table 1 row by row. True-harmful counts match the
// paper exactly where the paper is explicit (e.g. ConnectBot's 13).
package corpus

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"

	"nadroid/internal/apk"
)

// Spec seeds one synthetic application.
type Spec struct {
	Name  string
	Group string // "train" or "test"

	// True harmful seeds (validated dynamically).
	TrueService    int // Figure 1(a): EC-PC
	TruePosted     int // Figure 1(b): PC-PC
	TrueThread     int // Figure 1(c): C-NT
	TrueBackButton int // §6.1.1 back-edge: EC-EC

	// Sound-filtered seeds.
	MHBService, MHBTask, MHBLifecycle int
	// MHBIGService seeds warnings prunable by BOTH MHB and IG (the
	// filter-overlap mass of Figure 5(a)).
	MHBIGService       int
	IGLooper, IGLocked int
	IAAlloc            int

	// Unsound-filtered seeds.
	RHBResume, CHBFinish, CHBUnbind, PHBPost int
	MAGetter, URReturn, URParam              int
	TTThread                                 int

	// DEvA-comparison seeds (Table 3 shapes).
	ServiceDestroy int // service onStartCommand-use vs onDestroy-free (MHB-filtered)
	CHBIntraFinish int // intra-class finish canceller (CHB-filtered)
	FragmentPair   int // Fragment lifecycle UAF (nAdroid blind spot, §8.1)

	// Async-error seeds (arXiv:1808.03178; the leaked-thread and
	// lost-result detector families, invisible to the UAF pipeline).
	LeakedThread     int // worker thread outlives its component's teardown
	LeakedThreadJoin int // benign: onDestroy interrupts the worker
	LostResult       int // posted result never drained before teardown
	LostResultCancel int // benign: onDestroy drains via removeCallbacksAndMessages

	// False-positive seeds (§8.5).
	FPPathInsens, FPPointsTo, FPNotReach, FPMissingHB int

	// Padding adds benign thread-local classes (bulk).
	Padding int
}

// TrueTotal is the number of seeded harmful UAFs.
func (s Spec) TrueTotal() int {
	return s.TrueService + s.TruePosted + s.TrueThread + s.TrueBackButton
}

// FPTotal is the number of seeded surviving false positives.
func (s Spec) FPTotal() int {
	return s.FPPathInsens + s.FPPointsTo + s.FPNotReach + s.FPMissingHB
}

// RandomSpec draws a spec from seed: every pattern count is 0–2 and
// Padding is 0–19. The generator knows the answer for any spec, so a
// random one is ground truth too: TrueTotal()+FPTotal() warnings survive
// the filters and TrueTotal() of them validate harmful. Equal seeds give
// equal specs.
func RandomSpec(seed uint64) Spec {
	r := rand.New(rand.NewPCG(seed, 0))
	s := Spec{Name: fmt.Sprintf("Random%d", seed), Group: "random"}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int && v.Type().Field(i).Name != "Padding" {
			f.SetInt(int64(r.IntN(3)))
		}
	}
	s.Padding = r.IntN(20)
	return s
}

// Build generates the application package for a spec.
func (s Spec) Build() *apk.Package {
	g := newGen(s.Name)
	s.emit(g)
	return g.finish().MustBuild()
}

// emit seeds all of the spec's patterns into a generator.
func (s Spec) emit(g *gen) {
	repeat := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	repeat(s.TrueService, func() { g.trueServiceUAF() })
	repeat(s.TruePosted, func() { g.truePostedUAF() })
	repeat(s.TrueThread, func() { g.trueThreadUAF() })
	repeat(s.TrueBackButton, func() { g.trueBackButton() })
	repeat(s.MHBService, g.mhbService)
	repeat(s.MHBTask, g.mhbTask)
	repeat(s.MHBLifecycle, g.mhbLifecycle)
	repeat(s.MHBIGService, g.mhbIGService)
	repeat(s.ServiceDestroy, g.serviceDestroy)
	repeat(s.CHBIntraFinish, g.chbIntraFinish)
	repeat(s.FragmentPair, g.fragmentPair)
	repeat(s.IGLooper, g.igLooper)
	repeat(s.IGLocked, g.igLocked)
	repeat(s.IAAlloc, g.iaAlloc)
	repeat(s.RHBResume, g.rhbResume)
	repeat(s.CHBFinish, g.chbFinish)
	repeat(s.CHBUnbind, g.chbUnbind)
	repeat(s.PHBPost, g.phbPost)
	repeat(s.MAGetter, g.maGetter)
	repeat(s.URReturn, g.urReturn)
	repeat(s.URParam, g.urParam)
	repeat(s.TTThread, g.ttThread)
	repeat(s.LeakedThread, func() { g.leakedThread(false) })
	repeat(s.LeakedThreadJoin, func() { g.leakedThread(true) })
	repeat(s.LostResult, func() { g.lostResult(false) })
	repeat(s.LostResultCancel, func() { g.lostResult(true) })
	repeat(s.FPPathInsens, g.fpPathInsens)
	repeat(s.FPPointsTo, g.fpPointsTo)
	repeat(s.FPNotReach, g.fpNotReach)
	repeat(s.FPMissingHB, g.fpMissingHB)
	g.padding(s.Padding)
}

// App is one corpus entry.
type App struct {
	Spec Spec
}

// Name returns the app name.
func (a App) Name() string { return a.Spec.Name }

// Build generates the package.
func (a App) Build() *apk.Package { return a.Spec.Build() }

// Apps returns the full 27-app corpus in Table 1 order (train first).
// The async-family apps are deliberately excluded: Table 1's UAF
// totals are defined over exactly these 27.
func Apps() []App {
	var out []App
	for _, s := range specs {
		out = append(out, App{Spec: s})
	}
	return out
}

// AsyncApps returns the supplemental apps seeding the leaked-thread and
// lost-result ground truth (group "async").
func AsyncApps() []App {
	var out []App
	for _, s := range asyncSpecs {
		out = append(out, App{Spec: s})
	}
	return out
}

// TrainApps returns the 7 training-group apps (used to design the
// unsound filters, §6.2).
func TrainApps() []App { return filterGroup("train") }

// TestApps returns the 20 test-group apps (all headline numbers use
// these, §8.2).
func TestApps() []App { return filterGroup("test") }

func filterGroup(group string) []App {
	var out []App
	for _, s := range specs {
		if s.Group == group {
			out = append(out, App{Spec: s})
		}
	}
	return out
}

// ByName finds an app (Table 1 corpus or async supplement); ok is false
// for unknown names.
func ByName(name string) (App, bool) {
	for _, s := range specs {
		if s.Name == name {
			return App{Spec: s}, true
		}
	}
	for _, s := range asyncSpecs {
		if s.Name == name {
			return App{Spec: s}, true
		}
	}
	return App{}, false
}

// Names lists all corpus app names (Table 1 plus async supplement),
// sorted.
func Names() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	for _, s := range asyncSpecs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}
