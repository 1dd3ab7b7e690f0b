// Package inject runs the false-negative study of §8.6 (Table 2):
// artificial UAF ordering violations are planted at DroidRacer-style
// locations in 8 test applications, and the static pipeline is asked to
// find them. Two mechanisms cause misses, both reproduced here:
// framework-mediated call paths the call graph cannot see (IBinder
// passed to the framework) and real UAFs wrongly pruned by the unsound
// CHB filter (error-path finish()).
package inject

import (
	"fmt"
	"sort"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/filters"
	"nadroid/internal/uaf"
)

// Outcome classifies what the pipeline did with one injected UAF.
type Outcome int

const (
	// Detected: a warning for the injected field survives all filters.
	Detected Outcome = iota
	// PrunedByUnsound: detected, but an unsound filter removed it.
	PrunedByUnsound
	// PrunedBySound: detected, but a sound filter removed it (would be a
	// soundness bug — tests assert this never happens).
	PrunedBySound
	// Missed: no warning at all references the injected field.
	Missed
)

var outcomeNames = [...]string{"detected", "pruned-unsound", "pruned-sound", "missed"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// SiteResult pairs an injected site with its outcome.
type SiteResult struct {
	Site    corpus.InjectedSite
	Outcome Outcome
}

// Row aggregates one application of the study.
type Row struct {
	App     string
	Results []SiteResult
	// ByKind counts injections per kind.
	ByKind map[corpus.InjectionKind]int
}

// All returns the injected count.
func (r Row) All() int { return len(r.Results) }

// Missed counts injections with no warning.
func (r Row) Missed() int { return r.count(Missed) }

// PrunedUnsound counts injections lost to unsound filters.
func (r Row) PrunedUnsound() int { return r.count(PrunedByUnsound) }

// Detected counts surviving injections.
func (r Row) Detected() int { return r.count(Detected) }

func (r Row) count(o Outcome) int {
	n := 0
	for _, res := range r.Results {
		if res.Outcome == o {
			n++
		}
	}
	return n
}

// Plan is the per-app injection list; the default mirrors Table 2's 28
// injections over 8 DroidRacer apps.
type Plan struct {
	App   string
	Kinds []corpus.InjectionKind
}

// DefaultPlans reproduces Table 2: 28 injections, of which Mms's two
// hidden-binder sites are missed and the three error-finish sites
// (Browser ×2, Puzzles ×1) are pruned by the unsound CHB filter.
func DefaultPlans() []Plan {
	k := func(ks ...corpus.InjectionKind) []corpus.InjectionKind { return ks }
	return []Plan{
		{"Tomdroid", k(corpus.InjectECPC)},
		{"SGTPuzzles", k(
			corpus.InjectECEC, corpus.InjectECPC, corpus.InjectECPC,
			corpus.InjectECPC, corpus.InjectECPC, corpus.InjectPCPC,
			corpus.InjectPCPC, corpus.InjectCNT, corpus.InjectErrorFinish)},
		{"Aard", k(corpus.InjectECPC)},
		{"Music", k(
			corpus.InjectECPC, corpus.InjectECPC, corpus.InjectPCPC,
			corpus.InjectCNT, corpus.InjectCNT, corpus.InjectCNT)},
		{"Mms", k(
			corpus.InjectECPC, corpus.InjectECPC, corpus.InjectPCPC,
			corpus.InjectCRT, corpus.InjectHiddenBinder, corpus.InjectHiddenBinder)},
		{"Browser", k(corpus.InjectCNT, corpus.InjectErrorFinish, corpus.InjectErrorFinish)},
		{"MyTracks_2", k(corpus.InjectPCPC)},
		{"K9Mail", k(corpus.InjectCNT)},
	}
}

// Run executes the study for the given plans (DefaultPlans when nil).
func Run(plans []Plan) ([]Row, error) {
	if plans == nil {
		plans = DefaultPlans()
	}
	var rows []Row
	for _, p := range plans {
		app, ok := corpus.ByName(p.App)
		if !ok {
			return nil, fmt.Errorf("inject: unknown corpus app %q", p.App)
		}
		pkg, sites := app.Spec.BuildInjected(p.Kinds)
		res, err := nadroid.Analyze(pkg, nadroid.Options{})
		if err != nil {
			return nil, fmt.Errorf("inject: %s: %v", p.App, err)
		}
		row := Row{App: p.App, ByKind: make(map[corpus.InjectionKind]int)}
		for _, site := range sites {
			row.ByKind[site.Kind]++
			row.Results = append(row.Results, SiteResult{Site: site, Outcome: classify(res.Detection, site)})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// classify inspects the detection for one injected site.
func classify(d *uaf.Detection, site corpus.InjectedSite) Outcome {
	soundNames := map[string]bool{filters.NameMHB: true, filters.NameIG: true, filters.NameIA: true}
	found := false
	anyAlive := false
	anyUnsound := false
	for _, w := range d.Warnings {
		if w.Field.Class != site.Class || w.Field.Name != site.Field {
			continue
		}
		found = true
		if w.Alive() {
			anyAlive = true
			continue
		}
		for _, name := range w.FilteredBy {
			if !soundNames[name] {
				anyUnsound = true
			}
		}
	}
	switch {
	case !found:
		return Missed
	case anyAlive:
		return Detected
	case anyUnsound:
		return PrunedByUnsound
	default:
		return PrunedBySound
	}
}

// Totals sums all rows.
func Totals(rows []Row) (all, missed, prunedUnsound int) {
	for _, r := range rows {
		all += r.All()
		missed += r.Missed()
		prunedUnsound += r.PrunedUnsound()
	}
	return
}

// KindsInOrder returns the kinds present across rows, sorted for stable
// table rendering.
func KindsInOrder(rows []Row) []corpus.InjectionKind {
	seen := map[corpus.InjectionKind]bool{}
	for _, r := range rows {
		for k := range r.ByKind {
			seen[k] = true
		}
	}
	var out []corpus.InjectionKind
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
