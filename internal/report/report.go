// Package report classifies surviving UAF warnings the way §7
// prescribes: by the origins of the use and free operations (EC-EC,
// EC-PC, PC-PC, C-RT, C-NT), with the callback/thread lineage attached
// so a programmer can reconstruct the event sequence behind each
// warning. It also renders the CSV the artifact's ResultAnalysis.csv
// contains.
package report

import (
	"fmt"
	"slices"
	"strings"

	"nadroid/internal/evidence"
	"nadroid/internal/fingerprint"
	"nadroid/internal/ir"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// Category is the §7 warning taxonomy.
type Category int

const (
	// ECEC: both sides are entry callbacks.
	ECEC Category = iota
	// ECPC: an entry callback against a posted callback.
	ECPC
	// PCPC: both sides posted callbacks.
	PCPC
	// CRT: a callback against a thread reachable from it.
	CRT
	// CNT: a callback against a non-reachable thread — the paper's
	// hypothesis holds these are likeliest harmful.
	CNT
	// TT: both sides native threads (normally pruned by the TT filter).
	TT
)

var categoryNames = [...]string{"EC-EC", "EC-PC", "PC-PC", "C-RT", "C-NT", "T-T"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// Categories lists all categories in display order.
func Categories() []Category { return []Category{ECEC, ECPC, PCPC, CRT, CNT, TT} }

// Classify buckets one thread pair.
//
// Thread reachability is transitive across thread creation and event
// posting (§7): a thread is Reachable (RT) relative to a callback when
// the callback is one of its ancestors in the spawn forest.
func Classify(m *threadify.Model, p uaf.ThreadPair) Category {
	tu, tf := m.Threads[p.Use], m.Threads[p.Free]
	isCallback := func(t *threadify.Thread) bool {
		return t.Kind == threadify.KindEntryCallback || t.Kind == threadify.KindPostedCallback
	}
	isThread := func(t *threadify.Thread) bool {
		return t.Kind == threadify.KindTaskBody || t.Kind == threadify.KindNativeThread
	}
	switch {
	case isCallback(tu) && isCallback(tf):
		ec := func(t *threadify.Thread) bool { return t.Kind == threadify.KindEntryCallback }
		switch {
		case ec(tu) && ec(tf):
			return ECEC
		case ec(tu) != ec(tf):
			return ECPC
		default:
			return PCPC
		}
	case isThread(tu) && isThread(tf):
		return TT
	default:
		cb, th := tu, tf
		if isThread(tu) {
			cb, th = tf, tu
		}
		if m.IsAncestor(cb.ID, th.ID) {
			return CRT
		}
		return CNT
	}
}

// ClassifyWarning returns the most-suspicious category across the
// warning's surviving pairs (CNT > CRT > PCPC > ECPC > ECEC > TT as the
// paper's harm hypotheses rank them).
func ClassifyWarning(m *threadify.Model, w *uaf.Warning) Category {
	rank := map[Category]int{CNT: 5, CRT: 4, PCPC: 3, ECPC: 2, ECEC: 1, TT: 0}
	best := TT
	bestRank := -1
	for _, p := range w.Pairs {
		c := Classify(m, p)
		if rank[c] > bestRank {
			bestRank = rank[c]
			best = c
		}
	}
	return best
}

// Entry is one rendered warning.
type Entry struct {
	Warning  *uaf.Warning
	Category Category
	// Fingerprint is the stable content-derived identity — the handle
	// baselines and run diffs use to track this warning across
	// re-analyses.
	Fingerprint fingerprint.ID
	// UseLineage / FreeLineage are the §7 callback-and-thread sequences.
	UseLineage, FreeLineage string
}

// Extra is one warning from a non-UAF detector family (leaked-thread,
// lost-result, no-sleep, …), carried alongside the classic §7 entries
// with its own detector-qualified tag and fingerprint.
type Extra struct {
	// Detector is the registry name of the family that produced it.
	Detector string
	// Tag is the per-family warning tag (e.g. "leaked-thread").
	Tag string
	// Subject names what the warning is about (a thread, a handler, …).
	Subject string
	// Site anchors the warning to one instruction.
	Site ir.InstrID
	// Lineage is the §7-style callback/thread chain of the subject.
	Lineage string
	// Detail is a one-line human explanation.
	Detail string
	// Fingerprint is the stable content-derived identity.
	Fingerprint fingerprint.ID
}

// Report is the rendered output for one application.
type Report struct {
	App     string
	Model   *threadify.Model
	Entries []Entry
	// ByCategory counts surviving warnings per category.
	ByCategory map[Category]int
	// Extras are warnings from the non-UAF detector families. They are
	// rendered only when present, so runs with the classic detector set
	// stay byte-identical to historical output.
	Extras []Extra
}

// New renders the surviving warnings of a detection.
func New(app string, d *uaf.Detection) *Report {
	r := &Report{App: app, Model: d.Model, ByCategory: make(map[Category]int)}
	for _, w := range d.Alive() {
		cat := ClassifyWarning(d.Model, w)
		r.ByCategory[cat]++
		e := Entry{Warning: w, Category: cat, Fingerprint: fingerprint.Warning(d.Model, w)}
		if len(w.Pairs) > 0 {
			e.UseLineage = d.Model.Lineage(w.Pairs[0].Use)
			e.FreeLineage = d.Model.Lineage(w.Pairs[0].Free)
		}
		r.Entries = append(r.Entries, e)
	}
	// Most suspicious first: the unsound filters double as ranking, and
	// within survivors the category hypothesis orders review effort.
	// Ties go in warning-key order, each key formatted once.
	rank := map[Category]int{CNT: 5, CRT: 4, PCPC: 3, ECPC: 2, ECEC: 1, TT: 0}
	type keyed struct {
		key string
		e   Entry
	}
	ks := make([]keyed, len(r.Entries))
	for i, e := range r.Entries {
		ks[i] = keyed{e.Warning.Key(), e}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		if ra, rb := rank[a.e.Category], rank[b.e.Category]; ra != rb {
			return rb - ra
		}
		return strings.Compare(a.key, b.key)
	})
	for i, k := range ks {
		r.Entries[i] = k.e
	}
	return r
}

// String renders a human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %d potential UAF warning(s) after filtering ==\n", r.App, len(r.Entries))
	for i, e := range r.Entries {
		w := e.Warning
		fmt.Fprintf(&b, "[%d] %s  field %s  fp %s\n", i+1, e.Category, w.Field, e.Fingerprint)
		fmt.Fprintf(&b, "    use : %s\n", w.Use)
		fmt.Fprintf(&b, "          via %s\n", e.UseLineage)
		fmt.Fprintf(&b, "    free: %s\n", w.Free)
		fmt.Fprintf(&b, "          via %s\n", e.FreeLineage)
	}
	if len(r.Extras) > 0 {
		fmt.Fprintf(&b, "== %s: %d additional detector warning(s) ==\n", r.App, len(r.Extras))
		for i, x := range r.Extras {
			fmt.Fprintf(&b, "[%d] %s/%s  %s  fp %s\n", i+1, x.Detector, x.Tag, x.Subject, x.Fingerprint)
			fmt.Fprintf(&b, "    site: %s\n", x.Site)
			fmt.Fprintf(&b, "          via %s\n", x.Lineage)
			fmt.Fprintf(&b, "    note: %s\n", x.Detail)
		}
	}
	return b.String()
}

// CSV renders the report as ResultAnalysis.csv rows:
// app,field,use,free,category,use_lineage,free_lineage,fingerprint.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("app,field,use,free,category,use_lineage,free_lineage,fingerprint\n")
	for _, e := range r.Entries {
		w := e.Warning
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%q,%q,%s\n",
			r.App, w.Field, w.Use, w.Free, e.Category, e.UseLineage, e.FreeLineage, e.Fingerprint)
	}
	// Extras reuse the 8-column schema: subject in the field column, the
	// site in the use column, and the detector-qualified tag as category.
	for _, x := range r.Extras {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%q,%q,%s\n",
			r.App, x.Subject, x.Site, "-", x.Detector+":"+x.Tag, x.Lineage, x.Detail, x.Fingerprint)
	}
	return b.String()
}

// CSVWithEvidence renders the report with a ninth "evidence" column
// summarizing each warning's provenance record by fingerprint ("-"
// when no record exists, e.g. provenance was off). CSV() keeps the
// classic 8-column schema byte-for-byte; this is a separate schema for
// provenance-mode exports.
func (r *Report) CSVWithEvidence(ev map[string]*evidence.Evidence) string {
	var b strings.Builder
	b.WriteString("app,field,use,free,category,use_lineage,free_lineage,fingerprint,evidence\n")
	for _, e := range r.Entries {
		w := e.Warning
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%q,%q,%s,%s\n",
			r.App, w.Field, w.Use, w.Free, e.Category, e.UseLineage, e.FreeLineage, e.Fingerprint,
			evidenceSummary(ev[string(e.Fingerprint)]))
	}
	for _, x := range r.Extras {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%q,%q,%s,%s\n",
			r.App, x.Subject, x.Site, "-", x.Detector+":"+x.Tag, x.Lineage, x.Detail, x.Fingerprint,
			evidenceSummary(ev[string(x.Fingerprint)]))
	}
	return b.String()
}

// evidenceSummary compresses a record into a cell: which evidence kinds
// are present, and how many filter verdicts the trail holds.
func evidenceSummary(e *evidence.Evidence) string {
	if e == nil {
		return "-"
	}
	var parts []string
	if e.Derivation != nil {
		parts = append(parts, "derivation")
	}
	if len(e.Aliasing) > 0 {
		parts = append(parts, "aliasing")
	}
	if len(e.Filters) > 0 {
		parts = append(parts, fmt.Sprintf("filters:%d", len(e.Filters)))
	}
	if e.Witness != nil {
		parts = append(parts, "witness")
	}
	if len(parts) == 0 {
		return "record"
	}
	return strings.Join(parts, "+")
}
