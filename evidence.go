package nadroid

import (
	"fmt"
	"sort"
	"strings"

	"nadroid/internal/detect"
	"nadroid/internal/evidence"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/fingerprint"
	"nadroid/internal/pointsto"
	"nadroid/internal/race"
	"nadroid/internal/uaf"
)

// assembleEvidence builds the per-warning provenance records after the
// pipeline finishes: the Racy derivation of the first racy pair, the
// aliasing chain of the racing accesses, the filter trail, and the
// validation witness. Every UAF warning gets a record — killed warnings
// carry the trail that killed them.
func assembleEvidence(app string, dc *detect.Context, res *Result, trail *filters.Trail) map[string]*evidence.Evidence {
	d := res.Detection
	out := make(map[string]*evidence.Evidence, len(d.Warnings))

	categories := make(map[*uaf.Warning]string, len(res.Report.Entries))
	for _, e := range res.Report.Entries {
		categories[e.Warning] = e.Category.String()
	}
	witnesses := make(map[*uaf.Warning]*explore.Witness)
	for _, v := range res.Harmful {
		witnesses[v.Warning] = v.Witness
	}

	for _, w := range d.Warnings {
		fp := fingerprint.Warning(d.Model, w)
		ev := &evidence.Evidence{
			Fingerprint: string(fp),
			Detector:    "uaf",
			App:         app,
			Field:       w.Field.String(),
			Use:         w.Use.String(),
			Free:        w.Free.String(),
			Category:    categories[w],
			Alive:       w.Alive(),
		}
		if len(w.Races) > 0 {
			p := w.Races[0]
			ev.Derivation = racyDerivation(dc, p)
			ev.Aliasing = aliasingChain(dc, d, p)
		}
		if trail != nil {
			ev.Filters = trail.For(w)
		}
		if wit := witnesses[w]; wit != nil {
			ev.Witness = &evidence.Witness{
				Schedule:   wit.Schedule,
				NPE:        wit.NPE.String(),
				Executions: wit.Executions,
			}
		}
		out[string(fp)] = ev
	}
	return out
}

// racyDerivation writes down race.RacyRule's proof of the racy pair p.
// The rule is one non-recursive join, so the proof is always the rule
// over its three base-fact premises, and p's two accesses plus the
// escape result fix them: h is h:static for a static field, and
// otherwise the lowest-numbered escaping object both accesses point to.
// Terms are written as Chord names them: a<access>, t<thread>,
// f:<Class.field> and h<object>.
func racyDerivation(dc *detect.Context, p race.Pair) *evidence.Derivation {
	use, free := dc.Accesses[p.A], dc.Accesses[p.B]
	var h string
	if use.Static {
		h = "h:static"
	} else {
		for _, o := range intersectObjs(use.Objs, free.Objs) {
			if dc.Escape.Escaped(o) {
				h = fmt.Sprintf("h%d", o)
				break
			}
		}
	}
	a, b := fmt.Sprintf("a%d", p.A), fmt.Sprintf("a%d", p.B)
	f := "f:" + use.Field.String()
	return &evidence.Derivation{
		Rel:   "Racy",
		Tuple: []string{a, b},
		Rule:  race.RacyRule,
		Premises: []*evidence.Derivation{
			{Rel: "RdAcc", Tuple: []string{a, fmt.Sprintf("t%d", use.Thread), f, h}},
			{Rel: "WrAcc", Tuple: []string{b, fmt.Sprintf("t%d", free.Thread), f, h}},
			{Rel: "Esc", Tuple: []string{h}},
		},
	}
}

// aliasingChain explains why the two accesses of a racy pair touch the
// same memory: the abstract objects each side may point to, their
// intersection, and the escape status that let the pair race.
func aliasingChain(dc *detect.Context, d *uaf.Detection, p race.Pair) []string {
	use, free := d.AccessFor(p.A), d.AccessFor(p.B)
	if use.Static || free.Static {
		return []string{fmt.Sprintf(
			"static field %s: both accesses share global storage (always thread-escaping)", use.Field)}
	}
	var out []string
	out = append(out,
		fmt.Sprintf("use  %s on thread %d may point to %s", use.Instr, use.Thread, describeObjs(dc, use.Objs)),
		fmt.Sprintf("free %s on thread %d may point to %s", free.Instr, free.Thread, describeObjs(dc, free.Objs)))
	shared := intersectObjs(use.Objs, free.Objs)
	if len(shared) == 0 {
		out = append(out, "no shared abstract object (race arises through distinct aliases)")
		return out
	}
	var escaped, local []string
	for _, o := range shared {
		name := objName(dc, o)
		if dc.Escape.Escaped(o) {
			escaped = append(escaped, name)
		} else {
			local = append(local, name)
		}
	}
	if len(escaped) > 0 {
		out = append(out, fmt.Sprintf("shared object(s) %s escape their creating thread — the pair can race",
			strings.Join(escaped, ", ")))
	}
	if len(local) > 0 {
		out = append(out, fmt.Sprintf("shared object(s) %s stay thread-local", strings.Join(local, ", ")))
	}
	return out
}

func describeObjs(dc *detect.Context, objs []pointsto.ObjID) string {
	if len(objs) == 0 {
		return "(nothing)"
	}
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = objName(dc, o)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func objName(dc *detect.Context, o pointsto.ObjID) string {
	obj := dc.Model.PTS.Obj(o)
	if obj.Class != "" {
		return fmt.Sprintf("h%d (%s at %s)", int(o), obj.Class, obj.Site)
	}
	return fmt.Sprintf("h%d", int(o))
}

func intersectObjs(a, b []pointsto.ObjID) []pointsto.ObjID {
	set := make(map[pointsto.ObjID]bool, len(a))
	for _, o := range a {
		set[o] = true
	}
	var out []pointsto.ObjID
	for _, o := range b {
		if set[o] {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvidenceFor returns the evidence record for a fingerprint, matching
// both full fingerprints and unambiguous prefixes (like git object
// names). ok is false when provenance was off or nothing matches.
func (r *Result) EvidenceFor(fp string) (*evidence.Evidence, bool) {
	if r.Evidence == nil || fp == "" {
		return nil, false
	}
	if ev, ok := r.Evidence[fp]; ok {
		return ev, true
	}
	var match *evidence.Evidence
	for k, ev := range r.Evidence {
		if strings.HasPrefix(k, fp) {
			if match != nil {
				return nil, false // ambiguous prefix
			}
			match = ev
		}
	}
	return match, match != nil
}
