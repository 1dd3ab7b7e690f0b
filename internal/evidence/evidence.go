// Package evidence defines the per-warning provenance record the
// analyzer assembles when Options.Provenance is on: the proof of the
// Racy rule behind the candidate racy pair, the points-to aliasing
// chain of the racing accesses, every filter's keep/kill verdict, and
// the validating witness schedule when one exists. The record is plain
// data — JSON for the wire and store, Render for humans — keyed by the
// warning's stable fingerprint.
package evidence

import (
	"fmt"
	"strings"

	"nadroid/internal/filters"
)

// Derivation is one node of a derivation tree: a tuple, the rule that
// derived it (empty for base facts), and the premises of that
// derivation.
type Derivation struct {
	Rel      string        `json:"rel"`
	Tuple    []string      `json:"tuple,omitempty"`
	Rule     string        `json:"rule,omitempty"`
	Premises []*Derivation `json:"premises,omitempty"`
}

// IsBase reports whether the node is an asserted fact.
func (d *Derivation) IsBase() bool { return d.Rule == "" }

// Witness is the dynamic-validation half of the record: the schedule
// that dereferenced the null loaded at the warning's use site.
type Witness struct {
	Schedule   []int  `json:"schedule"`
	NPE        string `json:"npe,omitempty"`
	Executions int    `json:"executions,omitempty"`
}

// Evidence is one warning's full provenance record.
type Evidence struct {
	Fingerprint string `json:"fingerprint"`
	Detector    string `json:"detector"`
	App         string `json:"app,omitempty"`
	Field       string `json:"field,omitempty"`
	Use         string `json:"use,omitempty"`
	Free        string `json:"free,omitempty"`
	// Category is the §7 classification (set for surviving warnings).
	Category string `json:"category,omitempty"`
	// Alive reports whether the warning survived the filter pipeline.
	Alive bool `json:"alive"`
	// Derivation is the Racy rule's proof of the first racy pair
	// underlying the warning: the rule over its three premises, base
	// facts extracted straight from the program.
	Derivation *Derivation `json:"derivation,omitempty"`
	// Aliasing describes the points-to chains that made the two
	// accesses touch the same memory.
	Aliasing []string `json:"aliasing,omitempty"`
	// Filters is the §6 trail: every filter's verdict in pipeline order.
	Filters []filters.Verdict `json:"filters,omitempty"`
	// Witness is the confirming schedule (validate runs only).
	Witness *Witness `json:"witness,omitempty"`
}

// Render formats the record as a human-readable tree.
func (ev *Evidence) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "warning %s", ev.Fingerprint)
	if ev.Category != "" {
		fmt.Fprintf(&b, "  (%s)", ev.Category)
	}
	if !ev.Alive {
		b.WriteString("  [filtered]")
	}
	b.WriteByte('\n')
	if ev.Field != "" {
		fmt.Fprintf(&b, "  field %s\n  use   %s\n  free  %s\n", ev.Field, ev.Use, ev.Free)
	}
	if ev.Derivation != nil {
		b.WriteString("derivation:\n")
		renderDerivation(&b, ev.Derivation, "  ")
	}
	if len(ev.Aliasing) > 0 {
		b.WriteString("aliasing:\n")
		for _, a := range ev.Aliasing {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	if len(ev.Filters) > 0 {
		b.WriteString("filters:\n")
		for _, v := range ev.Filters {
			mark := "keep"
			if !v.Kept {
				mark = "kill"
			}
			kind := "sound"
			if !v.Sound {
				kind = "unsound"
			}
			fmt.Fprintf(&b, "  [%s] %-3s (%s, removed %d of %d pairs): %s\n",
				mark, v.Filter, kind, v.PairsRemoved, v.PairsBefore, v.Reason)
		}
	}
	if ev.Witness != nil {
		fmt.Fprintf(&b, "witness: schedule %v", ev.Witness.Schedule)
		if ev.Witness.NPE != "" {
			fmt.Fprintf(&b, " -> %s", ev.Witness.NPE)
		}
		if ev.Witness.Executions > 0 {
			fmt.Fprintf(&b, " (after %d executions)", ev.Witness.Executions)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderDerivation(b *strings.Builder, d *Derivation, indent string) {
	fmt.Fprintf(b, "%s%s(%s)", indent, d.Rel, strings.Join(d.Tuple, ", "))
	if d.IsBase() {
		b.WriteString("  [fact]")
	} else {
		fmt.Fprintf(b, "  <- %s", d.Rule)
	}
	b.WriteByte('\n')
	for _, p := range d.Premises {
		renderDerivation(b, p, indent+"  ")
	}
}
