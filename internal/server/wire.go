// wire.go defines the JSON wire format shared by cmd/nadroid's -json
// flag and the nadroid-serve HTTP API, so the CLI and the service emit
// byte-compatible reports. Every type here is a plain encoding/json
// struct; the conversion helpers are the only place analysis results
// are flattened for transport.
package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"nadroid"
	"nadroid/internal/detect"
	"nadroid/internal/evidence"
	"nadroid/internal/explore"
	"nadroid/internal/store"
	"nadroid/internal/uaf"
)

// OptionsWire mirrors nadroid.Options for transport. Zero values mean
// "the default": K falls back to 2 and MaxSchedules to the explorer's
// default, matching the CLI flags.
type OptionsWire struct {
	K                  int  `json:"k,omitempty"`
	SkipSoundFilters   bool `json:"skip_sound_filters,omitempty"`
	SkipUnsoundFilters bool `json:"skip_unsound_filters,omitempty"`
	MultiLooper        bool `json:"multi_looper,omitempty"`
	Validate           bool `json:"validate,omitempty"`
	MaxSchedules       int  `json:"max_schedules,omitempty"`
	// Detectors selects the bug-family detectors by registry name.
	// Absent/null means every detector (the default).
	Detectors []string `json:"detectors,omitempty"`
	// Provenance records per-warning evidence (derivation trees, filter
	// verdicts, witnesses) served by the explain endpoints.
	Provenance bool `json:"provenance,omitempty"`
}

// Normalize fills defaults so that two requests meaning the same run
// produce identical cache keys. Detector sets are canonicalized (the
// full set collapses to the default nil); unknown names are left as-is
// here and rejected by Validate / the analysis itself.
func (o OptionsWire) Normalize() OptionsWire {
	if o.K <= 0 {
		o.K = 2
	}
	if !o.Validate {
		o.MaxSchedules = 0
	} else if o.MaxSchedules <= 0 {
		o.MaxSchedules = 3000
	}
	if ds, err := detect.Normalize(o.Detectors); err == nil {
		o.Detectors = ds
	}
	return o
}

// Check rejects options the pipeline would refuse, so the API can
// answer 400 before queuing a job.
func (o OptionsWire) Check() error {
	_, err := detect.Select(o.Detectors)
	return err
}

// ToOptions converts to the analysis option set.
func (o OptionsWire) ToOptions() nadroid.Options {
	o = o.Normalize()
	return nadroid.Options{
		K:                  o.K,
		SkipSoundFilters:   o.SkipSoundFilters,
		SkipUnsoundFilters: o.SkipUnsoundFilters,
		MultiLooper:        o.MultiLooper,
		Validate:           o.Validate,
		Explore:            explore.Options{MaxSchedules: o.MaxSchedules},
		Detectors:          o.Detectors,
		Provenance:         o.Provenance,
	}
}

// cacheKeyPart renders the normalized options canonically for hashing.
// The detector set participates so runs with different detector sets
// never collide; the default (all) renders nothing, keeping default
// keys identical to historical ones.
func (o OptionsWire) cacheKeyPart() string {
	o = o.Normalize()
	part := fmt.Sprintf("k=%d sound=%t unsound=%t multilooper=%t validate=%t budget=%d",
		o.K, o.SkipSoundFilters, o.SkipUnsoundFilters, o.MultiLooper, o.Validate, o.MaxSchedules)
	if o.Detectors != nil {
		part += " detectors=" + strings.Join(o.Detectors, ",")
	}
	// Appended only when set, keeping default keys identical to
	// historical ones (same pattern as the detector set above).
	if o.Provenance {
		part += " provenance=true"
	}
	return part
}

// AnalyzeRequest is the POST /v1/analyze body. Exactly one of App (a
// corpus app name) or Dexasm (dexasm source text) must be set.
type AnalyzeRequest struct {
	App       string      `json:"app,omitempty"`
	Dexasm    string      `json:"dexasm,omitempty"`
	Options   OptionsWire `json:"options"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// StatsWire is the filter-pipeline summary.
type StatsWire struct {
	Potential    int            `json:"potential"`
	AfterSound   int            `json:"after_sound"`
	AfterUnsound int            `json:"after_unsound"`
	RemovedBy    map[string]int `json:"removed_by,omitempty"`
	// Suppressed counts warnings a baseline hid from this result.
	Suppressed int `json:"suppressed,omitempty"`
}

// WarningWire is one surviving warning with its §7 review aids.
type WarningWire struct {
	// Fingerprint is the stable content-derived identity baselines and
	// run diffs key on.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Detector names the bug family for non-UAF warnings ("" = uaf, the
	// classic family, so historical payloads keep their shape).
	Detector    string `json:"detector,omitempty"`
	Field       string `json:"field"`
	Use         string `json:"use"`
	Free        string `json:"free"`
	Category    string `json:"category"`
	UseLineage  string `json:"use_lineage,omitempty"`
	FreeLineage string `json:"free_lineage,omitempty"`
	// Suppressed marks a warning whose fingerprint the app's baseline
	// covers: kept in the payload (so reviewers can audit), flagged so
	// clients can hide it.
	Suppressed bool `json:"suppressed,omitempty"`
}

// TimingWire is the per-phase wall-clock split in milliseconds.
type TimingWire struct {
	ModelingMS   float64 `json:"modeling_ms"`
	DetectionMS  float64 `json:"detection_ms"`
	FilteringMS  float64 `json:"filtering_ms"`
	ValidationMS float64 `json:"validation_ms,omitempty"`
	TotalMS      float64 `json:"total_ms"`
}

// ResultWire is the full analysis report: the POST /v1/analyze response
// body and the payload of a completed job.
type ResultWire struct {
	App      string        `json:"app"`
	Stats    StatsWire     `json:"stats"`
	Warnings []WarningWire `json:"warnings"`
	// Harmful lists the dynamically confirmed subset (validate runs only).
	Harmful []WarningWire `json:"harmful,omitempty"`
	Timing  TimingWire    `json:"timing"`
	// Cached is true when the result was served from the content cache.
	Cached bool `json:"cached,omitempty"`
	// Evidence maps fingerprints to provenance records (provenance runs
	// only); absent otherwise, so historical payloads are unchanged.
	Evidence map[string]*evidence.Evidence `json:"evidence,omitempty"`
}

// JobWire is the GET /v1/jobs/{id} response body.
type JobWire struct {
	ID     string      `json:"id"`
	State  string      `json:"state"` // queued | running | done | failed | canceled
	App    string      `json:"app,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *ResultWire `json:"result,omitempty"`
}

// RunWire is one GET /v1/apps/{app}/runs entry: the stored run's
// metadata without the (potentially large) payload.
type RunWire struct {
	ID        string    `json:"id"`
	App       string    `json:"app"`
	Options   string    `json:"options,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	Stats     StatsWire `json:"stats"`
	Warnings  int       `json:"warnings"`
}

// RunToWire summarizes a stored run for the runs listing.
func RunToWire(r *store.Run) RunWire {
	return RunWire{
		ID: r.ID, App: r.App, Options: r.Options, CreatedAt: r.CreatedAt,
		Stats: StatsWire{
			Potential:    r.Stats.Potential,
			AfterSound:   r.Stats.AfterSound,
			AfterUnsound: r.Stats.AfterUnsound,
		},
		Warnings: len(r.Warnings),
	}
}

// AppWire is one GET /v1/apps corpus entry.
type AppWire struct {
	Name  string `json:"name"`
	Group string `json:"group"`
	// TrueHarmful is the seeded ground-truth bug count.
	TrueHarmful int `json:"true_harmful"`
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// EncodeResult flattens an analysis result into the wire format.
func EncodeResult(app string, res *nadroid.Result) *ResultWire {
	out := &ResultWire{
		App: app,
		Stats: StatsWire{
			Potential:    res.Stats.Potential,
			AfterSound:   res.Stats.AfterSound,
			AfterUnsound: res.Stats.AfterUnsound,
		},
		Warnings: []WarningWire{},
		Timing: TimingWire{
			ModelingMS:   ms(res.Timing.Modeling),
			DetectionMS:  ms(res.Timing.Detection),
			FilteringMS:  ms(res.Timing.Filtering),
			ValidationMS: ms(res.Timing.Validation),
			TotalMS:      ms(res.Timing.Total()),
		},
	}
	if len(res.Stats.Removed) > 0 {
		out.Stats.RemovedBy = make(map[string]int, len(res.Stats.Removed))
		for k, v := range res.Stats.Removed {
			out.Stats.RemovedBy[k] = v
		}
	}
	byWarning := make(map[*uaf.Warning]WarningWire, len(res.Report.Entries))
	for _, e := range res.Report.Entries {
		w := WarningWire{
			Fingerprint: string(e.Fingerprint),
			Field:       e.Warning.Field.String(),
			Use:         e.Warning.Use.String(),
			Free:        e.Warning.Free.String(),
			Category:    e.Category.String(),
			UseLineage:  e.UseLineage,
			FreeLineage: e.FreeLineage,
		}
		out.Warnings = append(out.Warnings, w)
		byWarning[e.Warning] = w
	}
	// Non-UAF detector warnings ride along with the detector name set,
	// mirroring the report's Extras rows (subject in the field column,
	// site in the use column, detector-qualified tag as category).
	for _, x := range res.Report.Extras {
		out.Warnings = append(out.Warnings, WarningWire{
			Fingerprint: string(x.Fingerprint),
			Detector:    x.Detector,
			Field:       x.Subject,
			Use:         x.Site.String(),
			Free:        "-",
			Category:    x.Detector + ":" + x.Tag,
			UseLineage:  x.Lineage,
			FreeLineage: x.Detail,
		})
	}
	out.Evidence = res.Evidence
	for _, v := range res.Harmful {
		h := v.Warning
		if w, ok := byWarning[h]; ok {
			out.Harmful = append(out.Harmful, w)
		} else {
			// A validated warning should always be a report entry, but
			// degrade gracefully rather than drop it.
			out.Harmful = append(out.Harmful, WarningWire{
				Field: h.Field.String(), Use: h.Use.String(), Free: h.Free.String(),
			})
		}
	}
	return out
}

// StoreRun converts a fresh (pre-baseline) wire result into a store
// record addressed by the service's cache key, with the full result
// embedded as the payload so a restarted service can serve it without
// re-analyzing.
func StoreRun(key CacheKey, opts OptionsWire, res *ResultWire, now time.Time) (*store.Run, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	// Persist the enabled detector set explicitly (the default nil
	// expands to every registered name), so diffs can refuse to compare
	// runs produced by different detector pipelines.
	detectors := opts.Normalize().Detectors
	if detectors == nil {
		detectors = detect.Names()
	}
	r := &store.Run{
		ID: string(key), App: res.App, Options: opts.cacheKeyPart(), CreatedAt: now.UTC(),
		Detectors: detectors,
		Stats: store.Stats{
			Potential:    res.Stats.Potential,
			AfterSound:   res.Stats.AfterSound,
			AfterUnsound: res.Stats.AfterUnsound,
		},
		Warnings: make([]store.Warning, 0, len(res.Warnings)),
		Payload:  payload,
	}
	for _, w := range res.Warnings {
		r.Warnings = append(r.Warnings, store.Warning{
			Fingerprint: w.Fingerprint, Detector: w.Detector, Field: w.Field, Use: w.Use, Free: w.Free,
			Category: w.Category, UseLineage: w.UseLineage, FreeLineage: w.FreeLineage,
		})
	}
	if len(res.Evidence) > 0 {
		r.Evidence = make(map[string]json.RawMessage, len(res.Evidence))
		for fp, ev := range res.Evidence {
			raw, err := json.Marshal(ev)
			if err != nil {
				return nil, err
			}
			r.Evidence[fp] = raw
		}
	}
	return r, nil
}

// ApplyBaseline marks every warning the baseline covers as suppressed
// and records the count in the stats. Idempotent; returns how many
// warnings are suppressed. Stored runs stay pristine — suppression is
// applied at serve time so baseline edits take effect without
// re-analysis.
func ApplyBaseline(res *ResultWire, base *store.Baseline) int {
	n := 0
	for i := range res.Warnings {
		res.Warnings[i].Suppressed = base.Has(res.Warnings[i].Fingerprint)
		if res.Warnings[i].Suppressed {
			n++
		}
	}
	res.Stats.Suppressed = n
	return n
}
