package detect

import (
	"context"
	"fmt"

	"nadroid/internal/nosleep"
	"nadroid/internal/obs"
	"nadroid/internal/uaf"
)

// Results bundles one detector-pipeline run over a shared context.
type Results struct {
	// Enabled lists the detectors that ran, in canonical order.
	Enabled []string
	// UAF is the structured use-after-free detection (nil when the uaf
	// detector was disabled).
	UAF *uaf.Detection
	// NoSleep is the structured no-sleep result (nil when disabled).
	NoSleep *nosleep.Result
	// Warnings are the generic warnings of the non-structured families,
	// in detector order.
	Warnings []Warning
	// Counts maps detector name to the number of warnings it produced.
	Counts map[string]int
}

// counter lets a structured-result detector report its warning count
// (generic detectors are counted by the warnings they return).
type counter interface {
	count(dc *Context) int
}

// Run executes the selected detectors, in canonical order, against one
// shared context. Each detector runs under a "detect:<name>" span and
// lands its warning count in the "detector_warnings{detector=…}"
// pipeline counter. Detectors run sequentially, so per-detector phases
// keep timings attributable and a detector may set its structured
// result on the shared context.
func Run(ctx context.Context, dc *Context, ds []Detector) (*Results, error) {
	res := &Results{Counts: make(map[string]int, len(ds))}
	for _, d := range ds {
		name := d.Name()
		res.Enabled = append(res.Enabled, name)
		dctx, span := obs.Start(ctx, "detect:"+name)
		ws, err := d.Detect(dctx, dc)
		if err != nil {
			span.End()
			return nil, fmt.Errorf("detector %s: %w", name, err)
		}
		n := len(ws)
		if c, ok := d.(counter); ok {
			n = c.count(dc)
		}
		span.SetAttr("warnings", n)
		span.End()
		res.Counts[name] = n
		obs.Add(ctx, fmt.Sprintf("detector_warnings{detector=%q}", name), int64(n))
		res.Warnings = append(res.Warnings, ws...)
	}
	res.UAF = dc.UAF
	res.NoSleep = dc.NoSleep
	return res, nil
}
