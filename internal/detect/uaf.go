package detect

import (
	"context"

	"nadroid/internal/obs"
	"nadroid/internal/race"
	"nadroid/internal/uaf"
)

// uafDetector is the classic §5 use-after-free family ported onto the
// registry. It probes the context's Racy join for the racy (use, free)
// pairs and groups them into uaf.Warnings on the context,
// so the §6 filters and §7 report consume exactly the structures they
// always have.
type uafDetector struct{}

func (uafDetector) Name() string { return "uaf" }

func (uafDetector) Describe() string {
	return "use-after-free ordering violations: racy (use, free-null) field pairs (§5)"
}

func (uafDetector) count(dc *Context) int {
	if dc.UAF == nil {
		return 0
	}
	return len(dc.UAF.Warnings)
}

func (uafDetector) Detect(ctx context.Context, dc *Context) ([]Warning, error) {
	_, span := obs.Start(ctx, "race.pair")
	pairs := dc.Engine.Pairs()
	span.SetAttr("pairs", len(pairs))
	span.End()
	obs.Add(ctx, "race_pairs", int64(len(pairs)))

	rr := &race.Result{Accesses: dc.Accesses, Pairs: pairs}
	_, span = obs.Start(ctx, "uaf.group")
	d := uaf.Group(dc.Model, rr)
	tp := 0
	for _, w := range d.Warnings {
		tp += len(w.Pairs)
	}
	span.SetAttr("warnings", len(d.Warnings))
	span.SetAttr("thread_pairs", tp)
	span.End()
	obs.Add(ctx, "uaf_warnings", int64(len(d.Warnings)))
	obs.Add(ctx, "uaf_thread_pairs", int64(tp))

	dc.UAF = d
	return nil, nil
}
