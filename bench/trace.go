package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nadroid/internal/apk"
	"nadroid/internal/detect"
	"nadroid/internal/dexasm"
	"nadroid/internal/escape"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/hb"
	"nadroid/internal/incr"
	"nadroid/internal/ircache"
	"nadroid/internal/obs"
	"nadroid/internal/pointsto"
	"nadroid/internal/race"
	"nadroid/internal/report"
	"nadroid/internal/threadify"
)

// The traced run times each layer from outside the program: after the
// real op (nadroid.AnalyzeSource, timed as the op), replay re-runs the
// same app through the public entry point of every layer the op passes
// through, timing each call. op.unattributed_ms is the op's time minus
// the top-level layer calls — the work outside timing cannot reach yet,
// such as the witness replay inside validation and the incremental
// preparation. Nested calls (the points-to solve inside threadify.Build,
// the MHB graph inside detect.BuildContext) are timed as separate extra
// calls and are not part of that sum.

// counters maps per-layer metrics to the pipeline counters the real op
// already emits.
var counters = map[string]string{
	"explore.schedules_executed":   "validation_schedules_executed",
	"explore.schedules_pruned":     "validation_schedules_pruned",
	"store.witness_hits":           "validation_witness_cache_hits",
	"incr.methods_changed":         "incr_methods_changed",
	"incr.facts_retracted":         "incr_facts_retracted",
	"incr.facts_asserted":          "incr_facts_asserted",
	"incr.pointsto_nodes_resolved": "incr_pointsto_nodes_resolved",
	"incr.partition_skips":         "incr_partition_skips",
}

// samples holds per-app samples of a traced run: metric -> app -> one
// value per op. Names starting with "_" feed the ratio metrics and are
// not reported themselves.
type samples map[string]map[string][]float64

func (t samples) add(name, app string, v float64) {
	if t[name] == nil {
		t[name] = make(map[string][]float64)
	}
	t[name][app] = append(t[name][app], v)
}

// traceOp records one traced op: the layer replay, then its counters.
func (t samples) traceOp(s *state, o *op, opMS float64, m *obs.Metrics) error {
	l := &layers{vals: make(map[string]float64)}
	if err := l.replay(s, o); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	for name, counter := range counters {
		l.vals[name] = float64(m.Get(counter))
	}
	l.vals["op.unattributed_ms"] = opMS - l.top
	l.vals["_op.traced_ms"] = opMS
	for _, d := range perLayer {
		if _, derived := ratios[d.name]; !derived {
			t.add(d.name, o.app, l.vals[d.name])
		}
	}
	for name, v := range l.vals {
		if name[0] == '_' {
			t.add(name, o.app, v)
		}
	}
	return nil
}

// ratio is a per-layer metric derived from two summed components; a
// zero denominator reports 0.
type ratio struct {
	num, den string
	scale    float64
}

var ratios = map[string]ratio{
	"filters.survival":      {"_filters.after_unsound", "_filters.potential", 1},
	"explore.witness_ratio": {"_explore.harmful", "_explore.validated", 1},
	"trace.overhead_pct":    {"_op.overhead_ms", "_op.untraced_ms", 100},
}

// report reduces the samples to the declared per-layer metrics.
func (t samples) report(out *outcome) {
	sums := sumOfMedians(t)
	sums["_op.overhead_ms"] = layerStat{Value: sums["_op.traced_ms"].Value - sums["_op.untraced_ms"].Value}
	for _, d := range perLayer {
		st := sums[d.name]
		if r, ok := ratios[d.name]; ok {
			st = layerStat{}
			if den := sums[r.den].Value; den != 0 {
				st.Value = r.scale * sums[r.num].Value / den
			}
			st.Min, st.Max = st.Value, st.Value
		}
		lo, hi := st.Min, st.Max
		out.Metrics[d.name] = reported{Value: st.Value, Unit: d.unit, Min: &lo, Max: &hi}
	}
}

// layers accumulates one replay: per-layer figures and the summed time
// of the top-level layer calls.
type layers struct {
	vals map[string]float64
	top  float64
}

type level int

const (
	topLevel level = iota // a step of the op; summed against op time
	nested                // an extra call inside a top-level step
)

// time runs fn as the layer called name, adding its wall time (and,
// with mb, the bytes it allocated) to the layer's figures.
func (l *layers) time(name string, kind level, mb bool, fn func() error) error {
	a0 := allocBytes()
	t0 := time.Now()
	err := fn()
	d := msSince(t0)
	a1 := allocBytes()
	l.vals[name+"_ms"] += d
	if mb {
		l.vals[name+"_mb"] += bytesToMB(a1 - a0)
	}
	if kind == topLevel {
		l.top += d
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// replay runs the op's layers one public call at a time and checks the
// rebuilt report against the goldens, so the replay is known to do the
// op's work.
func (l *layers) replay(s *state, o *op) error {
	ctx := context.Background()
	w := s.w
	var (
		pkg      *apk.Package
		model    *threadify.Model
		esc      *escape.Result
		accesses []race.Access
	)
	if w.stored && !w.edit {
		// Warm: the cold-start blob stands in for parsing, modeling and
		// the escape solve.
		err := l.time("ircache.load", topLevel, false, func() error {
			blob, ok := s.st.GetIRCache(ircache.Name(o.digest, k))
			if !ok {
				return errors.New("cold-start blob missing")
			}
			l.vals["ircache.blob_kb"] = float64(len(blob)) / 1e3
			dec, err := ircache.Decode(blob)
			if err != nil {
				return err
			}
			pkg, model, esc = dec.Pkg, dec.Model, dec.Escape
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		err := l.time("dexasm.parse", topLevel, false, func() (err error) {
			pkg, err = dexasm.Parse(o.src)
			return err
		})
		if err != nil {
			return err
		}
		if w.edit {
			var base *incr.Partition
			err := l.time("incr.decode", topLevel, false, func() (err error) {
				blob, ok := s.st.GetIncr(incr.Name(o.baseDigest, k))
				if !ok {
					return errors.New("base partition missing")
				}
				base, err = incr.Decode(blob)
				return err
			})
			if err != nil {
				return err
			}
			l.time("incr.digest", topLevel, false, func() error {
				incr.DiffMethods(base.Methods, incr.MethodDigests(pkg.Program))
				return nil
			})
		}
		err = l.time("threadify.build", topLevel, true, func() (err error) {
			model, err = threadify.Build(pkg, threadify.Options{})
			return err
		})
		if err != nil {
			return err
		}
		l.vals["threadify.threads"] = float64(len(model.Threads))
		err = l.time("pointsto.solve", nested, false, func() error {
			si, err := threadify.PrepareSolve(pkg, threadify.Options{})
			if err != nil {
				return err
			}
			st := pointsto.SolveWithSynthetics(si.H, si.Synths, si.Entries, si.Opts).Stats()
			l.vals["pointsto.iterations"] = float64(st.Iterations)
			l.vals["pointsto.var_facts"] = float64(st.VarFacts)
			return nil
		})
		if err != nil {
			return err
		}
	}

	if w.edit {
		// The incremental op assembles escape facts and accesses from the
		// base partition inside its preparation step, which has no public
		// entry point. The replay takes both from one cold computation
		// per app made outside the timed calls.
		in, ok := s.cold[o.app]
		if !ok {
			in = coldInputs{escape.AnalyzeWith(model, escape.Options{}), race.CollectAccesses(model)}
			s.cold[o.app] = in
		}
		esc, accesses = in.esc, in.accesses
	} else {
		l.time("race.collect", topLevel, false, func() error {
			accesses = race.CollectAccesses(model)
			return nil
		})
		l.vals["race.accesses"] = float64(len(accesses))
	}
	if esc == nil {
		l.time("escape.analyze", topLevel, true, func() error {
			esc = escape.AnalyzeWith(model, escape.Options{})
			return nil
		})
		_, reachers, escaped := esc.Snapshot()
		for i := range reachers {
			l.vals["escape.reach_rows"] += float64(reachers[i])
			if escaped[i] {
				l.vals["escape.escaped_objs"]++
			}
		}
	}

	l.time("hb.build", nested, false, func() error {
		hb.BuildMHB(model)
		return nil
	})
	var dc *detect.Context
	l.time("detect.context", topLevel, true, func() error {
		dc = detect.BuildContext(ctx, pkg.Name, model, detect.Options{Escape: esc, Accesses: accesses})
		return nil
	})
	l.vals["datalog.facts"] = float64(dc.Engine.Stats().Facts)
	var extras []detect.Warning
	for _, d := range detect.All() {
		err := l.time("detect."+d.Name(), topLevel, d.Name() == "uaf", func() error {
			res, err := detect.Run(ctx, dc, []detect.Detector{d})
			if err == nil {
				extras = append(extras, res.Warnings...)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	l.vals["uaf.potential"] = float64(dc.UAF.AliveCount())

	var fst *filters.Stats
	l.time("filters.run", topLevel, false, func() error {
		fst = filters.RunWith(ctx, dc.UAF, filters.RunConfig{MHB: dc.MHB})
		return nil
	})
	l.vals["_filters.potential"] = float64(fst.Potential)
	l.vals["_filters.after_unsound"] = float64(fst.AfterUnsound)
	var rep *report.Report
	l.time("report.new", topLevel, false, func() error {
		rep = report.New(pkg.Name, dc.UAF)
		for _, x := range extras {
			rep.Extras = append(rep.Extras, report.Extra{Detector: x.Detector, Tag: x.Tag, Subject: x.Subject,
				Site: x.Site, Lineage: x.Lineage, Detail: x.Detail, Fingerprint: x.Fingerprint})
		}
		return nil
	})
	if err := checkReport(o.want, rep); err != nil {
		return err
	}

	if !w.validate {
		return nil
	}
	var conflicts *explore.Conflicts
	l.time("explore.conflicts", topLevel, false, func() error {
		conflicts = explore.NewConflicts(model, dc.Accesses)
		return nil
	})
	if w.stored {
		// Warm validation replays the witness cache inside the op; it
		// has no public entry point to time.
		return nil
	}
	var vals []explore.Validation
	err := l.time("explore.validate", topLevel, true, func() (err error) {
		vals, err = explore.ValidateAllDetailed(ctx, pkg, model, dc.UAF.Alive(),
			explore.Options{MaxSchedules: 3000, Conflicts: conflicts})
		return err
	})
	if err != nil {
		return err
	}
	harmful := 0
	for _, v := range vals {
		if v.Harmful {
			harmful++
		}
	}
	l.vals["_explore.harmful"] = float64(harmful)
	l.vals["_explore.validated"] = float64(len(vals))
	if harmful != o.want.harmful {
		return fmt.Errorf("replayed validation found %d harmful, want %d", harmful, o.want.harmful)
	}
	return nil
}
