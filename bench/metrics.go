package main

// metricDecl declares one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions; the test
// suite keeps the two in step.
type metricDecl struct {
	name, unit, better string
	// moves names the end-to-end metrics and workloads a change to this
	// layer should show up in (per-layer metrics only).
	moves []move
}

type move struct{ metric, workload string }

// on builds the moves of one end-to-end metric across workloads.
func on(metric string, workloads ...string) []move {
	out := make([]move, len(workloads))
	for i, w := range workloads {
		out[i] = move{metric, w}
	}
	return out
}

func join(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

const (
	wCold     = "cold-sweep"
	wValidate = "validate-small"
	wWarm     = "warm-audit"
	wEdit     = "edit-sweep"
)

var allWorkloads = []string{wCold, wValidate, wWarm, wEdit}

// endToEnd are reported by the untraced run (-trace 0).
var endToEnd = []metricDecl{
	{name: "sweep_ms", unit: "ms", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p95_ms", unit: "ms", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are reported by the traced run (-trace 1). Each is timed or
// counted from outside the program, around the layer's public entry
// point (see trace.go), or read from the pipeline's existing counters.
var perLayer = []metricDecl{
	{"dexasm.parse_ms", "ms", "lower", on("op_p50_ms", wCold, wEdit)},

	{"threadify.build_ms", "ms", "lower", on("op_p50_ms", wCold)},
	{"threadify.build_mb", "MB", "lower", join(on("op_p50_ms", wCold), on("alloc_mb", wCold))},
	{"threadify.threads", "count", "lower", on("op_p50_ms", wCold)},
	{"pointsto.solve_ms", "ms", "lower", on("op_p50_ms", wCold)},
	{"pointsto.iterations", "count", "lower", on("op_p50_ms", wCold)},
	{"pointsto.var_facts", "count", "lower", on("op_p50_ms", wCold)},

	{"race.collect_ms", "ms", "lower", on("sweep_ms", wWarm)},
	{"race.accesses", "count", "lower", on("sweep_ms", wWarm)},

	{"escape.analyze_ms", "ms", "lower", join(on("sweep_ms", wCold, wValidate), on("op_p95_ms", wCold))},
	{"escape.analyze_mb", "MB", "lower", join(on("sweep_ms", wCold), on("alloc_mb", wCold))},
	{"escape.reach_rows", "count", "lower", on("sweep_ms", wCold)},
	{"escape.escaped_objs", "count", "lower", on("sweep_ms", wCold)},

	{"hb.build_ms", "ms", "lower", on("sweep_ms", wWarm)},
	{"detect.context_ms", "ms", "lower", on("sweep_ms", wWarm)},
	{"detect.context_mb", "MB", "lower", join(on("sweep_ms", wWarm), on("alloc_mb", wWarm))},
	{"datalog.facts", "count", "lower", on("sweep_ms", wWarm)},
	{"detect.uaf_ms", "ms", "lower", on("sweep_ms", wWarm)},
	{"detect.uaf_mb", "MB", "lower", join(on("sweep_ms", wWarm), on("alloc_mb", wWarm))},
	{"uaf.potential", "count", "lower", on("sweep_ms", wWarm)},
	{"detect.nosleep_ms", "ms", "lower", on("sweep_ms", wWarm)},
	{"detect.leaked-thread_ms", "ms", "lower", on("sweep_ms", wWarm)},
	{"detect.lost-result_ms", "ms", "lower", on("sweep_ms", wWarm)},

	{"filters.run_ms", "ms", "lower", on("op_p50_ms", allWorkloads...)},
	{"filters.survival", "ratio", "lower", on("op_p50_ms", allWorkloads...)},
	{"report.new_ms", "ms", "lower", on("op_p50_ms", allWorkloads...)},

	{"explore.conflicts_ms", "ms", "lower", on("sweep_ms", wValidate)},
	{"explore.validate_ms", "ms", "lower", on("sweep_ms", wValidate)},
	{"explore.validate_mb", "MB", "lower", join(on("sweep_ms", wValidate), on("alloc_mb", wValidate))},
	{"explore.witness_ratio", "ratio", "higher", on("sweep_ms", wValidate)},
	{"explore.schedules_executed", "count", "lower", on("sweep_ms", wValidate)},
	{"explore.schedules_pruned", "count", "higher", on("sweep_ms", wValidate)},

	{"ircache.load_ms", "ms", "lower", join(on("sweep_ms", wWarm), on("setup_s", wWarm, wEdit))},
	{"ircache.blob_kb", "kB", "lower", join(on("sweep_ms", wWarm), on("setup_s", wWarm, wEdit))},
	{"store.witness_hits", "count", "higher", join(on("sweep_ms", wWarm), on("setup_s", wWarm, wEdit))},

	{"incr.digest_ms", "ms", "lower", on("sweep_ms", wEdit)},
	{"incr.decode_ms", "ms", "lower", on("sweep_ms", wEdit)},
	{"incr.methods_changed", "count", "lower", on("sweep_ms", wEdit)},
	{"incr.facts_retracted", "count", "lower", on("sweep_ms", wEdit)},
	{"incr.facts_asserted", "count", "lower", on("sweep_ms", wEdit)},
	{"incr.pointsto_nodes_resolved", "count", "lower", on("sweep_ms", wEdit)},
	{"incr.partition_skips", "count", "lower", on("sweep_ms", wEdit)},

	{"op.unattributed_ms", "ms", "lower", on("sweep_ms", allWorkloads...)},
	{"trace.overhead_pct", "%", "lower", on("sweep_ms", allWorkloads...)},
}

// unitOf returns a declared metric's unit.
func unitOf(name string) string {
	for _, ds := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range ds {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
