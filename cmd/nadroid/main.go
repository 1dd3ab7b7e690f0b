// Command nadroid analyzes one application package — a .dexasm file or a
// built-in corpus app — and reports potential use-after-free ordering
// violations, mirroring the paper's tool: model (threadify), detect
// (Chord-style race detection), filter (§6), and optionally validate
// survivors with the schedule explorer.
//
// Usage:
//
//	nadroid [flags] app.dexasm
//	nadroid [flags] -app ConnectBot
//	nadroid -list
//	nadroid -dump ConnectBot > connectbot.dexasm
//
// Triage subcommands (see triage.go): analyses persisted with
// -store-dir accumulate a per-app history that `nadroid diff` compares
// by stable warning fingerprint and `nadroid baseline write` marks as
// reviewed:
//
//	nadroid -store-dir .nadroid-store -app ConnectBot
//	nadroid baseline write -store-dir .nadroid-store -app ConnectBot
//	nadroid diff -store-dir .nadroid-store -app ConnectBot
//
// Analyses run with -provenance additionally persist per-warning
// evidence records (Datalog derivation, aliasing chain, filter trail,
// validation witness) that `nadroid explain FINGERPRINT` renders
// (see explain.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"nadroid"
	"nadroid/internal/apk"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/deva"
	"nadroid/internal/dexasm"
	"nadroid/internal/dynrace"
	"nadroid/internal/explore"
	"nadroid/internal/interp"
	"nadroid/internal/nosleep"
	"nadroid/internal/obs"
	"nadroid/internal/server"
	"nadroid/internal/store"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			runDiff(os.Args[2:])
			return
		case "baseline":
			runBaseline(os.Args[2:])
			return
		case "explain":
			runExplain(os.Args[2:])
			return
		}
	}
	var (
		appName   = flag.String("app", "", "analyze a built-in corpus app by name")
		corpusAll = flag.Bool("corpus", false, "analyze every built-in corpus app (fan-out bounded by -workers)")
		list      = flag.Bool("list", false, "list built-in corpus apps and exit")
		dump      = flag.String("dump", "", "print a corpus app as dexasm and exit")
		k         = flag.Int("k", 2, "points-to object-sensitivity depth")
		validate  = flag.Bool("validate", false, "dynamically validate surviving warnings (schedule exploration)")
		budget    = flag.Int("budget", 3000, "schedule budget per warning when validating")
		noUnsound = flag.Bool("sound-only", false, "apply only the sound filters (MHB, IG, IA)")
		csv       = flag.Bool("csv", false, "emit the report as CSV (ResultAnalysis.csv rows)")
		jsonOut   = flag.Bool("json", false, "emit the report and timing as JSON (the nadroid-serve wire format)")
		explain   = flag.Bool("explain", false, "with -validate: replay each witness as an event narrative")
		noSleep   = flag.Bool("nosleep", false, "also run the §9 no-sleep energy-bug detector")
		detFlag   = flag.String("detectors", "", "comma-separated detector names to run (default: all; see -list-detectors)")
		detList   = flag.Bool("list-detectors", false, "list registered bug-family detectors and exit")
		devaMode  = flag.Bool("deva", false, "run the DEvA baseline instead of nAdroid")
		dynMode   = flag.Bool("dynamic", false, "run the trace-based dynamic detector (one default-schedule execution)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of the run to FILE (chrome://tracing)")
		traceTree = flag.Bool("tracetree", false, "print the span tree to stderr after the run")
		verbose   = flag.Bool("v", false, "structured phase logging to stderr")
		workers   = flag.Int("workers", 0, "warnings validated concurrently with -validate; with -corpus, apps analyzed concurrently (0 = GOMAXPROCS, 1 = sequential)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to FILE (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile after the run to FILE (go tool pprof)")
		provOn    = flag.Bool("provenance", false, "record warning provenance (derivations, filter trails); explore with `nadroid explain`")
		storeDir  = flag.String("store-dir", "", "persist this analysis into a run store (enables `nadroid diff` / `baseline write`)")
		irCache   = flag.Bool("ir-cache", true, "with -store-dir: reuse cached IR/model blobs across runs (witness outcomes are cached whenever -store-dir is set)")
		increm    = flag.Bool("incremental", true, "with -store-dir: on a cache miss, diff against the nearest stored run and re-analyze only what changed")
		baseFile  = flag.String("baseline", "", "suppress warnings listed in this baseline file (see `baseline write -o`)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("creating %s: %v", *cpuProf, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatalf("creating %s: %v", *memProf, err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("writing heap profile: %v", err)
			}
		}()
	}

	if *list {
		for _, name := range corpus.Names() {
			fmt.Println(name)
		}
		return
	}
	if *detList {
		for _, d := range detect.All() {
			fmt.Printf("%-14s %s\n", d.Name(), d.Describe())
		}
		return
	}
	detectors := splitDetectors(*detFlag)
	if _, err := detect.Select(detectors); err != nil {
		fatalf("%v", err)
	}
	if *dump != "" {
		app, ok := corpus.ByName(*dump)
		if !ok {
			fatalf("unknown corpus app %q (use -list)", *dump)
		}
		fmt.Print(dexasm.Format(app.Build()))
		return
	}

	if *corpusAll {
		runCorpus(nadroid.CorpusOptions{
			Workers: *workers,
			Analysis: nadroid.Options{
				K:                  *k,
				SkipUnsoundFilters: *noUnsound,
				Validate:           *validate,
				Explore:            explore.Options{MaxSchedules: *budget},
				Detectors:          detectors,
				Provenance:         *provOn,
				IRCache:            *irCache,
				Incremental:        *increm,
			},
		}, *csv, *storeDir, server.OptionsWire{
			K: *k, SkipUnsoundFilters: *noUnsound, Validate: *validate, MaxSchedules: *budget,
			Detectors: detectors, Provenance: *provOn,
		})
		return
	}

	pkg, err := loadPackage(*appName, flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}

	if *devaMode {
		anomalies := deva.Analyze(pkg)
		fmt.Printf("DEvA: %d event anomalies (intra-class, no HB, no threads)\n", len(anomalies))
		fmt.Print(deva.Summary(anomalies))
		return
	}
	if *dynMode {
		w := interp.NewWorld(pkg, cha.New(pkg.Program), interp.Options{Record: true})
		interp.Run(w, nil)
		races := dynrace.Analyze(w.Recorded(), dynrace.Options{UseFreeOnly: true})
		fmt.Printf("dynamic (single default-schedule trace): %d use/free races\n", len(races))
		for _, r := range races {
			fmt.Printf("  %s: use %s (%s) vs free %s (%s)\n", r.Field, r.Use, r.UseTask, r.Free, r.FreeTask)
		}
		return
	}

	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" || *traceTree {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
		ctx = obs.WithMetrics(ctx, obs.NewMetrics())
	}
	if *verbose {
		ctx = obs.WithLogger(ctx, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}

	aopts := nadroid.Options{
		K:                  *k,
		SkipUnsoundFilters: *noUnsound,
		Validate:           *validate,
		Explore:            explore.Options{MaxSchedules: *budget},
		Workers:            *workers,
		Detectors:          detectors,
		Provenance:         *provOn,
	}
	// Open the store before analysis so warm runs can reuse cached IR
	// blobs and witness outcomes instead of re-modeling and re-exploring.
	// Only the store reads the canonical rendering: the IR digest and the
	// stored run are keyed by it.
	var st *store.Store
	var canonical string
	if *storeDir != "" {
		canonical = dexasm.Format(pkg)
		st = mustOpenStore(*storeDir)
		aopts.Store = st
		aopts.IRCache = *irCache
		aopts.Incremental = *increm
		aopts.IRDigest = store.IRDigest(canonical)
	}
	res, err := nadroid.AnalyzeContext(ctx, pkg, aopts)
	if err != nil {
		fatalf("analyze: %v", err)
	}

	if *traceOut != "" {
		data, err := tracer.ChromeTrace()
		if err != nil {
			fatalf("encoding trace: %v", err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "nadroid: wrote %d spans to %s\n", tracer.SpanCount(), *traceOut)
	}
	if *traceTree {
		fmt.Fprint(os.Stderr, tracer.Tree())
	}

	optsWire := server.OptionsWire{
		K: *k, SkipUnsoundFilters: *noUnsound, Validate: *validate, MaxSchedules: *budget,
		Detectors: detectors, Provenance: *provOn,
	}
	if st != nil {
		// Persist the pristine result (before any baseline suppression):
		// stored history stays reviewable even as baselines evolve.
		key := persistResult(st, canonical, aopts.IRDigest, optsWire, server.EncodeResult(pkg.Name, res))
		fmt.Fprintf(os.Stderr, "nadroid: stored run %s in %s (cache=%s)\n", shortID(key), *storeDir, res.Disposition)
	}
	var base *store.Baseline
	if *baseFile != "" {
		base = loadBaselineFile(*baseFile)
	}

	if *jsonOut {
		out := server.EncodeResult(pkg.Name, res)
		if base != nil {
			// JSON keeps suppressed warnings, flagged, for machine consumers.
			server.ApplyBaseline(out, base)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("encode: %v", err)
		}
		return
	}
	hidden := suppressEntries(res, base)
	if *csv {
		if *provOn {
			// Provenance mode adds the ninth evidence-summary column; the
			// classic 8-column schema is untouched otherwise.
			fmt.Print(res.Report.CSVWithEvidence(res.Evidence))
		} else {
			fmt.Print(res.Report.CSV())
		}
	} else {
		st := res.Model.Stats()
		fmt.Printf("%s: %d EC, %d PC, %d threads modeled\n", pkg.Name, st.EC, st.PC, st.T)
		fmt.Printf("potential UAFs: %d; after sound filters: %d; after unsound filters: %d\n",
			res.Stats.Potential, res.Stats.AfterSound, res.Stats.AfterUnsound)
		fmt.Print(res.Report)
		if hidden > 0 {
			fmt.Printf("suppressed %d baselined warning(s) via %s\n", hidden, *baseFile)
		}
	}
	if *validate {
		fmt.Printf("validated harmful: %d\n", len(res.Harmful))
		for _, v := range res.Harmful {
			w := v.Warning
			fmt.Printf("  HARMFUL %s (use %s, free %s)\n", w.Field, w.Use, w.Free)
			if *explain {
				for _, line := range explore.Replay(pkg, res.Model, w, v.Witness, explore.Options{MaxSchedules: *budget}) {
					fmt.Printf("      %s\n", line)
				}
			}
		}
	}
	if *noSleep {
		// The detector pipeline already ran nosleep when it was enabled;
		// reuse that result rather than re-deriving the MHB graph.
		ns := res.Detect.NoSleep
		if ns == nil {
			ns = nosleep.Detect(res.Model)
		}
		fmt.Printf("no-sleep warnings: %d (%d acquire sites, %d release sites)\n",
			len(ns.Warnings), len(ns.Acquires), len(ns.Releases))
		for _, w := range ns.Warnings {
			fmt.Printf("  %s\n", w)
		}
	}
	fmt.Printf("timing: modeling %v, detection %v, filtering %v\n",
		res.Timing.Modeling, res.Timing.Detection, res.Timing.Filtering)
}

// runCorpus sweeps every built-in corpus app through the pipeline on a
// bounded worker pool and prints one summary line per app (corpus
// order) plus the Table 1 aggregate counts. With a store directory,
// every app's run is persisted for later diffing.
func runCorpus(opts nadroid.CorpusOptions, csv bool, storeDir string, optsWire server.OptionsWire) {
	var st *store.Store
	if storeDir != "" {
		st = mustOpenStore(storeDir)
		opts.Analysis.Store = st
	}
	var work []nadroid.CorpusApp
	for _, app := range corpus.Apps() {
		work = append(work, nadroid.CorpusApp{Name: app.Name(), Build: app.Build})
	}
	results := nadroid.AnalyzeCorpus(work, opts)
	var pot, sound, unsound, harmful int
	for _, r := range results {
		if r.Err != nil {
			fatalf("%s: %v", r.App, r.Err)
		}
		if st != nil {
			persistResult(st, r.Canonical, r.IRDigest, optsWire, server.EncodeResult(r.App, r.Result))
		}
		if csv {
			fmt.Print(r.Result.Report.CSV())
			continue
		}
		fmt.Printf("%-14s potential %4d  after-sound %4d  after-unsound %4d",
			r.App, r.Result.Stats.Potential, r.Result.Stats.AfterSound, r.Result.Stats.AfterUnsound)
		if opts.Analysis.Validate {
			fmt.Printf("  harmful %d", len(r.Result.Harmful))
		}
		if st != nil {
			fmt.Printf("  cache=%s", r.Result.Disposition)
		}
		fmt.Println()
		pot += r.Result.Stats.Potential
		sound += r.Result.Stats.AfterSound
		unsound += r.Result.Stats.AfterUnsound
		harmful += len(r.Result.Harmful)
	}
	if !csv {
		fmt.Printf("%-14s potential %4d  after-sound %4d  after-unsound %4d",
			"TOTAL", pot, sound, unsound)
		if opts.Analysis.Validate {
			fmt.Printf("  harmful %d", harmful)
		}
		fmt.Println()
	}
}

func loadPackage(appName, path string) (*apk.Package, error) {
	switch {
	case appName != "":
		app, ok := corpus.ByName(appName)
		if !ok {
			return nil, fmt.Errorf("unknown corpus app %q (use -list)", appName)
		}
		return app.Build(), nil
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return dexasm.Parse(string(data))
	default:
		return nil, fmt.Errorf("nothing to analyze: pass a .dexasm file or -app NAME")
	}
}

// splitDetectors parses the -detectors CSV; an empty flag means the
// default (nil = every detector).
func splitDetectors(csv string) []string {
	if csv == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	if out == nil {
		out = []string{} // "-detectors ," means an explicitly empty set: rejected
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nadroid: "+format+"\n", args...)
	os.Exit(1)
}
