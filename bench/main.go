// Command bench is the repository benchmark: four closed-loop corpus
// workloads driven through the public nadroid API, with every op's
// output checked against testdata/golden. See README.md.
//
// Run from the repository root:
//
//	bash bench/run.sh [-workload NAMES] [-seconds N] [-seed N] [-trace 0|1] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		names   = flag.String("workload", strings.Join(allWorkloads, ","), "comma-separated workloads to run")
		seconds = flag.Int("seconds", 20, "length of the measured window per workload, in seconds")
		seed    = flag.Int64("seed", 1, "seeds each sweep's app order and each app's edited method")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
		outFile = flag.String("out", "", "also write the full results (per-layer min/max, failures, edits) as JSON to FILE")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var ws []workload
	for _, n := range strings.Split(*names, ",") {
		w, ok := workloadByName(n)
		if !ok {
			fatalf("unknown workload %q (have %s)", n, strings.Join(allWorkloads, ", "))
		}
		ws = append(ws, w)
	}

	// One P: on a host with few shared cores, parallel runs of the
	// pipeline are noisier than the scaling they would show.
	runtime.GOMAXPROCS(1)
	goldens, err := loadGoldens("testdata/golden")
	if err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	cfg := &config{window: time.Duration(*seconds) * time.Second, seed: *seed, trace: *trace == 1,
		setupReps: 3, goldens: goldens}

	hdr := header{Seed: *seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seconds: *seconds, Trace: *trace}
	fmt.Printf("# nadroid bench: seed=%d go=%s gomaxprocs=%d nproc=%d seconds=%d trace=%d\n",
		hdr.Seed, hdr.GoVersion, hdr.GOMAXPROCS, hdr.NProc, hdr.Seconds, hdr.Trace)
	var outs []*outcome
	for _, w := range ws {
		o, err := cfg.run(w)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printOutcome(o)
		outs = append(outs, o)
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(struct {
			Header    header     `json:"header"`
			Workloads []*outcome `json:"workloads"`
		}{hdr, outs}, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *outFile, err)
		}
	}
	correct := true
	for _, o := range outs {
		line, err := json.Marshal(summary(o))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		correct = correct && o.Failed == 0
	}
	if !correct {
		os.Exit(1)
	}
}

type header struct {
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line result of a workload, printed last.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func summary(o *outcome) resultLine {
	m := make(map[string]valueUnit, len(o.Metrics))
	for name, r := range o.Metrics {
		m[name] = valueUnit{r.Value, r.Unit}
	}
	return resultLine{o.Failed == 0, o.Ops, o.Failed, m}
}

func printOutcome(o *outcome) {
	frac := 0.0
	if o.Ops > 0 {
		frac = float64(o.Failed) / float64(o.Ops)
	}
	fmt.Printf("workload %s: %d sweeps, %d ops, %d failed (failed_frac %g)\n", o.Workload, o.Sweeps, o.Ops, o.Failed, frac)
	for _, f := range o.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := o.Metrics[n]
		fmt.Printf("  %-30s %14.4f %s\n", n, r.Value, r.Unit)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
