// triage.go implements the warning-triage subcommands and the analyze
// flow's store/baseline hooks:
//
//	nadroid diff     -store-dir DIR -app NAME [-from ID] [-to ID] [-json]
//	nadroid baseline write -store-dir DIR -app NAME [-run ID] [-note TEXT] [-o FILE] [-json]
//
// `diff` classifies warnings between two stored runs as new, fixed, or
// persisting by stable fingerprint, suppressing baselined ones; it
// exits nonzero when new warnings remain, so it slots into CI as a
// regression gate. `baseline write` records a reviewed run's
// fingerprints so future analyses and diffs hide them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nadroid"
	"nadroid/internal/server"
	"nadroid/internal/store"
)

// runDiff is the `nadroid diff` entry point.
func runDiff(args []string) {
	fs := flag.NewFlagSet("nadroid diff", flag.ExitOnError)
	var (
		storeDir = fs.String("store-dir", "", "analysis store directory (required)")
		appName  = fs.String("app", "", "app whose runs to compare (required)")
		from     = fs.String("from", "", "baseline-side run ID (default: second-newest run)")
		to       = fs.String("to", "", "candidate-side run ID (default: newest run)")
		jsonOut  = fs.Bool("json", false, "emit the diff as JSON")
	)
	fs.Parse(args)
	st := mustOpenStore(*storeDir)
	if *appName == "" {
		fatalf("diff: -app is required (stored apps: %v)", st.Apps())
	}
	d, err := st.Diff(*appName, *from, *to)
	if err != nil {
		fatalf("diff: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fatalf("diff: encode: %v", err)
		}
	} else {
		printDiff(d)
	}
	// CI contract: unreviewed new warnings fail the invocation.
	if len(d.New) > 0 {
		os.Exit(1)
	}
}

func printDiff(d *store.Diff) {
	fmt.Printf("diff %s: %s (%s) -> %s (%s)\n", d.App,
		shortID(d.From), d.FromCreated.Format(time.RFC3339),
		shortID(d.To), d.ToCreated.Format(time.RFC3339))
	nw, fixed, persisting, suppressed := d.Counts()
	fmt.Printf("new %d  fixed %d  persisting %d  suppressed %d\n", nw, fixed, persisting, suppressed)
	printBucket := func(label string, ws []store.Warning, detail bool) {
		for _, w := range ws {
			fmt.Printf("  %-10s [%s] %-5s field %s\n", label, w.Fingerprint, w.Category, w.Field)
			if detail {
				fmt.Printf("             use  %s  via %s\n", w.Use, w.UseLineage)
				fmt.Printf("             free %s  via %s\n", w.Free, w.FreeLineage)
			}
		}
	}
	printBucket("NEW", d.New, true)
	printBucket("FIXED", d.Fixed, false)
	printBucket("PERSISTING", d.Persisting, false)
	printBucket("SUPPRESSED", d.Suppressed, false)
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// runBaseline is the `nadroid baseline <verb>` entry point.
func runBaseline(args []string) {
	if len(args) == 0 || args[0] != "write" {
		fatalf("baseline: usage: nadroid baseline write -store-dir DIR -app NAME [-run ID] [-note TEXT] [-o FILE]")
	}
	fs := flag.NewFlagSet("nadroid baseline write", flag.ExitOnError)
	var (
		storeDir = fs.String("store-dir", "", "analysis store directory (required)")
		appName  = fs.String("app", "", "app whose run to baseline (required)")
		runID    = fs.String("run", "", "run ID to baseline (default: newest run)")
		note     = fs.String("note", "reviewed", "reviewer note attached to every entry")
		outFile  = fs.String("o", "", "also write the baseline to a standalone file (for -baseline on analyze)")
		jsonOut  = fs.Bool("json", false, "emit the written baseline as JSON")
	)
	fs.Parse(args[1:])
	st := mustOpenStore(*storeDir)
	if *appName == "" {
		fatalf("baseline write: -app is required (stored apps: %v)", st.Apps())
	}
	var run *store.Run
	if *runID != "" {
		r, ok := st.Get(*runID)
		if !ok {
			fatalf("baseline write: unknown run %q", *runID)
		}
		if r.App != *appName {
			fatalf("baseline write: run %s belongs to app %q, not %q", shortID(*runID), r.App, *appName)
		}
		run = r
	} else {
		runs := st.Runs(*appName)
		if len(runs) == 0 {
			fatalf("baseline write: no stored runs for app %q (analyze with -store-dir first)", *appName)
		}
		run = runs[0]
	}
	b := store.BaselineFromRun(run, *note, time.Now())
	if err := st.PutBaseline(b); err != nil {
		fatalf("baseline write: %v", err)
	}
	if *outFile != "" {
		if err := b.WriteFile(*outFile); err != nil {
			fatalf("baseline write: %v", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			fatalf("baseline write: encode: %v", err)
		}
		return
	}
	fmt.Printf("baseline %s: %d warning(s) from run %s recorded", b.App, len(b.Entries), shortID(b.RunID))
	if *outFile != "" {
		fmt.Printf(" (also %s)", *outFile)
	}
	fmt.Println()
}

func mustOpenStore(dir string) *store.Store {
	if dir == "" {
		fatalf("-store-dir is required")
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		fatalf("%v", err)
	}
	return st
}

// persistResult writes one finished analysis into the store, addressed
// by the same content key nadroid-serve uses, so CLI and service share
// history. canonical is the program's dexasm rendering and digest its
// store.IRDigest.
func persistResult(st *store.Store, canonical, digest string, optsWire server.OptionsWire, out *server.ResultWire) string {
	key := server.ResultKey(canonical, optsWire)
	run, err := server.StoreRun(key, optsWire, out, time.Now())
	if err == nil {
		// Record the program digest so GC can protect the run's IR-cache
		// and witness-cache entries for as long as the run survives.
		run.IRDigest = digest
		err = st.Put(run)
	}
	if err != nil {
		fatalf("persisting run: %v", err)
	}
	return string(key)
}

// loadBaselineFile reads a standalone baseline (written by
// `nadroid baseline write -o`).
func loadBaselineFile(path string) *store.Baseline {
	b, err := store.ReadBaselineFile(path)
	if err != nil {
		fatalf("reading baseline %s: %v", path, err)
	}
	return b
}

// suppressEntries drops baselined warnings from a report in place (for
// the human and CSV renderings; JSON output keeps them, flagged).
// Returns how many were hidden.
func suppressEntries(res *nadroid.Result, base *store.Baseline) int {
	if base == nil {
		return 0
	}
	kept := res.Report.Entries[:0]
	hidden := 0
	for _, e := range res.Report.Entries {
		if base.Has(string(e.Fingerprint)) {
			hidden++
			res.Report.ByCategory[e.Category]--
			continue
		}
		kept = append(kept, e)
	}
	res.Report.Entries = kept
	return hidden
}
