// Coverage example: the paper's §2.3 argument, executable. Trace-based
// dynamic detectors (CAFA, DroidRacer) are sound for what they observe,
// but their UI-exploration input generators cannot force rare system
// events like service disconnects — so on ConnectBot, CAFA reported zero
// harmful callback races where nAdroid statically finds 13.
//
// This program runs the same HB race-detection recipe those tools use
// (internal/dynrace) over recorded executions of the ConnectBot corpus
// app, once under a UI-only input model and once with full system-event
// injection, and compares both against the static pipeline.
//
//	go run ./examples/coverage
package main

import (
	"fmt"
	"log"
	"strings"

	"nadroid"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/dynrace"
	"nadroid/internal/interp"
	"nadroid/internal/ir"
)

func main() {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		log.Fatal("corpus app missing")
	}

	// Static pipeline.
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Dynamic detector, UI-driven inputs only: lifecycle + clicks; no
	// service disconnects, broadcasts or binder calls can be forced.
	uiOnly := record(app, func(kind interp.EventKind, m *ir.Method, component string) bool {
		return m.Name != "onServiceDisconnected" &&
			kind != interp.ReceiverEvent &&
			kind != interp.BinderEvent
	})

	// Dynamic detector with full system-event injection.
	full := record(app, nil)

	fmt.Println("ConnectBot, use-after-free ordering violations:")
	fmt.Printf("  static nAdroid pipeline:                 %2d\n", res.Stats.AfterUnsound)
	fmt.Printf("  dynamic detector, UI-driven inputs:      %2d   (CAFA reported 0 on the real app)\n", countSeeded(uiOnly))
	fmt.Printf("  dynamic detector, full event injection:  %2d\n", countSeeded(full))
	fmt.Println()
	fmt.Println("The dynamic recipe is sound for the observed trace; its blind spot")
	fmt.Println("is input coverage. Static threadification analyzes every posting")
	fmt.Println("order without needing to trigger one.")
}

func record(app corpus.App, filter func(kind interp.EventKind, m *ir.Method, component string) bool) []dynrace.Race {
	pkg := app.Build()
	w := interp.NewWorld(pkg, cha.New(pkg.Program), interp.Options{Record: true, EventFilter: filter})
	interp.Run(w, nil)
	return dynrace.Analyze(w.Recorded(), dynrace.Options{UseFreeOnly: true})
}

func countSeeded(races []dynrace.Race) int {
	n := 0
	for _, r := range races {
		if strings.HasPrefix(r.Field.Name, "f_svc") || strings.HasPrefix(r.Field.Name, "f_post") {
			n++
		}
	}
	return n
}
