// FireFox example: reproduces the paper's Figure 1(c) — a multi-threaded
// use-after-free between a looper callback and a background pool thread.
//
// onResume submits a Runnable to a thread pool that eventually sets
// `jClient = null`. onPause checks `jClient != null` before calling
// `jClient.abort()`, but the check-then-act is not atomic against the
// pool thread: the free can land between the check and the call.
//
// The example shows why the IG filter is only sound under atomicity
// (§6.1.2): the same guard between two looper callbacks would be safe,
// but against a thread it is a real bug — and the explorer finds the
// interleaving.
//
//	go run ./examples/firefox
package main

import (
	"fmt"
	"log"

	"nadroid"
	"nadroid/internal/appbuilder"
	"nadroid/internal/explore"
	"nadroid/internal/framework"
)

const (
	actCls    = "ff/GeckoApp"
	clientCls = "ff/JavaClient"
)

func buildApp() *appbuilder.Builder {
	b := appbuilder.New("firefox")
	b.Class(clientCls, framework.Object).Method("abort", 0).Return()

	act := b.MainActivity(actCls)
	act.Field("jClient", clientCls)
	act.Field("pool", framework.ExecutorService)

	// The pool job that tears the client down (Figure 1(c) right side).
	job := b.Runnable("ff/Teardown")
	job.Field("outer", actCls)
	rm := job.Method("run", 0)
	ro := rm.GetThis("outer")
	rm.Free(ro, actCls, "jClient")
	rm.Return()

	// onCreate: allocate the client.
	oc := act.Method("onCreate", 1)
	c := oc.New(clientCls)
	oc.PutThis("jClient", c)
	oc.Return()

	// onResume: ThreadPool.run(new Teardown(this)).
	orr := act.Method("onResume", 0)
	pool := orr.New(framework.ExecutorService)
	orr.PutThis("pool", pool)
	j := orr.New("ff/Teardown")
	orr.PutField(j, "ff/Teardown", "outer", orr.This())
	orr.InvokeVoid(pool, framework.ExecutorService, "execute", j)
	orr.Return()

	// onPause: if (jClient != null) jClient.abort();  — unprotected.
	op := act.Method("onPause", 0)
	chk := op.GetThis("jClient")
	op.IfNull(chk, "skip")
	jc := op.GetThis("jClient")
	op.InvokeVoid(jc, clientCls, "abort")
	op.Label("skip")
	op.Return()
	return b
}

func main() {
	pkg, err := buildApp().Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := nadroid.Analyze(pkg, nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 4000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("potential %d -> sound %d -> unsound %d\n", res.Stats.Potential,
		res.Stats.AfterSound, res.Stats.AfterUnsound)
	fmt.Print(res.Report)

	fmt.Printf("\nvalidated harmful: %d\n", len(res.Harmful))
	for _, v := range res.Harmful {
		fmt.Printf("  %s: the pool thread's free interleaves between the\n", v.Warning.Field)
		fmt.Printf("  null check and the abort() call — %v\n", v.Witness.NPE)
	}
	fmt.Println("\nwhy the guard is unsound here (§6.1.2): the IG filter prunes the")
	fmt.Println("same pattern between looper callbacks (atomic), but a C-NT pair has")
	fmt.Println("no atomicity, so the warning correctly survives filtering.")
}
