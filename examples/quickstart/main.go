// Quickstart: author a tiny Android-like app with the builder API, run
// the full nAdroid pipeline on it, and print the surviving warnings.
//
// The app has the classic back-button bug (§6.1.1): onPause frees a
// field that a click handler dereferences, and onResume does not restore
// it — so the order pause → resume → click crashes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nadroid"
	"nadroid/internal/appbuilder"
	"nadroid/internal/explore"
	"nadroid/internal/framework"
)

func main() {
	b := appbuilder.New("quickstart")

	// class V { void use() {} }
	b.Class("qs/V", framework.Object).Method("use", 0).Return()

	// class MainActivity extends Activity { V session; ... }
	act := b.MainActivity("qs/Main")
	act.Field("session", "qs/V")

	// onCreate: session = new V(); button.setOnClickListener(new Click(this))
	oc := act.Method("onCreate", 1)
	v := oc.New("qs/V")
	oc.PutThis("session", v)
	button := oc.New(framework.View)
	listener := oc.New("qs/Click")
	oc.PutField(listener, "qs/Click", "outer", oc.This())
	oc.InvokeVoid(button, framework.View, "setOnClickListener", listener)
	oc.Return()

	// onResume: careless — no re-allocation.
	act.Method("onResume", 0).Return()

	// onPause: session = null (the free).
	op := act.Method("onPause", 0)
	op.FreeThis("session")
	op.Return()

	// class Click implements OnClickListener { Main outer;
	//   void onClick(v) { outer.session.use(); } }   // the use
	click := b.Class("qs/Click", framework.Object, framework.OnClickListener)
	click.Field("outer", "qs/Main")
	onClick := click.Method("onClick", 1)
	outer := onClick.GetThis("outer")
	session := onClick.GetField(outer, "qs/Main", "session")
	onClick.Use(session, "qs/V")
	onClick.Return()

	pkg, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	res, err := nadroid.Analyze(pkg, nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 2000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("modeled %d entry callbacks, %d posted callbacks, %d threads\n",
		res.Model.Stats().EC, res.Model.Stats().PC, res.Model.Stats().T)
	fmt.Printf("potential UAFs %d -> after sound filters %d -> after unsound filters %d\n\n",
		res.Stats.Potential, res.Stats.AfterSound, res.Stats.AfterUnsound)
	fmt.Print(res.Report)

	fmt.Printf("\ndynamic validation confirmed %d harmful UAF(s):\n", len(res.Harmful))
	for _, v := range res.Harmful {
		fmt.Printf("  %s — witness: %v\n", v.Warning.Field, v.Witness.NPE)
	}
}
