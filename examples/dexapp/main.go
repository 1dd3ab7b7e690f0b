// Dexasm authoring example: apps need not be built through the Go
// builder API — the dexasm text format is a complete authoring surface.
// This program embeds a small app written by hand in dexasm (an activity
// whose broadcast receiver frees a field that a click handler uses),
// parses it, analyzes it, and confirms the bug dynamically.
//
//	go run ./examples/dexapp
package main

import (
	"fmt"
	"log"

	"nadroid"
	"nadroid/internal/dexasm"
	"nadroid/internal/explore"
)

const app = `
app radio

manifest {
  activity radio/Tuner main
}

class radio/Station extends java/lang/Object {
  method use(0) {
    return
  }
}

# The receiver frees the station when the broadcast arrives.
class radio/SignalLost extends android/content/BroadcastReceiver {
  field outer radio/Tuner
  method onReceive(1) {
    r2 = r0.radio/SignalLost.outer
    r3 = null
    r2.radio/Tuner.station = r3
    return
  }
}

class radio/PlayListener extends java/lang/Object implements android/view/View$OnClickListener {
  field outer radio/Tuner
  method onClick(1) {
    r2 = r0.radio/PlayListener.outer
    r3 = r2.radio/Tuner.station
    call r3.radio/Station.use()
    return
  }
}

class radio/Tuner extends android/app/Activity {
  field station radio/Station
  method onCreate(1) {
    r2 = new radio/Station
    r0.radio/Tuner.station = r2
    r3 = new radio/SignalLost
    r3.radio/SignalLost.outer = r0
    call r0.radio/Tuner.registerReceiver(r3)
    r4 = new android/view/View
    r5 = new radio/PlayListener
    r5.radio/PlayListener.outer = r0
    call r4.android/view/View.setOnClickListener(r5)
    return
  }
}
`

func main() {
	pkg, err := dexasm.Parse(app)
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
	fmt.Printf("parsed %d IR instructions from dexasm\n", pkg.Size())
	fmt.Printf("potential %d -> sound %d -> unsound %d; harmful %d\n\n",
		res.Stats.Potential, res.Stats.AfterSound, res.Stats.AfterUnsound, len(res.Harmful))
	fmt.Print(res.Report)
	for _, v := range res.Harmful {
		fmt.Printf("\nwitness: %v\n", v.Witness.NPE)
	}
}
