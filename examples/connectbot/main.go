// ConnectBot example: reproduces the paper's Figure 1(a) and 1(b) —
// the two single-threaded use-after-free ordering violations nAdroid
// found in ConnectBot's service-binding code — and shows the pipeline
// detecting, classifying, and dynamically confirming both.
//
// Figure 1(a): onServiceConnected sets `bound`; onCreateContextMenu uses
// it without a guard; onServiceDisconnected sets it to null. If the
// service disconnects before the context menu opens, the app crashes.
//
// Figure 1(b): onClick checks `hostBridge != null`, then posts a
// Runnable that dereferences it later. The check does not cover the
// asynchronous gap: onServiceDisconnected can run between the post and
// the Runnable.
//
//	go run ./examples/connectbot
package main

import (
	"fmt"
	"log"
	"strings"

	"nadroid"
	"nadroid/internal/appbuilder"
	"nadroid/internal/explore"
	"nadroid/internal/framework"
)

const (
	actCls    = "cb/ConsoleActivity"
	bridgeCls = "cb/TerminalBridge"
)

func buildApp() *appbuilder.Builder {
	b := appbuilder.New("connectbot")
	b.Class(bridgeCls, framework.Object).Method("use", 0).Return()

	act := b.MainActivity(actCls)
	act.Field("bound", bridgeCls)
	act.Field("hostBridge", bridgeCls)
	act.Field("handler", "cb/UIHandler")
	b.HandlerClass("cb/UIHandler")

	// ServiceConnection: connected allocates both fields, disconnected
	// frees them (Figure 1 left column).
	conn := b.ServiceConn("cb/Conn")
	conn.Field("outer", actCls)
	sc := conn.Method("onServiceConnected", 1)
	o := sc.GetThis("outer")
	bound := sc.New(bridgeCls)
	sc.PutField(o, actCls, "bound", bound)
	hb := sc.New(bridgeCls)
	sc.PutField(o, actCls, "hostBridge", hb)
	sc.Return()
	sd := conn.Method("onServiceDisconnected", 1)
	o2 := sd.GetThis("outer")
	sd.Free(o2, actCls, "bound")
	sd.Free(o2, actCls, "hostBridge")
	sd.Return()

	// onStart binds the service; onCreate wires the UI.
	os := act.Method("onStart", 0)
	cn := os.New("cb/Conn")
	os.PutField(cn, "cb/Conn", "outer", os.This())
	os.InvokeVoid(os.This(), actCls, "bindService", cn)
	os.Return()

	// Figure 1(a): onCreateContextMenu uses `bound` unguarded.
	menu := act.Method("onCreateContextMenu", 1)
	bb := menu.GetThis("bound")
	menu.Use(bb, bridgeCls)
	menu.Return()

	// Figure 1(b): onClick guards hostBridge, then posts a Runnable that
	// dereferences it later.
	run := b.Runnable("cb/BridgeJob")
	run.Field("outer", actCls)
	rm := run.Method("run", 0)
	ro := rm.GetThis("outer")
	rb := rm.GetField(ro, actCls, "hostBridge")
	rm.Use(rb, bridgeCls)
	rm.Return()

	click := b.Class("cb/ClickListener", framework.Object, framework.OnClickListener)
	click.Field("outer", actCls)
	cm := click.Method("onClick", 1)
	co := cm.GetThis("outer")
	chk := cm.GetField(co, actCls, "hostBridge")
	cm.IfNull(chk, "skip")
	job := cm.New("cb/BridgeJob")
	cm.PutField(job, "cb/BridgeJob", "outer", co)
	h := cm.GetField(co, actCls, "handler")
	cm.InvokeVoid(h, "cb/UIHandler", "post", job)
	cm.Label("skip")
	cm.Return()

	oc := act.Method("onCreate", 1)
	hr := oc.New("cb/UIHandler")
	oc.PutThis("handler", hr)
	view := oc.New(framework.View)
	l := oc.New("cb/ClickListener")
	oc.PutField(l, "cb/ClickListener", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", l)
	oc.Return()
	return b
}

func main() {
	pkg, err := buildApp().Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := nadroid.Analyze(pkg, nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 3000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("potential %d -> sound %d -> unsound %d; validated harmful %d\n\n",
		res.Stats.Potential, res.Stats.AfterSound, res.Stats.AfterUnsound, len(res.Harmful))

	for _, v := range res.Harmful {
		w := v.Warning
		label := "?"
		switch {
		case strings.Contains(w.Use.Method, "onCreateContextMenu"):
			label = "Figure 1(a): EC-PC, unguarded use in onCreateContextMenu"
		case strings.Contains(w.Use.Method, "BridgeJob.run"):
			label = "Figure 1(b): PC-PC, guard does not cover the posted Runnable"
		}
		fmt.Printf("%s\n", label)
		fmt.Printf("  field %s\n  use  %s\n  free %s\n", w.Field, w.Use, w.Free)
		fmt.Printf("  witness after %d executions: %v\n\n", v.Witness.Executions, v.Witness.NPE)
	}

	// The checking load in onClick is itself benign: the UR/IG reasoning
	// keeps it out of the final report.
	fmt.Println("note: onClick's null-check load was pruned as benign; only the")
	fmt.Println("asynchronous dereference in the posted Runnable is reported.")
}
