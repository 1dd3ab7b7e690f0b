package corpus

import "fmt"

// Async-error seeds for the leaked-thread and lost-result detector
// families (arXiv:1808.03178). Each pattern lives in its own activity so
// one pattern's teardown declaration (onDestroy) never gives a sibling
// pattern's component a teardown path, and every thread body touches
// only locals so the UAF pipeline stays silent on these apps.

// leakedThread seeds one leaked native thread: onCreate starts a worker
// the component stores but never joins or interrupts, while onDestroy
// exists (so the component demonstrably has a teardown path). With
// join=true the benign variant interrupts the worker in onDestroy, which
// the detector's coverage subtraction must recognize.
func (g *gen) leakedThread(join bool) {
	i := g.next()
	actCls := g.cls(fmt.Sprintf("LeakAct%d", i))
	act := g.b.Activity(actCls)
	thrCls := g.cls(fmt.Sprintf("LeakWorker%d", i))
	th := g.b.ThreadClass(thrCls)
	run := th.Method("run", 0)
	v := run.New(g.valCls())
	run.Use(v, g.valCls())
	run.Return()

	field := "t_worker"
	act.Field(field, thrCls)
	oc := act.Method("onCreate", 1)
	tv := oc.New(thrCls)
	oc.PutThis(field, tv)
	oc.InvokeVoid(tv, thrCls, "start")
	oc.Return()

	od := act.Method("onDestroy", 0)
	if join {
		w := od.GetThis(field)
		od.InvokeVoid(w, thrCls, "interrupt")
	}
	od.Return()
}

// lostResult seeds one lost posted result: a background thread posts a
// Runnable back to the component's handler, the component declares
// onDestroy, and nothing drains the handler's queue. With cancel=true
// the benign variant calls removeCallbacksAndMessages in onDestroy. Both
// variants interrupt the poster thread during teardown so the pattern
// seeds exactly one family (no leaked-thread cross-noise).
func (g *gen) lostResult(cancel bool) {
	i := g.next()
	actCls := g.cls(fmt.Sprintf("LostAct%d", i))
	act := g.b.Activity(actCls)

	handlerCls := g.cls(fmt.Sprintf("LostH%d", i))
	g.b.HandlerClass(handlerCls)
	hField := "h_result"
	act.Field(hField, handlerCls)

	runCls := g.cls(fmt.Sprintf("LostResult%d", i))
	rn := g.b.Runnable(runCls)
	rm := rn.Method("run", 0)
	rv := rm.New(g.valCls())
	rm.Use(rv, g.valCls())
	rm.Return()

	thrCls := g.cls(fmt.Sprintf("LostPoster%d", i))
	th := g.b.ThreadClass(thrCls)
	th.Field("outer", actCls)
	run := th.Method("run", 0)
	o := run.GetThis("outer")
	h := run.GetField(o, actCls, hField)
	job := run.New(runCls)
	run.InvokeVoid(h, handlerCls, "post", job)
	run.Return()

	thrField := "t_poster"
	act.Field(thrField, thrCls)
	oc := act.Method("onCreate", 1)
	hv := oc.New(handlerCls)
	oc.PutThis(hField, hv)
	tv := oc.New(thrCls)
	oc.PutField(tv, thrCls, "outer", oc.This())
	oc.PutThis(thrField, tv)
	oc.InvokeVoid(tv, thrCls, "start")
	oc.Return()

	od := act.Method("onDestroy", 0)
	w := od.GetThis(thrField)
	od.InvokeVoid(w, thrCls, "interrupt")
	if cancel {
		hh := od.GetThis(hField)
		od.InvokeVoid(hh, handlerCls, "removeCallbacksAndMessages")
	}
	od.Return()
}
