package interp

import (
	"nadroid/internal/framework"
	"nadroid/internal/ir"
)

// quantum advances one executor: it runs instructions until the executor
// idles, blocks on a monitor, or completes a field access. Ending each
// quantum right after a field access lets the scheduler interleave
// executors at every point that matters for UAF manifestation while
// keeping schedules short.
func (w *World) quantum(e *executor) {
	prev := w.activeExec
	w.activeExec = e
	defer func() { w.activeExec = prev }()
	for {
		if w.halted || w.steps >= w.opts.MaxSteps {
			return
		}
		if e.idle() {
			c := e.onDone
			e.onDone = cont{}
			w.runCont(c)
			if !e.isLooper {
				e.dead = true
			}
			return
		}
		f := e.top()
		if f.pc >= len(f.m.Instrs) {
			w.popFrame(e, nil)
			continue
		}
		in := &f.m.Instrs[f.pc]
		w.steps++
		fieldAccess, blocked := w.exec(e, f, in)
		if blocked {
			return
		}
		if fieldAccess {
			return
		}
	}
}

func (e *executor) top() *frame { return e.stack[len(e.stack)-1] }

// popFrame returns from the top frame, delivering ret to the caller.
func (w *World) popFrame(e *executor, ret Value) {
	f := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	if f.m.Synch && !f.m.Static {
		if obj, ok := f.regs[f.m.ThisReg()].v.(*Object); ok {
			w.unlock(e, obj)
		}
	}
	if len(e.stack) > 0 && f.retTo != ir.NoReg {
		e.top().regs[f.retTo] = reg{v: ret}
	}
}

// exec runs one instruction. It returns (fieldAccess, blocked).
func (w *World) exec(e *executor, f *frame, in *ir.Instr) (bool, bool) {
	advance := func() { f.pc++ }
	switch in.Op {
	case ir.OpNop:
		advance()
	case ir.OpConstNull:
		f.regs[in.A] = reg{}
		advance()
	case ir.OpConstInt:
		f.regs[in.A] = reg{v: in.IntVal}
		advance()
	case ir.OpConstStr:
		f.regs[in.A] = reg{v: in.StrVal}
		advance()
	case ir.OpNew:
		f.regs[in.A] = reg{v: w.alloc(in.Type())}
		advance()
	case ir.OpMove:
		f.regs[in.A] = f.regs[in.B]
		advance()

	case ir.OpGetField:
		base, ok := f.regs[in.B].v.(*Object)
		if !ok {
			w.throwNPE(e, f, in)
			return true, false
		}
		f.regs[in.A] = reg{v: w.get(base.ID, ir.FieldRef{Name: in.Field().Name}), site: f.m, at: f.pc}
		w.recordAccess(e, f, in, base, false, false)
		advance()
		return true, false
	case ir.OpPutField:
		base, ok := f.regs[in.B].v.(*Object)
		if !ok {
			w.throwNPE(e, f, in)
			return true, false
		}
		v := f.regs[in.A].v
		w.set(base.ID, ir.FieldRef{Name: in.Field().Name}, v)
		w.recordAccess(e, f, in, base, true, v == nil)
		advance()
		return true, false
	case ir.OpGetStatic:
		f.regs[in.A] = reg{v: w.get(0, w.h.CanonicalField(in.Field())), site: f.m, at: f.pc}
		w.recordAccess(e, f, in, nil, false, false)
		advance()
		return true, false
	case ir.OpPutStatic:
		v := f.regs[in.A].v
		w.set(0, w.h.CanonicalField(in.Field()), v)
		w.recordAccess(e, f, in, nil, true, v == nil)
		advance()
		return true, false

	case ir.OpReturn:
		var ret Value
		if in.A != ir.NoReg {
			ret = f.regs[in.A].v
		}
		w.popFrame(e, ret)

	case ir.OpGoto:
		f.pc = f.m.Index(in.Target())
	case ir.OpIfNull:
		if f.regs[in.B].v == nil {
			f.pc = f.m.Index(in.Target())
		} else {
			advance()
		}
	case ir.OpIfNonNull:
		if f.regs[in.B].v != nil {
			f.pc = f.m.Index(in.Target())
		} else {
			advance()
		}
	case ir.OpIfCond:
		advance()

	case ir.OpMonitorEnter:
		obj, ok := f.regs[in.B].v.(*Object)
		if !ok {
			w.throwNPE(e, f, in)
			return true, false
		}
		if !w.lock(e, obj) {
			return false, true // blocked; pc unchanged, retried later
		}
		advance()
	case ir.OpMonitorExit:
		if obj, ok := f.regs[in.B].v.(*Object); ok {
			w.unlock(e, obj)
		}
		advance()

	case ir.OpThrow:
		w.traceLine("throw in ", e.name)
		w.abortTask(e)

	case ir.OpInvoke:
		return w.execInvoke(e, f, in), false
	case ir.OpInvokeStatic:
		if m := w.h.Resolve(in.Callee().Class, in.Callee().Name); m != nil && !m.Abstract {
			// A static callee gets the argument values, not their load
			// sites.
			f.pc++
			callee := newFrame(m, in.A)
			for i, r := range in.Args {
				if i < m.NumArgs {
					callee.regs[m.ArgReg(i)] = reg{v: f.regs[r].v}
				}
			}
			e.stack = append(e.stack, callee)
			w.lockSyncEntry(e, m, nil)
			return false, false
		}
		if in.A != ir.NoReg {
			f.regs[in.A] = reg{}
		}
		advance()
	default:
		advance()
	}
	return false, false
}

// execInvoke handles virtual calls: app methods push frames; framework
// methods run as intrinsics. Returns true when the step counts as a
// field-access-like boundary (posting and NPE points do).
func (w *World) execInvoke(e *executor, f *frame, in *ir.Instr) bool {
	obj, isObj := f.regs[in.B].v.(*Object)
	if !isObj {
		w.throwNPE(e, f, in)
		return true
	}
	// Concrete app method? The receiver and arguments go straight into
	// the callee frame with their load sites, so an NPE deep in a callee
	// still names the getfield that produced the null.
	if m := w.h.Resolve(obj.Class, in.Callee().Name); m != nil && !m.Abstract {
		f.pc++
		callee := newFrame(m, in.A)
		if !m.Static {
			callee.regs[m.ThisReg()] = f.regs[in.B]
		}
		for i, r := range in.Args {
			if i < m.NumArgs {
				callee.regs[m.ArgReg(i)] = f.regs[r]
			}
		}
		e.stack = append(e.stack, callee)
		w.lockSyncEntry(e, m, obj)
		return false
	}
	// Framework intrinsic.
	ret, boundary := w.intrinsic(e, f, in, obj)
	if in.A != ir.NoReg {
		f.regs[in.A] = reg{v: ret}
	}
	f.pc++
	return boundary
}

// recordAccess appends one trace access event (Options.Record). The
// event names the field by its declaring class, as the world's storage
// and the static analysis do, so accesses naming one field through
// different classes meet in the dynamic detector.
func (w *World) recordAccess(e *executor, f *frame, in *ir.Instr, base *Object, isWrite, isNull bool) {
	if !w.opts.Record {
		return
	}
	objID := 0
	if base != nil {
		objID = base.ID
	}
	w.rec.Accesses = append(w.rec.Accesses, AccessEvent{
		Task:    e.curTask,
		Instr:   f.here(),
		Field:   w.h.CanonicalField(in.Field()),
		Obj:     objID,
		IsWrite: isWrite,
		IsNull:  isNull,
	})
}

// lockSyncEntry acquires the receiver lock for synchronized methods.
// Cooperative scheduling means acquisition at entry cannot block here:
// if the lock is held by another executor we simply spin the frame at
// pc=0 via a monitor instruction convention. To keep semantics simple,
// synchronized-method locks are acquired unconditionally; contention is
// modeled only for explicit monitor instructions.
func (w *World) lockSyncEntry(e *executor, m *ir.Method, obj *Object) {
	if m.Synch && obj != nil {
		w.lock(e, obj)
	}
}

// lock tries to acquire obj's monitor for e; false means blocked.
func (w *World) lock(e *executor, obj *Object) bool {
	if w.lockedByOther(e, obj) {
		return false
	}
	depth, _ := w.get(obj.ID, lockDepth).(int64)
	w.set(obj.ID, lockOwner, int64(e.id))
	w.set(obj.ID, lockDepth, depth+1)
	return true
}

// lockedByOther reports whether an executor other than e holds obj's
// monitor.
func (w *World) lockedByOther(e *executor, obj *Object) bool {
	owner, _ := w.get(obj.ID, lockOwner).(int64)
	depth, _ := w.get(obj.ID, lockDepth).(int64)
	return depth > 0 && owner != int64(e.id)
}

func (w *World) unlock(e *executor, obj *Object) {
	depth, _ := w.get(obj.ID, lockDepth).(int64)
	if depth > 0 {
		w.set(obj.ID, lockDepth, depth-1)
	}
}

// here returns the current instruction's ID.
func (f *frame) here() ir.InstrID { return ir.InstrID{Method: f.m.Ref(), Index: f.pc} }

// throwNPE records a NullPointerException at the current instruction and
// aborts the faulting task/thread.
func (w *World) throwNPE(e *executor, f *frame, in *ir.Instr) {
	npe := NPE{At: f.here(), Task: e.name}
	if r := f.regs[in.B]; r.site != nil {
		npe.LoadedAt = ir.InstrID{Method: r.site.Ref(), Index: r.at}
		npe.Field = r.site.Instrs[r.at].Field()
	}
	w.npes = append(w.npes, npe)
	if w.opts.Trace {
		w.traceLine("NPE ", npe.String())
	}
	w.abortTask(e)
	if w.opts.StopOnNPE {
		w.halted = true
	}
}

// abortTask unwinds the executor (uncaught exception).
func (w *World) abortTask(e *executor) {
	for len(e.stack) > 0 {
		w.popFrame(e, nil)
	}
	e.onDone = cont{}
	if !e.isLooper {
		e.dead = true
	}
}

// intrinsic implements framework API semantics for the call in, made
// from frame f on recv. It returns the call's result and whether the
// call is a scheduling boundary.
func (w *World) intrinsic(e *executor, f *frame, in *ir.Instr, recv *Object) (Value, bool) {
	h := w.h
	name := in.Callee().Name
	argObj := func(i int) *Object {
		if i < len(in.Args) {
			o, _ := f.regs[in.Args[i]].v.(*Object)
			return o
		}
		return nil
	}

	// Registration APIs install external events.
	if argIdx, iface, ok := framework.IsRegistrationCall(h, recv.Class, name); ok {
		if l := argObj(argIdx); l != nil {
			var view *Object
			if h.IsSubtypeOf(recv.Class, framework.View) {
				view = recv
			}
			for _, cb := range framework.ListenerMethods(iface) {
				if m := h.Resolve(l.Class, cb); m != nil {
					w.addEvent(extEvent{
						kind: UIEvent, component: e.component,
						m: m, recv: l,
						maxFires: w.opts.MaxUIFires, uiLike: true,
						needsResumed:  w.hasResumeMethod[e.component],
						view:          view,
						registrarTask: e.curTask,
					}, l.Class)
				}
			}
		}
		return nil, true
	}

	switch framework.ClassifyPost(h, recv.Class, name) {
	case framework.PostRunnable:
		// Handler.post, View.post and runOnUiThread all take the runnable
		// as their first argument.
		if target := argObj(0); target != nil {
			if m := h.Resolve(target.Class, framework.RunMethod); m != nil {
				var hd *Object
				if h.IsSubtypeOf(recv.Class, framework.Handler) {
					hd = recv
				}
				w.enqueue(&task{name: "post:" + target.Class + ".run", m: m, recv: target,
					component: e.component, handler: hd})
			}
		}
		return nil, true
	case framework.PostSendMessage:
		if m := h.Resolve(recv.Class, framework.HandlerCallback); m != nil {
			msg := make([]Value, len(in.Args))
			for i, r := range in.Args {
				msg[i] = f.regs[r].v
			}
			w.enqueue(&task{name: "msg:" + recv.Class + ".handleMessage", m: m, recv: recv,
				args: msg, component: e.component, handler: recv})
		}
		return nil, true
	case framework.PostBindService:
		if conn := argObj(0); conn != nil {
			w.bindServiceEvents(e, conn)
		}
		return nil, true
	case framework.PostRegisterReceiver:
		if rcv := argObj(0); rcv != nil {
			if m := h.Resolve(rcv.Class, framework.ReceiverCallback); m != nil {
				w.addEvent(extEvent{
					kind: ReceiverEvent, component: e.component,
					m: m, recv: rcv,
					maxFires: w.opts.MaxUIFires, uiLike: true,
					registrarTask: e.curTask,
				}, rcv.Class)
			}
		}
		return nil, true
	case framework.PostExecuteTask:
		w.executeAsyncTask(e, recv)
		return nil, true
	case framework.PostPublishProgress:
		if m := h.Resolve(recv.Class, "onProgressUpdate"); m != nil {
			w.enqueue(&task{name: "progress:" + recv.Class, m: m, recv: recv, component: e.component})
		}
		return nil, true
	case framework.PostStartThread:
		if m := h.Resolve(recv.Class, framework.RunMethod); m != nil {
			w.spawnBg("thread:", recv.Class, m, recv, e.component, cont{})
		}
		return nil, true
	case framework.PostExecutorSubmit, framework.PostTimerSchedule:
		if r := argObj(0); r != nil {
			if m := h.Resolve(r.Class, framework.RunMethod); m != nil {
				w.spawnBg("pool:", r.Class, m, r, e.component, cont{})
			}
		}
		return nil, true
	}

	switch framework.ClassifyCancel(h, recv.Class, name) {
	case framework.CancelFinish:
		// Only reachable components' flags are ever read: they are the
		// only components events belong to.
		if i, ok := w.compIndex[recv.Class]; ok {
			w.comps[i].finished = true
		}
		w.traceLine("finish ", recv.Class)
		return nil, true
	case framework.CancelUnbindService:
		if conn := argObj(0); conn != nil {
			w.removeEventsFor(conn)
		}
		return nil, true
	case framework.CancelUnregisterReceiver:
		if rcv := argObj(0); rcv != nil {
			w.removeEventsFor(rcv)
		}
		return nil, true
	case framework.CancelRemoveCallbacks:
		kept := w.queue[:0]
		for _, t := range w.queue {
			if t.handler != recv {
				kept = append(kept, t)
			}
		}
		w.queue = kept
		return nil, true
	case framework.CancelTask:
		return nil, true
	}

	// ServiceManager.addService registers an IBinder whose transact()
	// the framework may invoke later. The static analysis has no model
	// for this channel (§8.6 "unanalyzed code"), but the runtime does —
	// exactly the asymmetry behind Table 2's missed detections.
	if name == "addService" && h.IsSubtypeOf(recv.Class, framework.ServiceManager) {
		if b := argObj(0); b != nil {
			if m := h.Resolve(b.Class, "transact"); m != nil {
				w.addEvent(extEvent{
					kind: BinderEvent, component: e.component,
					m: m, recv: b,
					maxFires: w.opts.MaxUIFires, uiLike: true,
					registrarTask: e.curTask,
				}, b.Class)
			}
		}
		return nil, true
	}

	// UI state changes that enable/disable other events (§8.5 "Missing
	// Happens-Before").
	if name == "setVisibility" || name == "setEnabled" {
		if h.IsSubtypeOf(recv.Class, framework.View) {
			w.set(recv.ID, hidden, int64(1))
			return nil, true
		}
	}

	// Wake-lock API (§9 no-sleep extension): the world tracks held
	// counts so the explorer can witness executions that end awake.
	switch framework.ClassifyWakeLock(h, recv.Class, name) {
	case framework.WakeNew:
		return w.alloc(framework.WakeLock), false
	case framework.WakeAcquire:
		n, _ := w.get(recv.ID, wakeCount).(int64)
		w.set(recv.ID, wakeCount, n+1)
		if n == 0 {
			w.wakeHeld++
		}
		if w.opts.Trace {
			w.traceLine("acquire wakelock ", recv.String())
		}
		return nil, true
	case framework.WakeRelease:
		n, _ := w.get(recv.ID, wakeCount).(int64)
		if n > 0 {
			w.set(recv.ID, wakeCount, n-1)
			if n == 1 {
				w.wakeHeld--
			}
		}
		if w.opts.Trace {
			w.traceLine("release wakelock ", recv.String())
		}
		return nil, true
	}

	// Value-producing conveniences.
	switch name {
	case "findViewById", "setContentView":
		return w.alloc(framework.View), false
	case "getSystemService":
		return w.alloc(framework.LocationManager), false
	case "obtainMessage":
		return w.alloc(framework.Message), false
	case "getIntent":
		return w.alloc(framework.Intent), false
	}
	// Unknown framework or absent app method: no-op.
	return nil, false
}

// bindServiceEvents installs the onServiceConnected / onServiceDisconnected
// pair for a connection: SC fires before SD (the MHB-Service relation).
func (w *World) bindServiceEvents(e *executor, conn *Object) {
	var sc *extEvent
	if m := w.h.Resolve(conn.Class, "onServiceConnected"); m != nil {
		sc = w.addEvent(extEvent{
			kind: ConnectionEvent, component: e.component,
			m: m, recv: conn, maxFires: 1, uiLike: true,
			registrarTask: e.curTask,
		}, conn.Class)
	}
	if m := w.h.Resolve(conn.Class, "onServiceDisconnected"); m != nil {
		w.addEvent(extEvent{
			kind: ConnectionEvent, component: e.component,
			m: m, recv: conn, after: sc, maxFires: 1, uiLike: true,
			registrarTask: e.curTask,
		}, conn.Class)
	}
}

// executeAsyncTask wires onPreExecute -> doInBackground -> onPostExecute.
func (w *World) executeAsyncTask(e *executor, taskObj *Object) {
	c := cont{
		next: linkBody, task: taskObj, component: e.component,
		body: w.h.Resolve(taskObj.Class, framework.AsyncTaskBody),
		post: w.h.Resolve(taskObj.Class, "onPostExecute"),
	}
	if pre := w.h.Resolve(taskObj.Class, "onPreExecute"); pre != nil {
		w.enqueue(&task{name: "task-pre:" + taskObj.Class, m: pre, recv: taskObj, component: c.component, onDone: c})
	} else {
		w.runCont(c)
	}
}

// runCont runs a continuation: the next link of its AsyncTask chain (a
// zero cont does nothing).
func (w *World) runCont(c cont) {
	switch c.next {
	case linkBody:
		if c.body != nil {
			c.next = linkPost
			w.spawnBg("task:", c.task.Class, c.body, c.task, c.component, c)
			return
		}
		fallthrough
	case linkPost:
		if c.post != nil {
			w.enqueue(&task{name: "task-post:" + c.task.Class, m: c.post, recv: c.task, component: c.component})
		}
	}
}

// removeEventsFor disables all events whose receiver object is obj.
func (w *World) removeEventsFor(obj *Object) {
	for i, ev := range w.events {
		if ev.recv == obj {
			w.evs[i].removed = true
		}
	}
}
