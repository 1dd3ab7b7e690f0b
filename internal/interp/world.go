package interp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nadroid/internal/apk"
	"nadroid/internal/cha"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
)

// Options configures a run.
type Options struct {
	// MaxSteps bounds total executed instructions (default 100k).
	MaxSteps int
	// MaxUIFires bounds how often each UI/listener event fires (default 2,
	// enough to expose the PHB unsoundness of repeated clicks).
	MaxUIFires int
	// MaxResumeCycles bounds onResume/onPause re-entries (default 2).
	MaxResumeCycles int
	// StopOnNPE ends the run at the first NullPointerException.
	StopOnNPE bool
	// TakeOpaqueBranches makes if-cond branches jump rather than fall
	// through (the static analysis is path-insensitive; the interpreter
	// must pick one policy per run).
	TakeOpaqueBranches bool
	// Trace records a human-readable execution trace.
	Trace bool
	// EventFilter, when set, restricts which external events may fire:
	// only events for which it returns true are schedulable. The
	// explorer uses it to focus a run on the callbacks involved in one
	// warning (the §7 "root entry callbacks" hint), shrinking the
	// schedule space.
	EventFilter func(method, component, name string) bool
	// SpawnFilter, when set, suppresses background threads whose class
	// it rejects — the thread-side counterpart of EventFilter for
	// focused exploration. Looper tasks are never suppressed.
	SpawnFilter func(class string) bool
	// Record captures a CAFA/DroidRacer-style execution trace: per-task
	// field accesses plus the happens-before edges between tasks
	// (posting, spawning, registration, lifecycle order). Package
	// dynrace consumes it for offline race detection.
	Record bool
	// RecordChoices makes Run keep the full option row (key + entry
	// method) at every multi-option choice point in ScheduleInfo.Choices.
	// The explorer's partial-order reduction needs the identities to
	// canonicalize schedule prefixes; off by default because it takes
	// an entry ref per task and thread and allocates a row per choice
	// point.
	RecordChoices bool
}

// AccessEvent is one recorded field access (Options.Record).
type AccessEvent struct {
	Task    int
	Instr   ir.InstrID
	Field   ir.FieldRef
	Obj     int // receiver object id; 0 for statics
	IsWrite bool
	IsNull  bool // write of null (a dynamic "free")
}

// TraceLog is the recorded execution: tasks, accesses, and HB edges.
type TraceLog struct {
	// TaskNames[i] names task i ("lifecycle:onCreate", "thread:...").
	TaskNames []string
	Accesses  []AccessEvent
	// HB lists (earlier, later) task edges: poster->postee,
	// spawner->thread, registrar->callback, and event-order constraints.
	HB [][2]int
}

func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 100_000
	}
	if o.MaxUIFires <= 0 {
		o.MaxUIFires = 2
	}
	if o.MaxResumeCycles <= 0 {
		o.MaxResumeCycles = 2
	}
	return o
}

// NPE records one NullPointerException.
type NPE struct {
	// At is the faulting instruction (the dereference).
	At ir.InstrID
	// LoadedAt is the getfield that produced the null base, when known.
	LoadedAt ir.InstrID
	// Field is the field the null base was loaded from, when known.
	Field ir.FieldRef
	// Task names the callback/thread that faulted.
	Task string
}

func (n NPE) String() string {
	return fmt.Sprintf("NPE at %s (base loaded at %s from %s) in %s", n.At, n.LoadedAt, n.Field, n.Task)
}

// Frame is one activation record.
type frame struct {
	m     *ir.Method
	regs  []Value
	pc    int
	retTo int // caller register receiving the return value (NoReg: none)
	// loadSite tracks, per register, the getfield that produced its value
	// (for NPE attribution).
	loadSite map[int]ir.InstrID
}

// executor runs a stack of frames: the looper or one background thread.
type executor struct {
	id   int
	name string
	// key is the scheduler option key of advancing this executor.
	key string
	// entry is the entry method ref of the running task or thread
	// (complete only under Options.RecordChoices, the mode that reads
	// it).
	entry string
	// looper executors pull tasks from the world queue when idle.
	isLooper bool
	stack    []*frame
	// component is the manifest component this execution belongs to.
	component string
	// onDone runs when the current task's outermost frame returns.
	onDone func(w *World)
	dead   bool
	// curTask is the trace task id currently executing (-1 when idle).
	curTask int
}

func (e *executor) idle() bool { return len(e.stack) == 0 }

// task is a queued looper work item.
type task struct {
	name      string
	m         *ir.Method
	recv      Value
	args      []Value
	component string
	onDone    func(w *World)
	// handler is the Handler object the task was posted through (for
	// removeCallbacksAndMessages).
	handler *Object
	// posterTask is the trace task that enqueued this one (-1 external).
	posterTask int
	// key is the scheduler option key of dispatching this task (set
	// when it is queued).
	key string
	// ref is m's ref (set for fired events, and for queued tasks under
	// Options.RecordChoices).
	ref string
}

// extEvent is one external event the environment may deliver.
type extEvent struct {
	id        int
	name      string
	component string
	m         *ir.Method
	recv      Value
	args      []Value
	fired     int
	maxFires  int
	after     []*extEvent
	removed   bool
	// uiLike events stop firing once the component is finished/destroyed.
	uiLike bool
	// owner ties dynamically-registered events to the object passed to
	// the registration API (for unbind/unregister).
	owner *Object
	// needsResumed gates user-input events on the activity being in the
	// resumed state (real Android only delivers input to resumed
	// activities). Only set when the component declares onResume.
	needsResumed bool
	// view is the View the listener was registered on; setVisibility /
	// setEnabled on that view disables the event (the §8.5 "Missing
	// Happens-Before" UI semantics static analysis cannot see).
	view *Object
	// registrarTask is the trace task that installed this event (-1 for
	// framework lifecycle events); firing creates an HB edge from it.
	registrarTask int
	// lastFiredTask is the trace task id of the most recent firing, so
	// `after` constraints become HB edges (SC fired before SD).
	lastFiredTask int
	// key (the scheduler option key), ref (m's ref) and filtered
	// (Options.EventFilter rejects the event) are fixed by addEvent.
	key      string
	ref      string
	filtered bool
}

func (ev *extEvent) enabled(w *World) bool {
	if ev.filtered || ev.removed || ev.fired >= ev.maxFires {
		return false
	}
	for _, a := range ev.after {
		if a.fired == 0 {
			return false
		}
	}
	if ev.uiLike && ev.component != "" {
		if w.finished[ev.component] || w.destroyed[ev.component] {
			return false
		}
	}
	if ev.needsResumed && !w.resumed[ev.component] {
		return false
	}
	if ev.view != nil && w.hiddenViews[ev.view] {
		return false
	}
	return true
}

// World is the full runtime state of one execution.
type World struct {
	pkg  *apk.Package
	h    *cha.Hierarchy
	opts Options

	statics   map[string]Value
	nextObjID int

	looper *executor
	bgs    []*executor
	nextEx int

	queue  []*task
	events []*extEvent
	// optBuf backs the slice options returns, reused across steps.
	optBuf []option

	// component instances (the framework "allocates" these).
	compInstance map[string]*Object
	finished     map[string]bool
	destroyed    map[string]bool
	// resumed tracks which activities are between onResume and onPause.
	resumed map[string]bool
	// hasResumeMethod records components that declare onResume (input
	// gating applies only to those).
	hasResumeMethod map[string]bool
	// hiddenViews records views disabled via setVisibility/setEnabled.
	hiddenViews map[*Object]bool
	// wakeHeld tracks wake-lock objects with a positive hold count.
	wakeHeld map[*Object]bool

	steps  int
	npes   []NPE
	trace  []string
	halted bool

	// Recorded trace (Options.Record).
	rec TraceLog
	// activeExec is the executor currently inside quantum().
	activeExec *executor
	// pendingTask maps queued tasks / events / spawns to the trace task
	// id of whoever caused them, so HB edges land at start time.
	taskSeq int
}

// NewWorld prepares a run over pkg: component instances are allocated
// and the environment's lifecycle events installed. h must be the class
// hierarchy built over pkg.Program. The world only reads it, so one
// hierarchy can back any number of worlds, concurrently too.
func NewWorld(pkg *apk.Package, h *cha.Hierarchy, opts Options) *World {
	if h.Program() != pkg.Program {
		panic("interp: hierarchy was built over another program")
	}
	w := &World{
		pkg:             pkg,
		h:               h,
		opts:            opts.withDefaults(),
		statics:         make(map[string]Value),
		compInstance:    make(map[string]*Object),
		finished:        make(map[string]bool),
		destroyed:       make(map[string]bool),
		resumed:         make(map[string]bool),
		hiddenViews:     make(map[*Object]bool),
		wakeHeld:        make(map[*Object]bool),
		hasResumeMethod: make(map[string]bool),
	}
	w.looper = &executor{id: 0, name: "looper", key: "run:looper", isLooper: true, curTask: -1}
	w.nextEx = 1
	for _, comp := range pkg.Manifest.Components() {
		if !comp.Reachable {
			continue
		}
		obj := w.alloc(comp.Class)
		w.compInstance[comp.Class] = obj
		w.installLifecycleEvents(comp, obj)
	}
	return w
}

func (w *World) alloc(class string) *Object {
	w.nextObjID++
	return &Object{ID: w.nextObjID, Class: class}
}

// installLifecycleEvents wires the component's framework-driven events.
func (w *World) installLifecycleEvents(comp *manifest.Component, obj *Object) {
	switch comp.Kind {
	case manifest.ActivityComponent:
		chainNames := []string{"onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy"}
		var prev *extEvent
		byName := make(map[string]*extEvent)
		for _, n := range chainNames {
			m := w.h.Resolve(comp.Class, n)
			if m == nil {
				continue
			}
			max := 1
			if n == "onResume" || n == "onPause" {
				max = w.opts.MaxResumeCycles
			}
			ev := w.addEvent(&extEvent{
				name: "lifecycle:" + n, component: comp.Class,
				m: m, recv: obj, args: lifecycleArgs(m),
				maxFires: max, uiLike: n != "onDestroy",
			})
			if prev != nil {
				ev.after = append(ev.after, prev)
			}
			byName[n] = ev
			prev = ev
		}
		// Remaining lifecycle-adjacent callbacks: enabled after onCreate,
		// and (like all user input) only while the activity is resumed.
		hasResume := byName["onResume"] != nil
		for _, n := range framework.LifecycleCallbacks {
			if byName[n] != nil {
				continue
			}
			switch n {
			case "onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy":
				continue
			}
			m := w.h.Resolve(comp.Class, n)
			if m == nil {
				continue
			}
			ev := w.addEvent(&extEvent{
				name: "lifecycle:" + n, component: comp.Class,
				m: m, recv: obj, args: lifecycleArgs(m),
				maxFires: w.opts.MaxUIFires, uiLike: true,
				needsResumed: hasResume,
			})
			if c := byName["onCreate"]; c != nil {
				ev.after = append(ev.after, c)
			}
		}
		w.hasResumeMethod[comp.Class] = hasResume
	case manifest.ServiceComponent:
		var prev *extEvent
		for _, n := range framework.ServiceLifecycleCallbacks {
			m := w.h.Resolve(comp.Class, n)
			if m == nil {
				continue
			}
			ev := w.addEvent(&extEvent{
				name: "service:" + n, component: comp.Class,
				m: m, recv: obj, args: lifecycleArgs(m),
				maxFires: 1, uiLike: n != "onDestroy",
			})
			if n == "onDestroy" && prev != nil {
				ev.after = append(ev.after, prev)
			}
			if n == "onCreate" {
				prev = ev
			}
		}
	case manifest.ReceiverComponent:
		m := w.h.Resolve(comp.Class, framework.ReceiverCallback)
		if m != nil {
			w.addEvent(&extEvent{
				name: "receiver:" + framework.ReceiverCallback, component: comp.Class,
				m: m, recv: obj, args: lifecycleArgs(m),
				maxFires: w.opts.MaxUIFires, uiLike: true,
			})
		}
	}
}

func lifecycleArgs(m *ir.Method) []Value {
	return make([]Value, m.NumArgs)
}

func (w *World) addEvent(ev *extEvent) *extEvent {
	ev.id = len(w.events)
	ev.key = "event:" + strconv.Itoa(ev.id) + ":" + ev.name
	if ev.m != nil {
		ev.ref = ev.m.Ref()
	}
	// The filter is a pure function of fields fixed here.
	ev.filtered = w.opts.EventFilter != nil && !w.opts.EventFilter(ev.ref, ev.component, ev.name)
	ev.lastFiredTask = -1
	if ev.registrarTask == 0 {
		ev.registrarTask = -1
	}
	w.events = append(w.events, ev)
	return ev
}

// newTraceTask allocates a trace task id.
func (w *World) newTraceTask(name string) int {
	id := w.taskSeq
	w.taskSeq++
	if w.opts.Record {
		w.rec.TaskNames = append(w.rec.TaskNames, name)
	}
	return id
}

// hbEdge records earlier-happens-before-later between trace tasks.
func (w *World) hbEdge(earlier, later int) {
	if !w.opts.Record || earlier < 0 || later < 0 || earlier == later {
		return
	}
	w.rec.HB = append(w.rec.HB, [2]int{earlier, later})
}

// Recorded returns the captured trace (empty unless Options.Record).
func (w *World) Recorded() *TraceLog { return &w.rec }

// NPEs returns the recorded exceptions.
func (w *World) NPEs() []NPE { return w.npes }

// Steps returns executed instruction count.
func (w *World) Steps() int { return w.steps }

// Trace returns the recorded execution trace (empty unless Options.Trace).
func (w *World) Trace() []string { return w.trace }

// HeldWakeLocks reports how many wake locks are still held — non-zero at
// the end of a quiescent execution witnesses a no-sleep bug (§9).
func (w *World) HeldWakeLocks() int { return len(w.wakeHeld) }

func (w *World) tracef(format string, args ...interface{}) {
	if w.opts.Trace {
		w.trace = append(w.trace, fmt.Sprintf(format, args...))
	}
}

// option is one scheduler alternative at a choice point: advancing a
// busy executor (ex), firing an external event (ev), or dispatching the
// looper queue's head (t).
type option struct {
	key string
	// method is the entry method ref behind the option (the task or
	// thread body it runs/starts). Run reads it only under
	// Options.RecordChoices, the only mode that sets it for every option.
	method string
	ex     *executor
	ev     *extEvent
	t      *task
}

// options enumerates the current scheduler alternatives in a stable
// order (by key): advancing a busy executor, or (when the looper is
// idle) dispatching a queued task or firing an enabled external event.
// The slice is only valid until the next call.
func (w *World) options() []option {
	opts := w.optBuf[:0]
	if !w.looper.idle() {
		opts = append(opts, option{key: w.looper.key, method: w.looper.entry, ex: w.looper})
	} else {
		if len(w.queue) > 0 {
			// FIFO dispatch: the Android looper processes its queue in
			// order, so only the head is dispatchable.
			t := w.queue[0]
			opts = append(opts, option{key: t.key, method: t.ref, t: t})
		}
		for _, ev := range w.events {
			if !ev.enabled(w) {
				continue
			}
			opts = append(opts, option{key: ev.key, method: ev.ref, ev: ev})
		}
	}
	for _, bg := range w.bgs {
		if bg.dead || bg.idle() {
			continue
		}
		opts = append(opts, option{key: bg.key, method: bg.entry, ex: bg})
	}
	slices.SortFunc(opts, func(a, b option) int { return strings.Compare(a.key, b.key) })
	w.optBuf = opts
	return opts
}

// take performs one scheduler option.
func (w *World) take(o option) {
	switch {
	case o.ex != nil:
		w.quantum(o.ex)
	case o.ev != nil:
		o.ev.fired++
		w.fireEvent(o.ev)
	default:
		w.queue = w.queue[1:]
		w.startTask(w.looper, o.t)
	}
}

// Done reports whether execution cannot proceed (or was halted).
func (w *World) Done() bool {
	if w.halted || w.steps >= w.opts.MaxSteps {
		return true
	}
	return len(w.options()) == 0
}

func (w *World) fireEvent(ev *extEvent) {
	w.tracef("fire %s", ev.name)
	switch ev.name {
	case "lifecycle:onDestroy":
		w.destroyed[ev.component] = true
	case "lifecycle:onResume":
		w.resumed[ev.component] = true
	case "lifecycle:onPause":
		w.resumed[ev.component] = false
	}
	t := &task{name: ev.name, m: ev.m, recv: ev.recv, args: ev.args, component: ev.component, posterTask: -1, ref: ev.ref}
	tid := w.startTask(w.looper, t)
	// HB: registration precedes the callback; prior firings of HB-before
	// events precede this one (the CAFA/DroidRacer event HB model).
	w.hbEdge(ev.registrarTask, tid)
	for _, a := range ev.after {
		w.hbEdge(a.lastFiredTask, tid)
	}
	ev.lastFiredTask = tid
}

func (w *World) startTask(e *executor, t *task) int {
	w.tracef("start %s on %s", t.name, e.name)
	e.component = t.component
	e.onDone = t.onDone
	e.entry = t.ref
	e.curTask = w.newTraceTask(t.name)
	w.hbEdge(t.posterTask, e.curTask)
	e.push(t.m, t.recv, t.args, ir.NoReg)
	return e.curTask
}

func (e *executor) push(m *ir.Method, recv Value, args []Value, retTo int) {
	e.pushWithSites(m, recv, args, retTo, ir.InstrID{}, nil)
}

// pushWithSites is push plus load-site attribution for the receiver and
// arguments, so an NPE deep in a callee still names the getfield that
// produced the null.
func (e *executor) pushWithSites(m *ir.Method, recv Value, args []Value, retTo int, recvSite ir.InstrID, argSites []ir.InstrID) {
	f := &frame{m: m, regs: make([]Value, m.NumRegs), retTo: retTo, loadSite: make(map[int]ir.InstrID)}
	if !m.Static {
		f.regs[m.ThisReg()] = recv
		if recvSite.Method != "" {
			f.loadSite[m.ThisReg()] = recvSite
		}
	}
	for i, a := range args {
		if i < m.NumArgs {
			f.regs[m.ArgReg(i)] = a
			if i < len(argSites) && argSites[i].Method != "" {
				f.loadSite[m.ArgReg(i)] = argSites[i]
			}
		}
	}
	e.stack = append(e.stack, f)
}

// spawnBg starts a background thread executing m on recv.
func (w *World) spawnBg(name string, m *ir.Method, recv Value, args []Value, component string, onDone func(*World)) {
	if w.opts.SpawnFilter != nil && !w.opts.SpawnFilter(m.Class) {
		// Focused exploration: this thread is irrelevant to the warning
		// under validation. Its completion hook still runs so AsyncTask
		// chains stay consistent.
		if onDone != nil {
			onDone(w)
		}
		return
	}
	exName := fmt.Sprintf("%s#%d", name, w.nextEx)
	e := &executor{id: w.nextEx, name: exName, key: "run:" + exName, component: component, onDone: onDone}
	if w.opts.RecordChoices {
		e.entry = m.Ref()
	}
	w.nextEx++
	e.curTask = w.newTraceTask(name)
	w.hbEdge(w.currentTask(), e.curTask)
	e.push(m, recv, args, ir.NoReg)
	w.bgs = append(w.bgs, e)
	w.tracef("spawn %s", e.name)
}

// currentTask returns the trace task of the executor that is presently
// running an intrinsic/step. The scheduler runs one quantum at a time,
// so the active executor is the one whose step invoked us; World tracks
// it in activeExec.
func (w *World) currentTask() int {
	if w.activeExec != nil {
		return w.activeExec.curTask
	}
	return -1
}

// enqueue appends a looper task, attributing the poster for HB.
func (w *World) enqueue(t *task) {
	w.tracef("enqueue %s", t.name)
	t.posterTask = w.currentTask()
	t.key = "dispatch:" + t.name
	if w.opts.RecordChoices && t.m != nil {
		t.ref = t.m.Ref()
	}
	w.queue = append(w.queue, t)
}
