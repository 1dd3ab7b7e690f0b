package interp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

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
	// StopOnNPE ends the run at the first NullPointerException.
	StopOnNPE bool
	// Trace records a human-readable execution trace.
	Trace bool
	// EventFilter, when set, restricts which external events the world
	// installs: it sees each event's kind, callback method and
	// component before anything of the event is built, and an event it
	// rejects is never built. A rejected event only takes its event id,
	// so every built event keeps the "event:<id>:<name>" key it has in
	// an unfiltered world; an event ordered after a rejected one could
	// never fire and is rejected too. The explorer uses it to focus a
	// run on the callbacks involved in one warning (the §7 "root entry
	// callbacks" hint), shrinking the schedule space and what each
	// explored schedule copies.
	EventFilter func(kind EventKind, m *ir.Method, component string) bool
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
	// canonicalize schedule prefixes. Keys and entry refs are built
	// once per event, task and thread whether or not it is set (method
	// refs are stored in the IR); it is off by default because it
	// allocates a row per choice point.
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

// frame is one activation record.
type frame struct {
	m     *ir.Method
	regs  []reg
	pc    int
	retTo int // caller register receiving the return value (NoReg: none)
}

// reg is one register: its value and, for NPE attribution, the getfield
// or getstatic that produced it (instruction at of method site; site nil
// when none did). Moves and app-method call arguments copy the whole
// register; every other write stores a fresh one, so no write keeps a
// stale site.
type reg struct {
	v    Value
	site *ir.Method
	at   int
}

func newFrame(m *ir.Method, retTo int) *frame {
	return &frame{m: m, regs: make([]reg, m.NumRegs), retTo: retTo}
}

func (f *frame) clone() *frame {
	c := *f
	c.regs = slices.Clone(f.regs)
	return &c
}

// executor runs a stack of frames: the looper or one background thread.
type executor struct {
	id   int
	name string
	// key is the scheduler option key of advancing this executor.
	key string
	// entry is the entry method ref of the running task or thread.
	entry string
	// looper executors pull tasks from the world queue when idle.
	isLooper bool
	stack    []*frame
	// component is the manifest component this execution belongs to.
	component string
	// onDone runs when the current task's outermost frame returns.
	onDone cont
	dead   bool
	// curTask is the trace task id currently executing (-1 when idle).
	curTask int
}

func (e *executor) idle() bool { return len(e.stack) == 0 }

func (e *executor) clone() *executor {
	c := *e
	c.stack = make([]*frame, len(e.stack))
	for i, f := range e.stack {
		c.stack[i] = f.clone()
	}
	return &c
}

// asyncLink names the next step of an AsyncTask pre -> body -> post
// chain.
type asyncLink uint8

const (
	noLink asyncLink = iota
	// linkBody starts doInBackground, or queues onPostExecute when the
	// task has no body.
	linkBody
	// linkPost queues onPostExecute.
	linkPost
)

// cont is the continuation a task or thread leaves for when it finishes:
// the next link of an AsyncTask chain. It is plain data, so executors
// and queued tasks copy with their world.
type cont struct {
	next       asyncLink
	task       *Object
	component  string
	body, post *ir.Method
}

// task is a queued looper work item. It is immutable once enqueued, so
// snapshots share it.
type task struct {
	name      string
	m         *ir.Method
	recv      Value
	args      []Value
	component string
	onDone    cont
	// handler is the Handler object the task was posted through (for
	// removeCallbacksAndMessages).
	handler *Object
	// posterTask is the trace task that enqueued this one (-1 external).
	posterTask int
	// key is the scheduler option key of dispatching this task (set
	// when it is queued).
	key string
}

// EventKind names the framework channel that delivers an external
// event. An event's name is its kind's prefix, then the registered
// receiver's class for an event the app registers at run time, then
// the callback: "lifecycle:onCreate", "ui:com/x/L.onClick".
type EventKind uint8

const (
	// LifecycleEvent is an activity lifecycle callback.
	LifecycleEvent EventKind = iota
	// ServiceEvent is a service lifecycle callback.
	ServiceEvent
	// ReceiverEvent is a broadcast receiver's onReceive, declared in the
	// manifest or registered with registerReceiver.
	ReceiverEvent
	// UIEvent is a listener callback registered on a view or another
	// framework object.
	UIEvent
	// ConnectionEvent is onServiceConnected or onServiceDisconnected of
	// a bound service connection.
	ConnectionEvent
	// BinderEvent is transact of a binder registered with
	// ServiceManager.addService.
	BinderEvent
)

var kindPrefix = [...]string{
	LifecycleEvent:  "lifecycle:",
	ServiceEvent:    "service:",
	ReceiverEvent:   "receiver:",
	UIEvent:         "ui:",
	ConnectionEvent: "svc:",
	BinderEvent:     "binder:",
}

// extEvent is one external event the environment may deliver. It is
// immutable once built (addEvent), so snapshots share it; what changes
// as it fires lives in the world's eventState row.
type extEvent struct {
	kind EventKind
	// key is the scheduler option key "event:<id>:<name>"; name is its
	// tail.
	key, name string
	component string
	// row indexes the event in the world's events and evs (build
	// order).
	row int
	// comp indexes the world's component states (-1: none).
	comp     int
	m        *ir.Method
	recv     Value
	maxFires int
	// after is the event that must have fired before this one may (nil:
	// none).
	after *extEvent
	// uiLike events stop firing once the component is finished/destroyed.
	uiLike bool
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
}

// rejected stands for every event the EventFilter rejected. It is never
// installed, and an event ordered after it is rejected too.
var rejected = new(extEvent)

// eventState is the mutable half of one event.
type eventState struct {
	fired   int
	removed bool
	// lastFiredTask is the trace task id of the most recent firing, so
	// `after` constraints become HB edges (SC fired before SD).
	lastFiredTask int
}

// compState is the lifecycle state of one reachable component.
type compState struct {
	finished, destroyed bool
	// resumed: the activity is between onResume and onPause.
	resumed bool
}

// field is one written field of an object. Instance fields are keyed by
// name alone (Class empty), statics by their full reference.
type field struct {
	ref ir.FieldRef
	v   Value
}

// The runtime's own per-object state, kept as fields no program can
// name.
var (
	lockOwner = ir.FieldRef{Name: "$lockOwner"}
	lockDepth = ir.FieldRef{Name: "$lockDepth"}
	hidden    = ir.FieldRef{Name: "$hidden"}
	wakeCount = ir.FieldRef{Name: "$wakeHeld"}
)

// fieldSlot holds one object's written fields in write order. A world
// shares the slice with its snapshots until one side writes: gen is the
// generation of the world that may write it in place, and a write from
// any other world first copies the entries written so far.
type fieldSlot struct {
	fs  []field
	gen uint64
}

// chunkLen is the number of objects whose field slots share a chunk.
const chunkLen = 16

// chunk holds the field slots of chunkLen consecutive objects. Worlds
// share chunks the way they share field slices: only the world whose
// generation gen names writes a chunk in place, and any other copies it
// first. A snapshot therefore copies one pointer per chunk, and a run
// copies only the chunks it writes.
type chunk struct {
	slots []fieldSlot
	gen   uint64
}

func (w *World) enabled(ev *extEvent, s eventState) bool {
	if s.removed || s.fired >= ev.maxFires {
		return false
	}
	if ev.after != nil && w.evs[ev.after.row].fired == 0 {
		return false
	}
	var c compState
	if ev.comp >= 0 {
		c = w.comps[ev.comp]
	}
	if ev.uiLike && (c.finished || c.destroyed) {
		return false
	}
	if ev.needsResumed && !c.resumed {
		return false
	}
	if ev.view != nil && w.get(ev.view.ID, hidden) != nil {
		return false
	}
	return true
}

// World is the full runtime state of one execution. Snapshot copies it;
// Run continues any world from the choice point it stands at. A world
// builds no event its EventFilter rejects, keeps each object's fields
// in a short slice that snapshots share until one side writes, and
// builds no string per executed instruction.
type World struct {
	pkg  *apk.Package
	h    *cha.Hierarchy
	opts Options
	// compIndex numbers the reachable components (the only ones events
	// belong to) and hasResumeMethod records those that declare onResume
	// (input gating applies only to those). NewWorld fixes both, and
	// snapshots share them.
	compIndex       map[string]int
	hasResumeMethod map[string]bool

	// fields[id/chunkLen].slots[id%chunkLen] holds the fields of object
	// id, and object 0 holds the statics. objects counts the objects.
	fields  []*chunk
	objects int
	// gen is the world's generation, fresh at NewWorld and at every
	// Snapshot: a chunk or slot stamped with it was copied by this world
	// since and is shared with no other. gens numbers the generations of
	// the world and all its snapshots, the only worlds it shares chunks
	// with.
	gen  uint64
	gens *atomic.Uint64

	looper *executor
	bgs    []*executor
	nextEx int

	queue []*task
	// events are the built events in build order, and evs[i] is the
	// state of events[i]. nextEvent is the id of the next event
	// installed, built or rejected.
	events    []*extEvent
	evs       []eventState
	nextEvent int
	// comps[compIndex[class]] is the state of a reachable component.
	comps []compState
	// wakeHeld counts wake-lock objects with a positive hold count.
	wakeHeld int

	steps  int
	npes   []NPE
	trace  []string
	halted bool

	// Recorded trace (Options.Record).
	rec     TraceLog
	taskSeq int

	// info holds the choice points recorded so far, and forced the
	// hidden forced actions taken since the last one
	// (ScheduleInfo.Forced).
	info   ScheduleInfo
	forced int

	// activeExec is the executor currently inside quantum() (nil between
	// quanta, so at every choice point).
	activeExec *executor
	// optBuf backs the slice options returns, reused across steps.
	optBuf []option
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
		compIndex:       make(map[string]int),
		hasResumeMethod: make(map[string]bool),
		gens:            new(atomic.Uint64),
	}
	w.gen = w.gens.Add(1)
	w.newSlot() // object 0: the statics
	w.looper = &executor{id: 0, name: "looper", key: "run:looper", isLooper: true, curTask: -1}
	w.nextEx = 1
	for _, comp := range pkg.Manifest.Components() {
		if comp.Reachable {
			w.compIndex[comp.Class] = len(w.comps)
			w.comps = append(w.comps, compState{})
		}
	}
	for _, comp := range pkg.Manifest.Components() {
		if comp.Reachable {
			w.installLifecycleEvents(comp, w.alloc(comp.Class))
		}
	}
	return w
}

func (w *World) alloc(class string) *Object {
	return &Object{ID: w.newSlot(), Class: class}
}

// newSlot adds an empty field slot and returns its object id.
func (w *World) newSlot() int {
	id := w.objects
	w.objects++
	if id%chunkLen == 0 {
		w.fields = append(w.fields, &chunk{slots: make([]fieldSlot, 0, chunkLen), gen: w.gen})
	}
	ch := w.chunkFor(id)
	ch.slots = append(ch.slots, fieldSlot{gen: w.gen})
	return id
}

// chunkFor returns the chunk holding object id's slot, first copying it
// if w may share it with a snapshot.
func (w *World) chunkFor(id int) *chunk {
	ch := w.fields[id/chunkLen]
	if ch.gen != w.gen {
		ch = &chunk{slots: append(make([]fieldSlot, 0, chunkLen), ch.slots...), gen: w.gen}
		w.fields[id/chunkLen] = ch
	}
	return ch
}

// get reads a field of object id (0: the statics); unset fields are
// null.
func (w *World) get(id int, ref ir.FieldRef) Value {
	for _, f := range w.fields[id/chunkLen].slots[id%chunkLen].fs {
		if f.ref == ref {
			return f.v
		}
	}
	return nil
}

// set writes a field of object id (0: the statics), first copying the
// chunk and the entries the world may share with a snapshot.
func (w *World) set(id int, ref ir.FieldRef, v Value) {
	s := &w.chunkFor(id).slots[id%chunkLen]
	if s.gen != w.gen {
		s.fs = append(make([]field, 0, len(s.fs)+1), s.fs...)
		s.gen = w.gen
	}
	for i := range s.fs {
		if s.fs[i].ref == ref {
			s.fs[i].v = v
			return
		}
	}
	s.fs = append(s.fs, field{ref, v})
}

// Snapshot returns a copy of w that Run can continue independently of
// w. Take it between Run calls or from RunSnapshots; the copy stands at
// the same choice point as w. Immutable parts (objects, events, queued
// tasks, the recorded rows) are shared; field chunks and slices are
// shared until either world writes them.
func (w *World) Snapshot() *World {
	c := *w
	c.fields = slices.Clone(w.fields)
	w.gen, c.gen = w.gens.Add(1), w.gens.Add(1)
	c.looper = w.looper.clone()
	c.bgs = make([]*executor, len(w.bgs))
	for i, e := range w.bgs {
		c.bgs[i] = e.clone()
	}
	// removeCallbacks filters the queue in place, so it is copied, not
	// shared.
	c.queue = slices.Clone(w.queue)
	c.evs = slices.Clone(w.evs)
	c.comps = slices.Clone(w.comps)
	// Append-only slices are shared up to their length: clipping makes
	// the copy's first append reallocate instead of writing into w's
	// backing array.
	c.events = slices.Clip(w.events)
	c.npes = slices.Clip(w.npes)
	c.trace = slices.Clip(w.trace)
	c.rec = TraceLog{
		TaskNames: slices.Clip(w.rec.TaskNames),
		Accesses:  slices.Clip(w.rec.Accesses),
		HB:        slices.Clip(w.rec.HB),
	}
	c.info = ScheduleInfo{
		Arity:   slices.Clip(w.info.Arity),
		Taken:   slices.Clip(w.info.Taken),
		Choices: slices.Clip(w.info.Choices),
		Forced:  slices.Clip(w.info.Forced),
	}
	c.optBuf = nil
	return &c
}

// maxResumeCycles bounds an activity's onResume/onPause re-entries.
const maxResumeCycles = 2

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
				max = maxResumeCycles
			}
			ev := w.addEvent(extEvent{
				kind: LifecycleEvent, component: comp.Class,
				m: m, recv: obj, after: prev,
				maxFires: max, uiLike: n != "onDestroy",
			}, "")
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
			w.addEvent(extEvent{
				kind: LifecycleEvent, component: comp.Class,
				m: m, recv: obj, after: byName["onCreate"],
				maxFires: w.opts.MaxUIFires, uiLike: true,
				needsResumed: hasResume,
			}, "")
		}
		w.hasResumeMethod[comp.Class] = hasResume
	case manifest.ServiceComponent:
		var prev *extEvent
		for _, n := range framework.ServiceLifecycleCallbacks {
			m := w.h.Resolve(comp.Class, n)
			if m == nil {
				continue
			}
			ev := extEvent{
				kind: ServiceEvent, component: comp.Class,
				m: m, recv: obj,
				maxFires: 1, uiLike: n != "onDestroy",
			}
			if n == "onDestroy" {
				ev.after = prev
			}
			added := w.addEvent(ev, "")
			if n == "onCreate" {
				prev = added
			}
		}
	case manifest.ReceiverComponent:
		m := w.h.Resolve(comp.Class, framework.ReceiverCallback)
		if m != nil {
			w.addEvent(extEvent{
				kind: ReceiverEvent, component: comp.Class,
				m: m, recv: obj,
				maxFires: w.opts.MaxUIFires, uiLike: true,
			}, "")
		}
	}
}

// addEvent installs ev, whose kind, callback, component and order the
// caller has set, and returns the installed event. Every event takes the
// next event id, but one the EventFilter rejects, or one ordered after a
// rejected event, is never built: addEvent then returns rejected. qual
// is the class of the object a run-time registration installed the
// event for ("" for a manifest component's own callbacks).
func (w *World) addEvent(ev extEvent, qual string) *extEvent {
	id := w.nextEvent
	w.nextEvent++
	if ev.after == rejected || w.opts.EventFilter != nil && !w.opts.EventFilter(ev.kind, ev.m, ev.component) {
		return rejected
	}
	n := strconv.Itoa(id)
	if qual != "" {
		ev.key = "event:" + n + ":" + kindPrefix[ev.kind] + qual + "." + ev.m.Name
	} else {
		ev.key = "event:" + n + ":" + kindPrefix[ev.kind] + ev.m.Name
	}
	ev.name = ev.key[len("event:")+len(n)+1:]
	ev.row = len(w.events)
	ev.comp = -1
	if i, ok := w.compIndex[ev.component]; ok {
		ev.comp = i
	}
	if ev.registrarTask == 0 {
		ev.registrarTask = -1
	}
	e := new(extEvent)
	*e = ev
	w.events = append(w.events, e)
	w.evs = append(w.evs, eventState{lastFiredTask: -1})
	return e
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
func (w *World) HeldWakeLocks() int { return w.wakeHeld }

// Schedule returns the choice points w has recorded so far (the rows
// Run returns).
func (w *World) Schedule() *ScheduleInfo { return &w.info }

// traceLine appends the concatenated parts to the execution trace
// (Options.Trace). The parts are strings, so a call allocates nothing
// while tracing is off.
func (w *World) traceLine(parts ...string) {
	if w.opts.Trace {
		w.trace = append(w.trace, strings.Join(parts, ""))
	}
}

// option is one scheduler alternative at a choice point: advancing a
// busy executor (ex), firing an external event (ev), or dispatching the
// looper queue's head (t).
type option struct {
	key string
	// method is the entry method ref behind the option (the task or
	// thread body it runs/starts).
	method string
	ex     *executor
	ev     *extEvent
	t      *task
}

// options enumerates the current scheduler alternatives in a stable
// order (by key): advancing a busy executor that is not blocked on a
// monitor, or (when the looper is idle) dispatching a queued task or
// firing an enabled external event. The slice is only valid until the
// next call.
func (w *World) options() []option {
	opts := w.optBuf[:0]
	if !w.looper.idle() {
		if !w.blockedOnMonitor(w.looper) {
			opts = append(opts, option{key: w.looper.key, method: w.looper.entry, ex: w.looper})
		}
	} else {
		if len(w.queue) > 0 {
			// FIFO dispatch: the Android looper processes its queue in
			// order, so only the head is dispatchable.
			t := w.queue[0]
			opts = append(opts, option{key: t.key, method: t.m.Ref(), t: t})
		}
		for i, ev := range w.events {
			if !w.enabled(ev, w.evs[i]) {
				continue
			}
			opts = append(opts, option{key: ev.key, method: ev.m.Ref(), ev: ev})
		}
	}
	for _, bg := range w.bgs {
		if bg.dead || bg.idle() || w.blockedOnMonitor(bg) {
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
		w.evs[o.ev.row].fired++
		w.fireEvent(o.ev)
	default:
		w.queue = w.queue[1:]
		w.startTask(w.looper, o.t)
	}
}

// Done reports whether execution cannot proceed (or was halted): it is
// true exactly when Run would stop.
func (w *World) Done() bool {
	if w.halted || w.steps >= w.opts.MaxSteps {
		return true
	}
	return len(w.options()) == 0
}

func (w *World) fireEvent(ev *extEvent) {
	w.traceLine("fire ", ev.name)
	if ev.comp >= 0 && ev.kind == LifecycleEvent {
		c := &w.comps[ev.comp]
		switch ev.m.Name {
		case "onDestroy":
			c.destroyed = true
		case "onResume":
			c.resumed = true
		case "onPause":
			c.resumed = false
		}
	}
	t := &task{name: ev.name, m: ev.m, recv: ev.recv, component: ev.component, posterTask: -1}
	tid := w.startTask(w.looper, t)
	// HB: registration precedes the callback; prior firings of HB-before
	// events precede this one (the CAFA/DroidRacer event HB model).
	w.hbEdge(ev.registrarTask, tid)
	if ev.after != nil {
		w.hbEdge(w.evs[ev.after.row].lastFiredTask, tid)
	}
	w.evs[ev.row].lastFiredTask = tid
}

func (w *World) startTask(e *executor, t *task) int {
	w.traceLine("start ", t.name, " on ", e.name)
	e.component = t.component
	e.onDone = t.onDone
	e.entry = t.m.Ref()
	e.curTask = w.newTraceTask(t.name)
	w.hbEdge(t.posterTask, e.curTask)
	e.push(t.m, t.recv, t.args)
	return e.curTask
}

// push enters m as the outermost frame of a task or thread, with
// receiver recv (ignored for static methods) and the given arguments;
// missing arguments are null.
func (e *executor) push(m *ir.Method, recv Value, args []Value) {
	f := newFrame(m, ir.NoReg)
	if !m.Static {
		f.regs[m.ThisReg()] = reg{v: recv}
	}
	for i, a := range args {
		if i < m.NumArgs {
			f.regs[m.ArgReg(i)] = reg{v: a}
		}
	}
	e.stack = append(e.stack, f)
}

// spawnBg starts a background thread executing m on recv, named prefix
// + class.
func (w *World) spawnBg(prefix, class string, m *ir.Method, recv Value, component string, onDone cont) {
	if w.opts.SpawnFilter != nil && !w.opts.SpawnFilter(m.Class) {
		// Focused exploration: this thread is irrelevant to the warning
		// under validation. Its continuation still runs so AsyncTask
		// chains stay consistent.
		w.runCont(onDone)
		return
	}
	key := "run:" + prefix + class + "#" + strconv.Itoa(w.nextEx)
	e := &executor{id: w.nextEx, name: key[len("run:"):], key: key, entry: m.Ref(), component: component, onDone: onDone}
	w.nextEx++
	e.curTask = w.newTraceTask(e.name[:len(prefix)+len(class)])
	w.hbEdge(w.currentTask(), e.curTask)
	e.push(m, recv, nil)
	w.bgs = append(w.bgs, e)
	w.traceLine("spawn ", e.name)
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
	w.traceLine("enqueue ", t.name)
	t.posterTask = w.currentTask()
	t.key = "dispatch:" + t.name
	w.queue = append(w.queue, t)
}
