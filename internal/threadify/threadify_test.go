package threadify

import (
	"slices"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/corpus"
	"nadroid/internal/framework"
)

// buildFigure3App reproduces the shape of the paper's Figure 3:
//
//	MainActivity: onCreate registers an OnClickListener and a
//	LocationListener; onStart binds a Service connection; onResume
//	registers a BroadcastReceiver.
//	onClick: sends a message to a Handler and posts a Runnable.
//	onLocationChanged: executes an AsyncTask whose doInBackground calls
//	publishProgress.
func buildFigure3App(t *testing.T) *apk.Package {
	t.Helper()
	b := appbuilder.New("figure3")

	act := b.Activity("app/MainActivity")
	act.Field("handler", "app/MyHandler")
	act.Field("view", framework.View)
	act.Field("locMgr", framework.LocationManager)

	click := b.Class("app/ClickListener", framework.Object, framework.OnClickListener)
	click.Field("outer", "app/MainActivity")
	loc := b.Class("app/LocListener", framework.Object, framework.LocationListener)

	// Handler subclass.
	h := b.HandlerClass("app/MyHandler")
	hm := h.Method("handleMessage", 1)
	hm.Return()

	// Runnable.
	run := b.Runnable("app/Job")
	rm := run.Method("run", 0)
	rm.Return()

	// AsyncTask.
	task := b.AsyncTaskClass("app/LoadTask")
	dib := task.Method("doInBackground", 0)
	dib.InvokeVoid(dib.This(), "app/LoadTask", "publishProgress")
	dib.Return()
	task.Method("onPreExecute", 0).Return()
	task.Method("onProgressUpdate", 0).Return()
	task.Method("onPostExecute", 0).Return()

	// ServiceConnection.
	conn := b.ServiceConn("app/Conn")
	conn.Method("onServiceConnected", 1).Return()
	conn.Method("onServiceDisconnected", 1).Return()

	// Receiver (registered imperatively, not in the manifest).
	rcv := b.Class("app/Rcv", framework.BroadcastReceiver)
	rcv.Method("onReceive", 1).Return()

	// Native thread.
	th := b.ThreadClass("app/Worker")
	th.Method("run", 0).Return()

	// onCreate: wire listeners and the handler.
	oc := act.Method("onCreate", 1)
	hreg := oc.New("app/MyHandler")
	oc.PutThis("handler", hreg)
	v := oc.GetThis("view")
	cl := oc.New("app/ClickListener")
	oc.PutField(cl, "app/ClickListener", "outer", oc.This())
	oc.InvokeVoid(v, framework.View, "setOnClickListener", cl)
	lm := oc.GetThis("locMgr")
	ll := oc.New("app/LocListener")
	dummy := oc.NullReg()
	oc.InvokeVoid(lm, framework.LocationManager, "requestLocationUpdates", ll, dummy)
	oc.Return()

	// onStart: bind the service connection; also start a native thread.
	os := act.Method("onStart", 0)
	cn := os.New("app/Conn")
	os.InvokeVoid(os.This(), "app/MainActivity", "bindService", cn)
	w := os.New("app/Worker")
	os.InvokeVoid(w, "app/Worker", "start")
	os.Return()

	// onResume: register the broadcast receiver.
	orm := act.Method("onResume", 0)
	rv := orm.New("app/Rcv")
	orm.InvokeVoid(orm.This(), "app/MainActivity", "registerReceiver", rv)
	orm.Return()

	// ClickListener.onClick: sendMessage + post.
	ocl := click.Method("onClick", 1)
	outer := ocl.GetThis("outer")
	hh := ocl.GetField(outer, "app/MainActivity", "handler")
	msg := ocl.New(framework.Message)
	ocl.InvokeVoid(hh, "app/MyHandler", "sendMessage", msg)
	job := ocl.New("app/Job")
	ocl.InvokeVoid(hh, "app/MyHandler", "post", job)
	ocl.Return()

	// LocListener.onLocationChanged: execute the AsyncTask.
	olc := loc.Method("onLocationChanged", 1)
	tk := olc.New("app/LoadTask")
	olc.InvokeVoid(tk, "app/LoadTask", "execute")
	olc.Return()

	pkg, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return pkg
}

func mustModel(t *testing.T, pkg *apk.Package) *Model {
	t.Helper()
	m, err := Build(pkg, Options{})
	if err != nil {
		t.Fatalf("Build model: %v", err)
	}
	return m
}

// findThread locates a thread by entry method suffix; fails the test if
// absent or ambiguous beyond the first.
func findThread(t *testing.T, m *Model, methodSuffix string) *Thread {
	t.Helper()
	var found *Thread
	for _, th := range m.Threads {
		if th.Kind == KindDummyMain {
			continue
		}
		if endsWith(th.Entry.Method, methodSuffix) {
			if found == nil {
				found = th
			}
		}
	}
	if found == nil {
		t.Fatalf("no thread with entry %q; have %v", methodSuffix, threadNames(m))
	}
	return found
}

func threadNames(m *Model) []string {
	var out []string
	for _, th := range m.Threads {
		out = append(out, th.Name()+"/"+th.Origin)
	}
	return out
}

func endsWith(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

func TestLifecycleCallbacksAreECChildrenOfMain(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	for _, cb := range []string{"onCreate", "onStart", "onResume"} {
		th := findThread(t, m, "MainActivity."+cb)
		if th.Kind != KindEntryCallback {
			t.Errorf("%s kind = %v, want EC", cb, th.Kind)
		}
		if th.Parent != 0 {
			t.Errorf("%s parent = %d, want dummy main", cb, th.Parent)
		}
		if !th.Looper {
			t.Errorf("%s must run on the looper", cb)
		}
	}
}

func TestListenersAreECChildrenOfMain(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	for _, cb := range []string{"ClickListener.onClick", "LocListener.onLocationChanged"} {
		th := findThread(t, m, cb)
		if th.Kind != KindEntryCallback {
			t.Errorf("%s kind = %v, want EC", cb, th.Kind)
		}
		if th.Parent != 0 {
			t.Errorf("%s parent = %d, want dummy main (registered listeners are ECs)", cb, th.Parent)
		}
	}
}

func TestHandlerPostsArePCChildrenOfPoster(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	onClick := findThread(t, m, "ClickListener.onClick")
	hm := findThread(t, m, "MyHandler.handleMessage")
	job := findThread(t, m, "Job.run")
	if hm.Kind != KindPostedCallback || job.Kind != KindPostedCallback {
		t.Errorf("handleMessage/run kinds = %v/%v, want PC", hm.Kind, job.Kind)
	}
	if hm.Parent != onClick.ID {
		t.Errorf("handleMessage parent = %d, want onClick %d", hm.Parent, onClick.ID)
	}
	if job.Parent != onClick.ID {
		t.Errorf("Job.run parent = %d, want onClick %d", job.Parent, onClick.ID)
	}
	if !job.Looper {
		t.Error("posted Runnable runs on the looper")
	}
}

func TestServiceConnectionChildrenOfBinder(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	onStart := findThread(t, m, "MainActivity.onStart")
	for _, cb := range []string{"Conn.onServiceConnected", "Conn.onServiceDisconnected"} {
		th := findThread(t, m, cb)
		if th.Kind != KindPostedCallback {
			t.Errorf("%s kind = %v, want PC", cb, th.Kind)
		}
		if th.Parent != onStart.ID {
			t.Errorf("%s parent = %d, want onStart %d", cb, th.Parent, onStart.ID)
		}
	}
}

func TestReceiverChildOfRegistrar(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	onResume := findThread(t, m, "MainActivity.onResume")
	rcv := findThread(t, m, "Rcv.onReceive")
	if rcv.Parent != onResume.ID {
		t.Errorf("onReceive parent = %d, want onResume %d", rcv.Parent, onResume.ID)
	}
}

func TestAsyncTaskShape(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	olc := findThread(t, m, "LocListener.onLocationChanged")
	body := findThread(t, m, "LoadTask.doInBackground")
	if body.Kind != KindTaskBody {
		t.Errorf("doInBackground kind = %v, want task-body", body.Kind)
	}
	if body.Parent != olc.ID {
		t.Errorf("doInBackground parent = %d, want onLocationChanged %d", body.Parent, olc.ID)
	}
	if body.Looper {
		t.Error("doInBackground is a background thread, not a looper callback")
	}
	for _, cb := range []string{"LoadTask.onPreExecute", "LoadTask.onPostExecute", "LoadTask.onProgressUpdate"} {
		th := findThread(t, m, cb)
		if th.Parent != body.ID {
			t.Errorf("%s parent = %d, want doInBackground %d", cb, th.Parent, body.ID)
		}
		if th.Kind != KindPostedCallback {
			t.Errorf("%s kind = %v, want PC", cb, th.Kind)
		}
	}
}

func TestNativeThreadChildOfStarter(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	onStart := findThread(t, m, "MainActivity.onStart")
	w := findThread(t, m, "Worker.run")
	if w.Kind != KindNativeThread {
		t.Errorf("Worker.run kind = %v, want native thread", w.Kind)
	}
	if w.Parent != onStart.ID {
		t.Errorf("Worker.run parent = %d, want onStart %d", w.Parent, onStart.ID)
	}
	if w.Looper {
		t.Error("native threads do not run on the looper")
	}
}

func TestStatsMatchFigure3(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	s := m.Stats()
	// ECs: onCreate, onStart, onResume, onClick, onLocationChanged.
	if s.EC != 5 {
		t.Errorf("EC = %d, want 5 (%v)", s.EC, threadNames(m))
	}
	// PCs: handleMessage, Job.run, SC, SD, onReceive, pre, post, progress.
	if s.PC != 8 {
		t.Errorf("PC = %d, want 8 (%v)", s.PC, threadNames(m))
	}
	// T: dummy main + doInBackground + Worker.
	if s.T != 3 {
		t.Errorf("T = %d, want 3 (%v)", s.T, threadNames(m))
	}
}

func TestLineageMentionsAncestors(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	prog := findThread(t, m, "LoadTask.onProgressUpdate")
	lin := m.Lineage(prog.ID)
	for _, part := range []string{"main", "onLocationChanged", "doInBackground", "onProgressUpdate"} {
		if !containsStr(lin, part) {
			t.Errorf("lineage %q missing %q", lin, part)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	olc := findThread(t, m, "LocListener.onLocationChanged")
	prog := findThread(t, m, "LoadTask.onProgressUpdate")
	if !m.IsAncestor(0, prog.ID) {
		t.Error("dummy main is an ancestor of everything")
	}
	if !m.IsAncestor(olc.ID, prog.ID) {
		t.Error("onLocationChanged must be an ancestor of onProgressUpdate")
	}
	if m.IsAncestor(prog.ID, olc.ID) {
		t.Error("ancestry must not be symmetric")
	}
}

// buildPostCycleApp builds two runnables that post each other forever.
func buildPostCycleApp(t *testing.T) *apk.Package {
	t.Helper()
	b := appbuilder.New("cycle")
	act := b.Activity("app/A")
	act.Field("handler", "app/H")
	h := b.HandlerClass("app/H")

	// Ping posts Pong, Pong posts Ping, forever.
	ping := b.Runnable("app/Ping")
	pong := b.Runnable("app/Pong")
	ping.Field("h", "app/H")
	pong.Field("h", "app/H")
	pr := ping.Method("run", 0)
	hh := pr.GetThis("h")
	po := pr.New("app/Pong")
	pr.PutField(po, "app/Pong", "h", hh)
	pr.InvokeVoid(hh, "app/H", "post", po)
	pr.Return()
	qr := pong.Method("run", 0)
	qh := qr.GetThis("h")
	pi := qr.New("app/Ping")
	qr.PutField(pi, "app/Ping", "h", qh)
	qr.InvokeVoid(qh, "app/H", "post", pi)
	qr.Return()

	oc := act.Method("onCreate", 1)
	hr := oc.New("app/H")
	oc.PutThis("handler", hr)
	first := oc.New("app/Ping")
	oc.PutField(first, "app/Ping", "h", hr)
	oc.InvokeVoid(hr, "app/H", "post", first)
	oc.Return()
	_ = h

	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestPostCycleTerminates(t *testing.T) {
	m, err := Build(buildPostCycleApp(t), Options{MaxThreads: 512})
	if err != nil {
		t.Fatalf("cyclic posting must terminate, got %v", err)
	}
	if len(m.Threads) > 64 {
		t.Errorf("forest unexpectedly large: %d threads", len(m.Threads))
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestReachSharedHelper(t *testing.T) {
	b := appbuilder.New("shared")
	act := b.Activity("s/A")
	helper := act.Method("helper", 0)
	helper.Return()
	oc := act.Method("onCreate", 1)
	oc.InvokeThis("helper")
	oc.Return()
	orr := act.Method("onResume", 0)
	orr.InvokeThis("helper")
	orr.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, pkg)
	obj, ok := m.ComponentObj("s/A")
	if !ok {
		t.Fatal("component object missing")
	}
	target := MCtx{Method: "s/A.helper", Recv: obj}
	var names []string
	for _, th := range m.Threads {
		if slices.Contains(m.Reach(th.ID), target) {
			names = append(names, th.Entry.Method)
		}
	}
	if want := []string{"s/A.onCreate", "s/A.onResume"}; !slices.Equal(names, want) {
		t.Fatalf("helper reached by %v, want %v", names, want)
	}
}

func TestComponentObjUnknown(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	if _, ok := m.ComponentObj("no/Such"); ok {
		t.Error("unknown components must not resolve")
	}
}

func TestReachIsCached(t *testing.T) {
	m := mustModel(t, buildFigure3App(t))
	r1 := m.Reach(1)
	r2 := m.Reach(1)
	if len(r1) == 0 || &r1[0] != &r2[0] {
		t.Error("Reach must return the cached slice")
	}
}

// TestReachMatchesCallEdgeDFS checks every thread's Reach over the 30
// corpus apps and corpus.RandomSpec seeds 1–6: sorted by (method,
// receiver), duplicate-free, and equal to a depth-first search over the
// solver's call edges from the thread's entry.
func TestReachMatchesCallEdgeDFS(t *testing.T) {
	var pkgs []*apk.Package
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		pkgs = append(pkgs, app.Build())
	}
	for seed := uint64(1); seed <= 6; seed++ {
		pkgs = append(pkgs, corpus.RandomSpec(seed).Build())
	}
	for _, pkg := range pkgs {
		m := mustModel(t, pkg)
		adj := make(map[MCtx][]MCtx)
		for _, e := range m.PTS.CallEdges() {
			from := MCtx{e.CallerMethod, e.CallerRecv}
			adj[from] = append(adj[from], MCtx{e.CalleeMethod, e.CalleeRecv})
		}
		for _, th := range m.Threads {
			want := map[MCtx]bool{}
			if th.Kind != KindDummyMain {
				var visit func(MCtx)
				visit = func(mc MCtx) {
					if want[mc] {
						return
					}
					want[mc] = true
					for _, next := range adj[mc] {
						visit(next)
					}
				}
				visit(th.Entry)
			}
			got := m.Reach(th.ID)
			for i := 1; i < len(got); i++ {
				if a, b := got[i-1], got[i]; a.Method > b.Method || a.Method == b.Method && a.Recv >= b.Recv {
					t.Fatalf("%s thread %d: Reach not strictly sorted at %d: %v, %v", pkg.Name, th.ID, i, a, b)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s thread %d: Reach has %d contexts, DFS %d", pkg.Name, th.ID, len(got), len(want))
			}
			for _, mc := range got {
				if !want[mc] {
					t.Fatalf("%s thread %d: Reach has %v, DFS does not", pkg.Name, th.ID, mc)
				}
			}
		}
	}
}
