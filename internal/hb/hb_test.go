package hb

import (
	"strings"
	"testing"

	"nadroid/internal/appbuilder"
	"nadroid/internal/framework"
	"nadroid/internal/threadify"
)

// figure3Model builds a model with service, AsyncTask and lifecycle
// structure for exercising all three MHB families.
func figure3Model(t *testing.T) *threadify.Model {
	t.Helper()
	b := appbuilder.New("hb")
	act := b.Activity("hb/A")
	act.Field("view", framework.View)

	conn := b.ServiceConn("hb/Conn")
	conn.Method("onServiceConnected", 1).Return()
	conn.Method("onServiceDisconnected", 1).Return()

	task := b.AsyncTaskClass("hb/T")
	dib := task.Method("doInBackground", 0)
	dib.InvokeVoid(dib.This(), "hb/T", "publishProgress")
	dib.Return()
	task.Method("onPreExecute", 0).Return()
	task.Method("onProgressUpdate", 0).Return()
	task.Method("onPostExecute", 0).Return()

	oc := act.Method("onCreate", 1)
	tk := oc.New("hb/T")
	oc.InvokeVoid(tk, "hb/T", "execute")
	oc.Return()
	os := act.Method("onStart", 0)
	cn := os.New("hb/Conn")
	os.InvokeVoid(os.This(), "hb/A", "bindService", cn)
	os.Return()
	act.Method("onResume", 0).Return()
	act.Method("onPause", 0).Return()
	act.Method("onDestroy", 0).Return()

	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func findThread(t *testing.T, m *threadify.Model, suffix string) int {
	t.Helper()
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain && strings.HasSuffix(th.Entry.Method, suffix) {
			return th.ID
		}
	}
	t.Fatalf("no thread %q", suffix)
	return -1
}

func TestMHBService(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	sc := findThread(t, m, "onServiceConnected")
	sd := findThread(t, m, "onServiceDisconnected")
	if !g.HB(sc, sd) {
		t.Error("SC must happen before SD")
	}
	if g.HB(sd, sc) {
		t.Error("SD must not happen before SC")
	}
}

func TestMHBAsyncTask(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	pre := findThread(t, m, "onPreExecute")
	body := findThread(t, m, "doInBackground")
	prog := findThread(t, m, "onProgressUpdate")
	post := findThread(t, m, "onPostExecute")
	for _, c := range []struct{ a, b int }{
		{pre, body}, {pre, prog}, {pre, post}, {body, post}, {prog, post},
	} {
		if !g.HB(c.a, c.b) {
			t.Errorf("HB(%s, %s) expected", m.Threads[c.a].Name(), m.Threads[c.b].Name())
		}
	}
	if g.HB(post, pre) {
		t.Error("onPostExecute never precedes onPreExecute")
	}
}

func TestMHBLifecycle(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	create := findThread(t, m, "A.onCreate")
	resume := findThread(t, m, "A.onResume")
	pause := findThread(t, m, "A.onPause")
	destroy := findThread(t, m, "A.onDestroy")
	if !g.HB(create, resume) || !g.HB(create, destroy) {
		t.Error("onCreate precedes all entry callbacks")
	}
	if !g.HB(resume, destroy) || !g.HB(pause, destroy) {
		t.Error("all entry callbacks precede onDestroy")
	}
	// The back-button cycle: no order between onResume and onPause.
	if g.HB(resume, pause) || g.HB(pause, resume) {
		t.Error("onResume/onPause must stay unordered (§6.1.1)")
	}
}

func TestDummyMainPrecedesAll(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		if !g.HB(0, th.ID) {
			t.Errorf("dummy main must precede %s", th.Name())
		}
	}
}

func TestTransitivity(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	n := g.Size()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if !g.HB(a, b) {
				continue
			}
			for c := 0; c < n; c++ {
				if g.HB(b, c) && !g.HB(a, c) {
					t.Fatalf("transitivity violated: %d->%d->%d", a, b, c)
				}
			}
		}
	}
}

func TestMayHappenInParallel(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	resume := findThread(t, m, "A.onResume")
	pause := findThread(t, m, "A.onPause")
	create := findThread(t, m, "A.onCreate")
	// Two callbacks may happen in parallel when neither must happen
	// before the other.
	if g.HB(resume, pause) || g.HB(pause, resume) {
		t.Error("onResume and onPause are unordered, so they may happen in parallel")
	}
	if !g.HB(create, resume) {
		t.Error("onCreate must happen before onResume, so they cannot happen in parallel")
	}
}

func TestHBOutOfRange(t *testing.T) {
	m := figure3Model(t)
	g := BuildMHB(m)
	if g.HB(-1, 0) || g.HB(0, g.Size()+5) {
		t.Error("out-of-range queries must be false")
	}
}

// Lifecycle MHB is per component: two activities' onCreate/onDestroy do
// not order each other.
func TestLifecycleMHBIsPerComponent(t *testing.T) {
	b := appbuilder.New("two")
	for _, name := range []string{"t/A1", "t/A2"} {
		act := b.Activity(name)
		act.Method("onCreate", 1).Return()
		act.Method("onDestroy", 0).Return()
	}
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := BuildMHB(m)
	c1 := findThread(t, m, "A1.onCreate")
	d2 := findThread(t, m, "A2.onDestroy")
	if g.HB(c1, d2) || g.HB(d2, c1) {
		t.Error("different components' lifecycles must stay unordered")
	}
	c2 := findThread(t, m, "A2.onCreate")
	if !g.HB(c2, d2) {
		t.Error("same component's onCreate must precede onDestroy")
	}
}
