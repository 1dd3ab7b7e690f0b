package detect

import (
	"reflect"
	"sort"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/threadify"
)

// ruleCandidates is the reference for the async walk: the two candidate
// rules the families were first written as, evaluated as a naive join
// over the facts they joined:
//
//	LeakCand(t, c) :- NativeThr(t), SpawnEdge(p, t), CallbackThr(p), CompOf(t, c), TornDown(c)
//	LostCand(t, c) :- PostedThr(t), SpawnEdge(p, t), BackgroundThr(p), CompOf(t, c), TornDown(c)
//
// It returns each rule's thread IDs, sorted and deduplicated.
func ruleCandidates(m *threadify.Model) (leak, lost []int) {
	native, posted := make(map[int]bool), make(map[int]bool)
	callback, background := make(map[int]bool), make(map[int]bool)
	type edge struct{ p, t int }
	var spawn []edge
	type owner struct {
		t int
		c string
	}
	var compOf []owner
	tornDown := make(map[string]bool)
	for _, t := range m.Threads {
		switch t.Kind {
		case threadify.KindNativeThread:
			native[t.ID] = true
			background[t.ID] = true
		case threadify.KindTaskBody:
			background[t.ID] = true
		case threadify.KindEntryCallback:
			callback[t.ID] = true
		case threadify.KindPostedCallback:
			callback[t.ID] = true
			if t.Post == framework.PostRunnable || t.Post == framework.PostSendMessage {
				posted[t.ID] = true
			}
		}
		if t.Parent >= 0 {
			spawn = append(spawn, edge{t.Parent, t.ID})
		}
		if t.Component != "" {
			compOf = append(compOf, owner{t.ID, t.Component})
			tornDown[t.Component] = declaresTeardown(m, t.Component)
		}
	}
	join := func(child, parent map[int]bool) []int {
		heads := make(map[int]bool)
		for t := range child {
			for _, e := range spawn {
				if e.t != t || !parent[e.p] {
					continue
				}
				for _, o := range compOf {
					if o.t == t && tornDown[o.c] {
						heads[t] = true
					}
				}
			}
		}
		var out []int
		for t := range heads {
			out = append(out, t)
		}
		sort.Ints(out)
		return out
	}
	return join(native, callback), join(posted, background)
}

// threadIDs lists the IDs of ts in order.
func threadIDs(ts []*threadify.Thread) []int {
	var out []int
	for _, t := range ts {
		out = append(out, t.ID)
	}
	return out
}

// handForest builds a thread forest holding every combination of child
// kind, post kind and parent kind, each child once without a component,
// once in a component without onDestroy, and once in a component that
// declares it. The corpus spawns no thread from a posted callback and
// posts no result from an AsyncTask body, so only this forest exercises
// those shapes.
func handForest() *threadify.Model {
	prog := ir.NewProgram()
	prog.AddClass(ir.NewClass("app/Plain", framework.Object))
	torn := ir.NewClass("app/Torn", framework.Object)
	torn.AddMethod(ir.NewMethod("app/Torn", "onDestroy", 0))
	prog.AddClass(torn)

	m := &threadify.Model{Pkg: &apk.Package{Name: "Hand", Program: prog}}
	add := func(k threadify.Kind, post framework.PostKind, parent int, comp string) int {
		id := len(m.Threads)
		m.Threads = append(m.Threads, &threadify.Thread{ID: id, Kind: k, Post: post, Parent: parent, Component: comp})
		return id
	}
	for pk := threadify.KindDummyMain; pk <= threadify.KindNativeThread; pk++ {
		p := add(pk, framework.PostNone, -1, "app/Torn")
		for ck := threadify.KindDummyMain; ck <= threadify.KindNativeThread; ck++ {
			for post := framework.PostNone; post <= framework.PostTimerSchedule; post++ {
				for _, comp := range []string{"", "app/Plain", "app/Torn"} {
					add(ck, post, p, comp)
				}
			}
		}
	}
	return m
}

// TestAsyncCandidatesMatchRules checks that the leaked-thread and
// lost-result walks select exactly the threads their candidate rules
// derive, on the hand-built forest, the 30 corpus apps and RandomSpec
// seeds 1–40.
func TestAsyncCandidatesMatchRules(t *testing.T) {
	models := map[string]*threadify.Model{"Hand": handForest()}
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	for seed := uint64(1); seed <= 40; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	for _, app := range apps {
		m, err := threadify.Build(app.Build(), threadify.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		models[app.Name()] = m
	}

	leaks, losts := 0, 0
	for name, m := range models {
		wantLeak, wantLost := ruleCandidates(m)
		if got := threadIDs(candidates(m, leakChild, leakParent)); !reflect.DeepEqual(got, wantLeak) {
			t.Errorf("%s: leaked-thread candidates = %v, rule derives %v", name, got, wantLeak)
		}
		if got := threadIDs(candidates(m, lostChild, lostParent)); !reflect.DeepEqual(got, wantLost) {
			t.Errorf("%s: lost-result candidates = %v, rule derives %v", name, got, wantLost)
		}
		if name == "Hand" && (len(wantLeak) == 0 || len(wantLost) == 0) {
			t.Errorf("hand-built forest derives %d leaked-thread and %d lost-result candidates, want some of each",
				len(wantLeak), len(wantLost))
		}
		leaks += len(wantLeak)
		losts += len(wantLost)
	}
	if leaks == 0 || losts == 0 {
		t.Errorf("rules derive %d leaked-thread and %d lost-result candidates in all, want some of each", leaks, losts)
	}
}
