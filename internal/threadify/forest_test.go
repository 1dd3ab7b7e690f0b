package threadify

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
)

// referenceForest grows a thread forest from the entry threads the way
// attachSpawnedThreads did with (thread, entry context, site)-keyed and
// caller-context-keyed maps, taking reach sets from a depth-first search
// over the solver's call edges.
func referenceForest(m *Model, entryThreads []*Thread, maxThreads int) ([]*Thread, error) {
	adj := make(map[MCtx][]MCtx)
	for _, e := range m.PTS.CallEdges() {
		from := MCtx{e.CallerMethod, e.CallerRecv}
		adj[from] = append(adj[from], MCtx{e.CalleeMethod, e.CalleeRecv})
	}
	reach := func(th *Thread) []MCtx {
		if th.Kind == KindDummyMain {
			return nil
		}
		seen := map[MCtx]bool{th.Entry: true}
		stack := []MCtx{th.Entry}
		for len(stack) > 0 {
			mc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[mc] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		out := make([]MCtx, 0, len(seen))
		for mc := range seen {
			out = append(out, mc)
		}
		slices.SortFunc(out, compareMCtx)
		return out
	}

	var threads []*Thread
	for _, th := range entryThreads {
		cp := *th
		threads = append(threads, &cp)
	}
	edges := m.PTS.SpawnEdges()
	type childKey struct {
		parent int
		entry  MCtx
		site   ir.InstrID
	}
	made := make(map[childKey]int)
	mkThread := func(parent int, kind Kind, tag int, entry MCtx, site ir.InstrID, looper bool, component string) {
		key := childKey{parent, entry, site}
		if _, ok := made[key]; ok {
			return
		}
		for a := parent; a >= 0; a = threads[a].Parent {
			if t := threads[a]; t.Entry == entry && t.Site == site {
				made[key] = a
				return
			}
		}
		th := &Thread{ID: len(threads), Kind: kind, Post: tagPostKind(tag), Origin: tagPostKind(tag).String(),
			Entry: entry, Parent: parent, Site: site, Looper: looper, Component: component}
		if tag == tagListener {
			th.Origin = "listener"
			th.Post = framework.PostNone
		}
		threads = append(threads, th)
		made[key] = th.ID
	}
	byCaller := make(map[MCtx][]int)
	for i, e := range edges {
		caller := MCtx{e.CallerMethod, e.CallerRecv}
		byCaller[caller] = append(byCaller[caller], i)
	}
	var spawns [][]int
	for changed := true; changed; {
		changed = false
		if len(threads) > maxThreads {
			return nil, fmt.Errorf("thread forest exceeded %d threads", maxThreads)
		}
		for tid := 0; tid < len(threads); tid++ {
			if tid == len(spawns) {
				var own []int
				for _, mc := range reach(threads[tid]) {
					own = append(own, byCaller[mc]...)
				}
				sort.Ints(own)
				spawns = append(spawns, own)
			}
			for _, i := range spawns[tid] {
				e := edges[i]
				site := ir.InstrID{Method: e.CallerMethod, Index: e.Site}
				entry := MCtx{e.TargetMethod, e.TargetRecv}
				before := len(threads)
				comp := threads[tid].Component
				switch e.Tag {
				case tagListener:
					mkThread(0, KindEntryCallback, e.Tag, entry, site, true, comp)
				case tagNative:
					mkThread(tid, KindNativeThread, e.Tag, entry, site, false, comp)
				case tagTaskBody:
					mkThread(tid, KindTaskBody, e.Tag, entry, site, false, comp)
				case tagTaskCallback:
					bodyEntry, ok := m.taskBodyEntry(e.TargetRecv)
					if !ok {
						break
					}
					bodyID, ok := made[childKey{tid, bodyEntry, site}]
					if !ok {
						break
					}
					mkThread(bodyID, KindPostedCallback, e.Tag, entry, site, true, comp)
				default:
					mkThread(tid, KindPostedCallback, e.Tag, entry, site, true, comp)
				}
				if len(threads) != before {
					changed = true
				}
			}
		}
	}
	return threads, nil
}

// TestForestMatchesMapReference checks, over the 30 corpus apps,
// corpus.RandomSpec seeds 1–6 and the Figure 3 and post-cycle fixtures,
// that the thread forest Build attaches through numbered contexts
// equals the one the map-keyed reference grows from the same entry
// threads, thread by thread.
func TestForestMatchesMapReference(t *testing.T) {
	pkgs := []*apk.Package{buildFigure3App(t), buildPostCycleApp(t)}
	for _, name := range corpus.Names() {
		app, _ := corpus.ByName(name)
		pkgs = append(pkgs, app.Build())
	}
	for seed := uint64(1); seed <= 6; seed++ {
		pkgs = append(pkgs, corpus.RandomSpec(seed).Build())
	}
	for _, pkg := range pkgs {
		si, err := PrepareSolve(pkg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := mustModel(t, pkg)
		want, err := referenceForest(m, m.Threads[:1+len(si.seeds)], 4096)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Name, err)
		}
		if len(m.Threads) != len(want) {
			t.Fatalf("%s: %d threads, the reference has %d", pkg.Name, len(m.Threads), len(want))
		}
		for i, th := range m.Threads {
			if !reflect.DeepEqual(*th, *want[i]) {
				t.Fatalf("%s: thread %d = %+v, the reference has %+v", pkg.Name, i, *th, *want[i])
			}
		}
	}
}
