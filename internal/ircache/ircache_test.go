package ircache

import (
	"strings"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/escape"
	"nadroid/internal/threadify"
)

// encode models pkg and encodes it with its escape result, after
// mutate (when non-nil) has edited the model.
func encode(t *testing.T, pkg *apk.Package, mutate func(m *threadify.Model)) []byte {
	t.Helper()
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("%s: %v", pkg.Name, err)
	}
	esc := escape.Analyze(m)
	if mutate != nil {
		mutate(m)
	}
	return Encode(pkg, m, esc)
}

// TestDecodeAcceptsCorpus round-trips every corpus app and random specs
// 1–40: the thread forests the modeler builds pass Decode's checks.
func TestDecodeAcceptsCorpus(t *testing.T) {
	apps := append(corpus.Apps(), corpus.AsyncApps()...)
	for seed := uint64(1); seed <= 40; seed++ {
		apps = append(apps, corpus.App{Spec: corpus.RandomSpec(seed)})
	}
	for _, app := range apps {
		if _, err := Decode(encode(t, app.Build(), nil)); err != nil {
			t.Errorf("%s: %v", app.Name(), err)
		}
	}
}

// TestDecodeRejectsBrokenThreadForest corrupts one thread or component
// object of ConnectBot's model per case. Each blob is well-formed, but
// the restored model would send the pipeline out of range, so Decode
// must reject it.
func TestDecodeRejectsBrokenThreadForest(t *testing.T) {
	last := func(m *threadify.Model) *threadify.Thread { return m.Threads[len(m.Threads)-1] }
	cases := []struct {
		name   string
		mutate func(m *threadify.Model)
		want   string
	}{
		{"parent out of range", func(m *threadify.Model) { last(m).Parent = 9999 }, "parent 9999"},
		{"parent not earlier", func(m *threadify.Model) { m.Threads[1].Parent = 1 }, "thread 1 has parent 1"},
		{"second root", func(m *threadify.Model) { m.Threads[1].Parent = -1 }, "thread 1 has parent -1"},
		{"root with a parent", func(m *threadify.Model) { m.Threads[0].Parent = 0 }, "thread 0 has parent 0"},
		{"ID off its index", func(m *threadify.Model) { m.Threads[2].ID = 3 }, "thread 2 has ID 3"},
		{"receiver past the table", func(m *threadify.Model) { last(m).Entry.Recv = 1 << 20 }, "receiver 1048576"},
		{"negative receiver", func(m *threadify.Model) { last(m).Entry.Recv = -1 }, "receiver -1"},
		{"component object past the table", func(m *threadify.Model) {
			objs := m.ComponentObjs()
			for cls := range objs {
				objs[cls] = 1 << 20
			}
		}, "object 1048576"},
	}
	app, _ := corpus.ByName("ConnectBot")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(encode(t, app.Build(), c.mutate))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Decode error = %v, want one naming %q", err, c.want)
			}
		})
	}
}
