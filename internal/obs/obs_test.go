package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	rctx, root := Start(ctx, "analyze", KV("app", "Mms"))
	cctx, child := Start(rctx, "modeling")
	_, grand := Start(cctx, "pointsto.solve", KV("k", 2))
	grand.End()
	child.End()
	_, sib := Start(rctx, "detection")
	sib.SetAttr("pairs", 7)
	sib.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "analyze" {
		t.Fatalf("roots = %v, want one analyze root", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "modeling" || kids[1].Name() != "detection" {
		t.Fatalf("children = %v, want [modeling detection]", kids)
	}
	gk := kids[0].Children()
	if len(gk) != 1 || gk[0].Name() != "pointsto.solve" {
		t.Fatalf("grandchildren = %v, want [pointsto.solve]", gk)
	}
	if got := tr.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4", got)
	}
	if roots[0].Duration() < kids[0].Duration() {
		t.Fatalf("root duration %v shorter than child %v", roots[0].Duration(), kids[0].Duration())
	}
	var foundAttr bool
	for _, a := range kids[1].Attrs() {
		if a.Key == "pairs" {
			foundAttr = true
		}
	}
	if !foundAttr {
		t.Fatal("SetAttr(pairs) not recorded on detection span")
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx, span := Start(context.Background(), "orphan", KV("x", 1))
	if span != nil {
		t.Fatalf("Start without tracer returned span %v, want nil", span)
	}
	// Every method must be nil-safe.
	span.End()
	span.SetAttr("k", "v")
	_ = span.Name()
	_ = span.Duration()
	_ = span.Children()
	_ = span.Attrs()
	// And counters without a Metrics must not panic either.
	Add(ctx, "pointsto_iterations", 3)
}

func TestSpanLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(3)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, s := Start(ctx, "schedule")
		s.End()
	}
	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3 (limit)", got)
	}
	if got := tr.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
	if !strings.Contains(tr.Tree(), "dropped") {
		t.Fatal("Tree() does not mention dropped spans")
	}
}

func TestChromeTraceJSON(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	rctx, root := Start(ctx, "analyze")
	_, child := Start(rctx, "modeling", KV("threads", 4))
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	data, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			PID  int                    `json:"pid"`
			TID  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("ChromeTrace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	byName := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph=%q, want X (complete)", ev.Name, ev.Ph)
		}
		byName[ev.Name] = true
	}
	if !byName["analyze"] || !byName["modeling"] {
		t.Fatalf("events %v, want analyze and modeling", byName)
	}
}

func TestNodesRelativeStarts(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	rctx, root := Start(ctx, "root")
	time.Sleep(time.Millisecond)
	_, c := Start(rctx, "late")
	c.End()
	root.End()

	nodes := tr.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(nodes))
	}
	if nodes[0].StartUS != 0 {
		t.Fatalf("root StartUS = %d, want 0 (relative to earliest span)", nodes[0].StartUS)
	}
	if len(nodes[0].Children) != 1 || nodes[0].Children[0].StartUS <= 0 {
		t.Fatalf("child node = %+v, want positive relative start", nodes[0].Children)
	}
}

func TestMetricsConcurrentAdd(t *testing.T) {
	m := NewMetrics()
	ctx := WithMetrics(context.Background(), m)
	const workers, perWorker = 8, 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Add(ctx, "shared", 1)
			}
		}()
	}
	wg.Wait()

	if got := m.Get("shared"); got != workers*perWorker {
		t.Fatalf("shared = %d, want %d", got, workers*perWorker)
	}
	snap := m.Snapshot()
	snap["shared"] = -1 // snapshots are copies, not views
	if m.Get("shared") == -1 {
		t.Fatal("Snapshot aliases the live counter map")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	rctx, root := Start(ctx, "root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, s := Start(rctx, "worker-span")
				s.SetAttr("i", i)
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := tr.SpanCount(); got != 801 {
		t.Fatalf("SpanCount = %d, want 801", got)
	}
	if got := len(tr.Roots()[0].Children()); got != 800 {
		t.Fatalf("root children = %d, want 800", got)
	}
}

func TestLoggerDefaultIsNoop(t *testing.T) {
	l := Logger(context.Background())
	if l == nil {
		t.Fatal("Logger returned nil")
	}
	l.Info("must not panic", "k", "v")
	if l.Enabled(context.Background(), 8) {
		t.Fatal("discard logger claims to be enabled")
	}
}
