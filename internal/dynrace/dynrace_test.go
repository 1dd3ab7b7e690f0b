package dynrace

import (
	"strings"
	"testing"

	"nadroid"
	"nadroid/internal/cha"
	"nadroid/internal/corpus"
	"nadroid/internal/interp"
	"nadroid/internal/ir"
)

// runTrace executes one schedule with recording on. uiOnly models a
// CAFA/DroidRacer input generator: lifecycle and UI events can be
// driven, but rare system events (service disconnects, broadcasts,
// binder calls) cannot be forced by UI exploration.
func runTrace(t *testing.T, app string, schedule []int, uiOnly bool) *interp.TraceLog {
	t.Helper()
	a, ok := corpus.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	opts := interp.Options{Record: true}
	if uiOnly {
		opts.EventFilter = func(kind interp.EventKind, m *ir.Method, component string) bool {
			return m.Name != "onServiceDisconnected" &&
				kind != interp.ReceiverEvent &&
				kind != interp.BinderEvent
		}
	}
	pkg := a.Build()
	w := interp.NewWorld(pkg, cha.New(pkg.Program), opts)
	interp.Run(w, schedule)
	return w.Recorded()
}

func TestHBClosureSuppressesOrderedPairs(t *testing.T) {
	log := &interp.TraceLog{
		TaskNames: []string{"t0", "t1", "t2"},
		HB:        [][2]int{{0, 1}, {1, 2}},
		Accesses: []interp.AccessEvent{
			{Task: 0, Instr: ir.InstrID{Method: "C.m", Index: 0}, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 7},
			{Task: 2, Instr: ir.InstrID{Method: "C.n", Index: 0}, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 7, IsWrite: true, IsNull: true},
		},
	}
	if races := Analyze(log, Options{UseFreeOnly: true}); len(races) != 0 {
		t.Errorf("transitively ordered tasks must not race: %v", races)
	}
}

func TestUnorderedUseFreePairRaces(t *testing.T) {
	log := &interp.TraceLog{
		TaskNames: []string{"use-task", "free-task"},
		Accesses: []interp.AccessEvent{
			{Task: 0, Instr: ir.InstrID{Method: "C.m", Index: 0}, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 7},
			{Task: 1, Instr: ir.InstrID{Method: "C.n", Index: 0}, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 7, IsWrite: true, IsNull: true},
		},
	}
	races := Analyze(log, Options{UseFreeOnly: true})
	if len(races) != 1 {
		t.Fatalf("races = %v, want 1", races)
	}
	if races[0].UseTask != "use-task" || races[0].FreeTask != "free-task" {
		t.Errorf("task attribution wrong: %+v", races[0])
	}
}

func TestDifferentObjectsDoNotRace(t *testing.T) {
	log := &interp.TraceLog{
		TaskNames: []string{"a", "b"},
		Accesses: []interp.AccessEvent{
			{Task: 0, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 1},
			{Task: 1, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 2, IsWrite: true, IsNull: true},
		},
	}
	if races := Analyze(log, Options{UseFreeOnly: true}); len(races) != 0 {
		t.Errorf("distinct runtime objects must not race: %v", races)
	}
}

func TestUseFreeOnlyExcludesNonNullWrites(t *testing.T) {
	log := &interp.TraceLog{
		TaskNames: []string{"a", "b"},
		Accesses: []interp.AccessEvent{
			{Task: 0, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 1},
			{Task: 1, Field: ir.FieldRef{Class: "C", Name: "f"}, Obj: 1, IsWrite: true, IsNull: false},
		},
	}
	if races := Analyze(log, Options{UseFreeOnly: true}); len(races) != 0 {
		t.Errorf("non-null writes are not frees: %v", races)
	}
	if races := Analyze(log, Options{}); len(races) != 1 {
		t.Errorf("general mode must keep the read-write pair: %v", races)
	}
}

// The §2.3 coverage experiment: a UI-exploration-driven dynamic detector
// cannot trigger service disconnects, so it observes none of ConnectBot's
// 13 service UAFs (CAFA reported zero on real ConnectBot); the static
// pipeline reports all 13. With full system-event injection the dynamic
// detector does see them — the inputs, not the algorithm, are the limit.
func TestCoverageGapOnConnectBot(t *testing.T) {
	countSeeded := func(races []Race) int {
		n := 0
		for _, r := range races {
			if strings.HasPrefix(r.Field.Name, "f_svc") || strings.HasPrefix(r.Field.Name, "f_post") {
				n++
			}
		}
		return n
	}
	uiDriven := countSeeded(Analyze(runTrace(t, "ConnectBot", nil, true), Options{UseFreeOnly: true}))
	fullInject := countSeeded(Analyze(runTrace(t, "ConnectBot", nil, false), Options{UseFreeOnly: true}))

	app, _ := corpus.ByName("ConnectBot")
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats

	if st.AfterUnsound != 13 {
		t.Fatalf("static survivors = %d, want 13", st.AfterUnsound)
	}
	if uiDriven != 0 {
		t.Errorf("UI-driven dynamic coverage = %d, want 0 (disconnects cannot be forced)", uiDriven)
	}
	if fullInject != 13 {
		t.Errorf("full-injection dynamic coverage = %d, want 13", fullInject)
	}
	t.Logf("dynamic coverage: UI-driven %d/13, full system-event injection %d/13, static 13/13", uiDriven, fullInject)
}

// Unioning traces across schedules grows coverage monotonically.
func TestUnionGrowsCoverage(t *testing.T) {
	base := Analyze(runTrace(t, "ConnectBot", nil, true), Options{UseFreeOnly: true})
	grown := Union(base)
	for i := 0; i < 6; i++ {
		log := runTrace(t, "ConnectBot", []int{i, i + 1, i * 3, 2, 1}, true)
		grown = Union(grown, Analyze(log, Options{UseFreeOnly: true}))
	}
	if len(grown) < len(base) {
		t.Errorf("union shrank: %d -> %d", len(base), len(grown))
	}
}
