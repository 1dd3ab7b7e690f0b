package nadroid_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/explore"
)

func TestAnalyzeContextCanceledBeforeStart(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing corpus app")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := nadroid.AnalyzeContext(ctx, app.Build(), nadroid.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled run must not return a partial result")
	}
}

// phaseCountingCtx is a context whose Err() starts failing after a set
// number of polls. AnalyzeContext polls ctx.Err() once per phase
// boundary (modeling, detection, filtering, validation — in that
// order), so failing on the Nth poll pins cancellation to a specific
// boundary deterministically.
type phaseCountingCtx struct {
	polls     atomic.Int64
	failAfter int64
}

func (c *phaseCountingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *phaseCountingCtx) Done() <-chan struct{}       { return nil }
func (c *phaseCountingCtx) Value(interface{}) interface{} {
	return nil
}
func (c *phaseCountingCtx) Err() error {
	if c.polls.Add(1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeContextAbortsBeforeValidation cancels an in-flight
// analysis at the boundary between filtering and validation: the first
// three phases run, the validation phase is never entered, and the
// explorer never executes a schedule.
func TestAnalyzeContextAbortsBeforeValidation(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing corpus app")
	}
	// Polls 1-3 guard modeling/detection/filtering; poll 4 guards
	// validation and is the first to observe the cancellation.
	ctx := &phaseCountingCtx{failAfter: 3}
	res, err := nadroid.AnalyzeContext(ctx, app.Build(), nadroid.Options{
		Validate: true,
		Explore:  explore.Options{MaxSchedules: 1_000_000},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled run must not return a partial result")
	}
	// Exactly four polls: the pre-validation check tripped, so the
	// schedule explorer (which polls before every execution) never ran.
	if got := ctx.polls.Load(); got != 4 {
		t.Errorf("ctx polled %d times, want 4 (abort at the validation boundary)", got)
	}
}

// TestAnalyzeContextUncanceledMatchesAnalyze pins the wrapper contract:
// Analyze is AnalyzeContext under a background context.
func TestAnalyzeContextUncanceledMatchesAnalyze(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing corpus app")
	}
	res, err := nadroid.AnalyzeContext(context.Background(), app.Build(), nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AfterUnsound != 13 {
		t.Errorf("surviving = %d, want 13", res.Stats.AfterUnsound)
	}
}

// TestValidateAllContextDeadline verifies the explorer's per-schedule
// cancellation: an already-expired deadline stops the sweep immediately
// instead of burning the schedule budget.
func TestValidateAllContextDeadline(t *testing.T) {
	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing corpus app")
	}
	res, err := nadroid.Analyze(app.Build(), nadroid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	vals, err := explore.ValidateAllDetailed(ctx, app.Build(), res.Model, res.Detection.Alive(),
		explore.Options{MaxSchedules: 1_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if len(vals) != 0 {
		t.Errorf("validations = %d before any schedule ran, want 0", len(vals))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("expired deadline took %v to stop the sweep", elapsed)
	}
}
