package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingRun returns a run func that signals started and then blocks
// until released or its context is canceled.
func blockingRun(started chan<- string, release <-chan struct{}, id string) func(context.Context) (*ResultWire, error) {
	return func(ctx context.Context) (*ResultWire, error) {
		if started != nil {
			started <- id
		}
		select {
		case <-release:
			return &ResultWire{App: id}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestPoolRunsJobsFIFO(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 16, m)
	defer p.Shutdown(context.Background())

	var mu sync.Mutex
	var order []string
	var jobs []*Job
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		j, err := p.Submit(id, 0, func(ctx context.Context) (*ResultWire, error) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return &ResultWire{App: id}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "c" || order[3] != "d" {
		t.Errorf("execution order %v, want FIFO a b c d", order)
	}
	if c := m.Counters(); c.JobsDone != 4 || c.QueueDepth != 0 || c.Running != 0 {
		t.Errorf("counters %+v", c)
	}
}

// A job whose analysis panics ends failed with an error naming the
// panic, counts as a failed job, and the worker goes on to the job
// queued behind it.
func TestPoolPanickingJobFails(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 4, m)
	defer p.Shutdown(context.Background())

	bad, err := p.Submit("bad", 0, func(ctx context.Context) (*ResultWire, error) {
		panic("index out of range")
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := p.Submit("next", 0, func(ctx context.Context) (*ResultWire, error) {
		return &ResultWire{App: "next"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	<-next.Done()
	if st := bad.Status(); st.State != StateFailed || !strings.Contains(st.Error, "panicked: index out of range") {
		t.Errorf("panicking job: state %s, error %q; want failed, naming the panic", st.State, st.Error)
	}
	if st := next.Status(); st.State != StateDone || st.Result == nil || st.Result.App != "next" {
		t.Errorf("job after the panic: state %s, result %+v; want done", st.State, st.Result)
	}
	if c := m.Counters(); c.JobsFailed != 1 || c.JobsDone != 1 || c.Running != 0 {
		t.Errorf("counters %+v, want one failed and one done job", c)
	}
}

func TestPoolQueueFull(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 1, m)
	release := make(chan struct{})
	started := make(chan string, 8)
	defer func() {
		close(release)
		p.Shutdown(context.Background())
	}()

	// First job occupies the worker; second fills the queue slot.
	if _, err := p.Submit("run", 0, blockingRun(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := p.Submit("wait", 0, blockingRun(nil, release, "wait")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("reject", 0, blockingRun(nil, release, "reject")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestPoolCancelQueuedJob(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 4, m)
	release := make(chan struct{})
	started := make(chan string, 8)
	defer func() {
		close(release)
		p.Shutdown(context.Background())
	}()

	if _, err := p.Submit("blocker", 0, blockingRun(started, release, "blocker")); err != nil {
		t.Fatal(err)
	}
	<-started
	ran := false
	j, err := p.Submit("victim", 0, func(ctx context.Context) (*ResultWire, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	<-j.Done()
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	if ran {
		t.Error("canceled queued job must never run")
	}
}

func TestPoolCancelRunningJob(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 4, m)
	defer p.Shutdown(context.Background())

	started := make(chan string, 1)
	j, err := p.Submit("victim", 0, blockingRun(started, nil, "victim"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.Cancel()
	<-j.Done()
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled (err %q)", st.State, st.Error)
	}
	if c := m.Counters(); c.JobsCanceled != 1 {
		t.Errorf("canceled counter = %d, want 1", c.JobsCanceled)
	}
}

func TestPoolPerJobDeadline(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 4, m)
	defer p.Shutdown(context.Background())

	j, err := p.Submit("deadline", time.Millisecond, blockingRun(nil, nil, "deadline"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("deadline never fired")
	}
	st := j.Status()
	if st.State != StateFailed {
		t.Errorf("state = %s, want failed", st.State)
	}
	if !errors.Is(j.err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", j.err)
	}
}

func TestPoolShutdownDrainsQueuedWork(t *testing.T) {
	m := NewMetrics()
	p := NewPool(2, 16, m)
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := p.Submit("j", 0, func(ctx context.Context) (*ResultWire, error) {
			time.Sleep(time.Millisecond)
			return &ResultWire{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s state %s after drain, want done", st.ID, st.State)
		}
	}
	if _, err := p.Submit("late", 0, blockingRun(nil, nil, "late")); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("err = %v, want ErrShuttingDown", err)
	}
	// A second Shutdown is a no-op.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPoolShutdownDeadlineCancelsInFlight(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 4, m)
	started := make(chan string, 1)
	j, err := p.Submit("stuck", 0, blockingRun(started, nil, "stuck"))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	// The forced stop must have unwound the job.
	<-j.Done()
	if st := j.Status(); st.State != StateFailed && st.State != StateCanceled {
		t.Errorf("state = %s, want a terminal aborted state", st.State)
	}
}
