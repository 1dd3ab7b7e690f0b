// queue.go is the bounded worker pool behind nadroid-serve: submissions
// enter a FIFO channel, a fixed set of workers drains it, and every job
// carries its own cancelable context with an optional deadline. Sync
// requests are jobs the handler waits on; async requests return the job
// ID immediately. Shutdown closes the intake and drains what is already
// in flight.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"nadroid/internal/obs"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ErrQueueFull is returned when the FIFO queue is at capacity.
var ErrQueueFull = errors.New("job queue full")

// ErrShuttingDown is returned for submissions after Shutdown started.
var ErrShuttingDown = errors.New("server shutting down")

// Job is one queued analysis.
type Job struct {
	ID  string
	App string

	run     func(ctx context.Context) (*ResultWire, error)
	timeout time.Duration
	// enqueuedAt stamps Submit time; the queue-wait histogram measures
	// enqueue -> worker pickup.
	enqueuedAt time.Time

	mu       sync.Mutex
	state    string
	err      error
	result   *ResultWire
	cancel   context.CancelFunc
	canceled bool // cancel was requested (distinguishes cancel from deadline)
	// trace captures the job's span tree; pipeline its deep counters.
	// Both are set when the job starts running and are safe to export
	// once done is closed.
	trace    *obs.Tracer
	pipeline *obs.Metrics

	done chan struct{}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job for the wire.
func (j *Job) Status() JobWire {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := JobWire{ID: j.ID, State: j.state, App: j.App, Result: j.result}
	if j.err != nil {
		w.Error = j.err.Error()
	}
	return w
}

// Trace returns the job's recorded span tree. ok is false until the
// job reaches a terminal state (a half-built tree would render spans
// with garbage durations).
func (j *Job) Trace() (*obs.Tracer, bool) {
	select {
	case <-j.done:
	default:
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace, j.trace != nil
}

// Pipeline returns the job's deep pipeline counter snapshot (schedule
// executions, prune counts, cache hits, ...). Nil until the job reaches
// a terminal state.
func (j *Job) Pipeline() map[string]int64 {
	select {
	case <-j.done:
	default:
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pipeline == nil {
		return nil
	}
	return j.pipeline.Snapshot()
}

// Cancel requests cancellation: a queued job is terminally canceled in
// place; a running job has its context canceled and finishes as
// canceled when the pipeline unwinds. Terminal jobs are unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.canceled = true
		j.state = StateCanceled
		j.err = context.Canceled
		close(j.done)
	case StateRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// Pool runs jobs with a fixed worker count and a bounded FIFO queue.
type Pool struct {
	metrics *Metrics
	logger  *slog.Logger
	queue   chan *Job
	wg      sync.WaitGroup
	// spanLimit overrides each job tracer's span budget when positive.
	// Set before the first Submit (the queue channel publishes it to
	// workers).
	spanLimit int

	mu      sync.Mutex
	jobs    map[string]*Job
	nextID  uint64
	closed  bool
	baseCtx context.Context
	stop    context.CancelFunc
}

// NewPool starts workers goroutines over a queue of depth queueDepth.
func NewPool(workers, queueDepth int, metrics *Metrics) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		metrics: metrics,
		logger:  obs.Logger(context.Background()), // no-op until SetLogger
		queue:   make(chan *Job, queueDepth),
		jobs:    make(map[string]*Job),
		baseCtx: ctx,
		stop:    cancel,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// SetLogger installs the structured logger used for job lifecycle
// events. Call before the first Submit.
func (p *Pool) SetLogger(l *slog.Logger) {
	if l != nil {
		p.logger = l
	}
}

// Submit enqueues an analysis; timeout <= 0 means no per-job deadline.
func (p *Pool) Submit(app string, timeout time.Duration, run func(ctx context.Context) (*ResultWire, error)) (*Job, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrShuttingDown
	}
	p.nextID++
	j := &Job{
		ID:         fmt.Sprintf("job-%08d", p.nextID),
		App:        app,
		run:        run,
		timeout:    timeout,
		enqueuedAt: time.Now(),
		state:      StateQueued,
		done:       make(chan struct{}),
	}
	p.jobs[j.ID] = j
	p.mu.Unlock()

	select {
	case p.queue <- j:
		p.metrics.JobQueued()
		return j, nil
	default:
		p.mu.Lock()
		delete(p.jobs, j.ID)
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// Job looks up a job by ID.
func (p *Pool) Job(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.runJob(j)
	}
}

func (p *Pool) runJob(j *Job) {
	p.metrics.ObserveQueueWait(time.Since(j.enqueuedAt))
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while waiting in the queue; its metrics slot still
		// needs to move queued -> finished.
		j.mu.Unlock()
		p.metrics.JobStarted()
		p.metrics.JobFinished(StateCanceled)
		return
	}
	ctx, cancel := context.WithCancel(p.baseCtx)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(p.baseCtx, j.timeout)
	}
	// Every job gets its own span tracer and counter set, plus a logger
	// stamped with the job/app identity, all carried down the pipeline
	// through the context.
	tracer := obs.NewTracer()
	if p.spanLimit > 0 {
		tracer.SetLimit(p.spanLimit)
	}
	pipeline := obs.NewMetrics()
	logger := p.logger.With("job", j.ID, "app", j.App)
	ctx = obs.WithTracer(ctx, tracer)
	ctx = obs.WithMetrics(ctx, pipeline)
	ctx = obs.WithLogger(ctx, logger)

	j.state = StateRunning
	j.cancel = cancel
	j.trace = tracer
	j.pipeline = pipeline
	j.mu.Unlock()
	p.metrics.JobStarted()
	logger.Info("job started")

	started := time.Now()
	res, err := runRecovered(ctx, j.run, logger)
	cancel()

	j.mu.Lock()
	j.result = res
	j.err = err
	switch {
	case err == nil:
		j.state = StateDone
	case j.canceled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	state := j.state
	// Record completion before j.mu releases the terminal state and
	// before done closes: a caller that sees either must find this job
	// in Counters() and /metrics.
	p.metrics.JobFinished(state)
	// A job whose span tree hit the tracer budget silently loses its
	// tail; surface the loss as a counter so truncated traces are
	// discoverable from /metrics, not just the per-job trace response.
	if n := tracer.Dropped(); n > 0 {
		pipeline.Add("spans_dropped", int64(n))
	}
	p.metrics.MergePipeline(pipeline.Snapshot())
	close(j.done)
	j.mu.Unlock()
	if err != nil {
		logger.Warn("job finished", "state", state, "ms", time.Since(started).Milliseconds(), "error", err)
	} else {
		logger.Info("job finished", "state", state, "ms", time.Since(started).Milliseconds(),
			"spans", tracer.SpanCount())
	}
}

// runRecovered calls run and turns a panic into an error naming it,
// after logging the stack, so that an analysis that panics fails its
// own job and the worker goes on to the next one.
func runRecovered(ctx context.Context, run func(context.Context) (*ResultWire, error), logger *slog.Logger) (res *ResultWire, err error) {
	defer func() {
		if r := recover(); r != nil {
			logger.Error("job panicked", "panic", r, "stack", string(debug.Stack()))
			res, err = nil, fmt.Errorf("analysis panicked: %v", r)
		}
	}()
	return run(ctx)
}

// Shutdown stops intake and waits for queued + running jobs to finish.
// If ctx expires first, in-flight jobs are canceled and Shutdown waits
// for them to unwind, returning ctx's error.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		p.stop() // cancel every in-flight job's base context
		<-drained
		return ctx.Err()
	}
}
