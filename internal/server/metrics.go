// metrics.go keeps the service's observable state: monotonic job
// counters, gauges for queue/worker occupancy, the cache hit/miss pair,
// per-phase latency histograms fed from Result.Timing, and the deep
// pipeline counters (points-to iterations, Racy join facts, per-filter
// removals, schedules explored, …) merged in from every finished job's
// obs.Metrics. Rendering is a Prometheus-parseable plain-text format:
// every line is `name value` or `name{labels} value`, histogram buckets
// carry numeric-millisecond le labels, and output order is stable.
package server

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nadroid/internal/buildinfo"
	"nadroid/internal/store"
)

// histBounds are the histogram bucket upper bounds. Detection dominates
// wall-clock (§8.8), so the decades span sub-millisecond filtering up
// to multi-minute validation runs.
var histBounds = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	time.Minute,
}

// histogram is a fixed-bucket latency histogram; the slot past the last
// bound is +Inf.
type histogram struct {
	counts []uint64
	sum    time.Duration
	total  uint64
}

func (h *histogram) observe(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint64, len(histBounds)+1)
	}
	i := sort.Search(len(histBounds), func(i int) bool { return d <= histBounds[i] })
	h.counts[i]++
	h.sum += d
	h.total++
}

// Metrics aggregates everything GET /metrics renders.
type Metrics struct {
	mu sync.Mutex

	jobsQueued   uint64 // total ever enqueued
	jobsDone     uint64
	jobsFailed   uint64
	jobsCanceled uint64
	queueDepth   int // currently waiting
	running      int // currently executing

	suppressed uint64 // baseline-suppressed warnings across all results served
	warmLoaded int    // cache entries preloaded from the store at startup

	// detectors counts warnings per bug-family detector across every
	// completed analysis (nadroid_detector_warnings_total{detector=…}).
	detectors map[string]uint64

	// queueWait measures enqueue -> worker pickup latency, the signal
	// that the pool is undersized for the offered load.
	queueWait histogram

	phases map[string]*histogram
	// pipeline accumulates the per-job obs counter snapshots. Keys are
	// already metric-shaped (`name` or `name{label="v"}`) and are exported
	// under the nadroid_pipeline_ prefix.
	pipeline map[string]int64
}

// NewMetrics builds an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		phases:    make(map[string]*histogram),
		pipeline:  make(map[string]int64),
		detectors: make(map[string]uint64),
	}
}

// AddDetectorWarnings folds one analysis's per-detector warning counts
// into the service totals. Detectors that ran with zero warnings still
// register, so the family shows up in /metrics from its first run.
func (m *Metrics) AddDetectorWarnings(counts map[string]int) {
	m.mu.Lock()
	for name, n := range counts {
		m.detectors[name] += uint64(n)
	}
	m.mu.Unlock()
}

// MergePipeline folds one job's deep pipeline counters into the
// service totals.
func (m *Metrics) MergePipeline(snap map[string]int64) {
	m.mu.Lock()
	for k, v := range snap {
		m.pipeline[k] += v
	}
	m.mu.Unlock()
}

// JobQueued / JobStarted / JobFinished track the queue and worker gauges.
func (m *Metrics) JobQueued() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsQueued++
	m.queueDepth++
}

func (m *Metrics) JobStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth--
	m.running++
}

// JobFinished records a terminal state: "done", "failed", or "canceled".
func (m *Metrics) JobFinished(state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	switch state {
	case StateDone:
		m.jobsDone++
	case StateCanceled:
		m.jobsCanceled++
	default:
		m.jobsFailed++
	}
}

// ObserveQueueWait records how long one job sat in the queue before a
// worker picked it up.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.mu.Lock()
	m.queueWait.observe(d)
	m.mu.Unlock()
}

// AddSuppressed counts warnings a baseline hid from a materialized
// result.
func (m *Metrics) AddSuppressed(n int) {
	m.mu.Lock()
	m.suppressed += uint64(n)
	m.mu.Unlock()
}

// SetWarmLoaded records how many cache entries the store preloaded at
// startup.
func (m *Metrics) SetWarmLoaded(n int) {
	m.mu.Lock()
	m.warmLoaded = n
	m.mu.Unlock()
}

// ObserveTiming feeds one analysis's phase split into the histograms.
func (m *Metrics) ObserveTiming(t TimingWire) {
	m.mu.Lock()
	defer m.mu.Unlock()
	obs := func(phase string, msVal float64) {
		h := m.phases[phase]
		if h == nil {
			h = &histogram{}
			m.phases[phase] = h
		}
		h.observe(time.Duration(msVal * float64(time.Millisecond)))
	}
	obs("modeling", t.ModelingMS)
	obs("detection", t.DetectionMS)
	obs("filtering", t.FilteringMS)
	if t.ValidationMS > 0 {
		obs("validation", t.ValidationMS)
	}
}

// Snapshot is a point-in-time counter read, used by tests and the
// /metrics renderer.
type Snapshot struct {
	JobsQueued, JobsDone, JobsFailed, JobsCanceled uint64
	QueueDepth, Running                            int
}

// Counters returns the current job counters.
func (m *Metrics) Counters() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		JobsQueued: m.jobsQueued, JobsDone: m.jobsDone,
		JobsFailed: m.jobsFailed, JobsCanceled: m.jobsCanceled,
		QueueDepth: m.queueDepth, Running: m.running,
	}
}

// Render writes the plain-text exposition: build info, job/cache
// counters, store counters (when a store is configured), phase
// histograms, deep pipeline counters, and Go runtime gauges. Output
// order is stable across calls.
func (m *Metrics) Render(cache *Cache, st *store.Store) string {
	hits, misses := cache.Counters()
	bi := buildinfo.Get()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	goroutines := runtime.NumGoroutine()

	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "nadroid_build_info{version=%q,revision=%q,go=%q,k_default=\"%d\"} 1\n",
		bi.Version, bi.Revision, bi.GoVersion, bi.DefaultK)
	fmt.Fprintf(&b, "nadroid_jobs_queued_total %d\n", m.jobsQueued)
	fmt.Fprintf(&b, "nadroid_jobs_done_total %d\n", m.jobsDone)
	fmt.Fprintf(&b, "nadroid_jobs_failed_total %d\n", m.jobsFailed)
	fmt.Fprintf(&b, "nadroid_jobs_canceled_total %d\n", m.jobsCanceled)
	fmt.Fprintf(&b, "nadroid_queue_depth %d\n", m.queueDepth)
	fmt.Fprintf(&b, "nadroid_jobs_running %d\n", m.running)
	if m.queueWait.total > 0 {
		cum := uint64(0)
		for i, bound := range histBounds {
			cum += m.queueWait.counts[i]
			fmt.Fprintf(&b, "nadroid_queue_wait_bucket{le=%q} %d\n", leLabel(bound), cum)
		}
		cum += m.queueWait.counts[len(histBounds)]
		fmt.Fprintf(&b, "nadroid_queue_wait_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(&b, "nadroid_queue_wait_sum_ms %.3f\n", float64(m.queueWait.sum)/float64(time.Millisecond))
		fmt.Fprintf(&b, "nadroid_queue_wait_count %d\n", m.queueWait.total)
	}
	fmt.Fprintf(&b, "nadroid_cache_hits_total %d\n", hits)
	fmt.Fprintf(&b, "nadroid_cache_misses_total %d\n", misses)
	fmt.Fprintf(&b, "nadroid_cache_entries %d\n", cache.Len())
	fmt.Fprintf(&b, "nadroid_suppressed_warnings_total %d\n", m.suppressed)
	dets := make([]string, 0, len(m.detectors))
	for d := range m.detectors {
		dets = append(dets, d)
	}
	sort.Strings(dets)
	for _, d := range dets {
		fmt.Fprintf(&b, "nadroid_detector_warnings_total{detector=%q} %d\n", d, m.detectors[d])
	}
	if st != nil {
		sc := st.Counters()
		fmt.Fprintf(&b, "nadroid_store_hits_total %d\n", sc.Hits)
		fmt.Fprintf(&b, "nadroid_store_misses_total %d\n", sc.Misses)
		fmt.Fprintf(&b, "nadroid_store_puts_total %d\n", sc.Puts)
		fmt.Fprintf(&b, "nadroid_store_gc_removed_total %d\n", sc.GCRemoved)
		fmt.Fprintf(&b, "nadroid_store_load_errors_total %d\n", sc.LoadErrors)
		fmt.Fprintf(&b, "nadroid_store_runs %d\n", st.Len())
		fmt.Fprintf(&b, "nadroid_store_warm_loaded %d\n", m.warmLoaded)
		du := st.Usage()
		fmt.Fprintf(&b, "nadroid_store_bytes %d\n", du.Total)
		fmt.Fprintf(&b, "nadroid_ircache_bytes %d\n", du.IRCache)
	}

	phases := make([]string, 0, len(m.phases))
	for p := range m.phases {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		h := m.phases[p]
		cum := uint64(0)
		for i, bound := range histBounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "nadroid_phase_latency_bucket{phase=%q,le=%q} %d\n", p, leLabel(bound), cum)
		}
		cum += h.counts[len(histBounds)]
		fmt.Fprintf(&b, "nadroid_phase_latency_bucket{phase=%q,le=\"+Inf\"} %d\n", p, cum)
		fmt.Fprintf(&b, "nadroid_phase_latency_sum_ms{phase=%q} %.3f\n", p, float64(h.sum)/float64(time.Millisecond))
		fmt.Fprintf(&b, "nadroid_phase_latency_count{phase=%q} %d\n", p, h.total)
	}

	keys := make([]string, 0, len(m.pipeline))
	for k := range m.pipeline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "nadroid_pipeline_%s %d\n", k, m.pipeline[k])
	}

	fmt.Fprintf(&b, "nadroid_go_goroutines %d\n", goroutines)
	fmt.Fprintf(&b, "nadroid_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(&b, "nadroid_go_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(&b, "nadroid_go_gc_cycles_total %d\n", ms.NumGC)
	return b.String()
}

// leLabel renders a histogram bound as numeric milliseconds ("1", "10",
// …, "60000") — duration strings like "1ms" are not parseable by
// Prometheus-style scrapers.
func leLabel(bound time.Duration) string {
	return strconv.FormatFloat(float64(bound)/float64(time.Millisecond), 'f', -1, 64)
}
