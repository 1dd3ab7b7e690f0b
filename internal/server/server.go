// Package server is the nadroid-serve subsystem: an HTTP JSON API that
// runs the nAdroid pipeline as a service. Requests (dexasm payloads or
// corpus app names) flow through a bounded worker pool with a FIFO
// queue; results are memoized in a content-addressed LRU cache keyed by
// canonical program text + normalized options; every job gets a
// cancelable context with an optional deadline that the pipeline
// honors between phases (and per schedule during validation).
//
// Endpoints:
//
//	POST   /v1/analyze             analyze (sync; ?async=true returns a job ID)
//	GET    /v1/jobs/{id}           job status + result
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/trace     span tree of a finished job (?format=chrome)
//	GET    /v1/apps                corpus listing
//	GET    /v1/apps/{app}/runs     stored analysis history (requires Config.Store)
//	GET    /v1/apps/{app}/diff     delta between two runs (?from=&to=, default latest pair)
//	GET    /v1/apps/{app}/warnings/{fp}/explain
//	                               provenance record of one warning (?format=text renders
//	                               the human tree; fp may be a unique prefix)
//	GET    /healthz                liveness + build info JSON
//	GET    /metrics                plain-text counters, histograms, pipeline families
//	GET    /debug/pprof/*          Go profiler (only with Config.EnablePprof)
//
// With Config.Store set, every completed analysis is persisted as a
// run record (the disk tier of the result cache — a restarted service
// serves previously analyzed programs as cache hits), results are
// filtered through the app's baseline when one exists, and the
// run-history endpoints come alive.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"nadroid"
	"nadroid/internal/apk"
	"nadroid/internal/buildinfo"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/evidence"
	"nadroid/internal/obs"
	"nadroid/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the analysis concurrency (default 4).
	Workers int
	// PipelineWorkers bounds each job's validation sweep (warnings
	// validated concurrently); the rest of a job's pipeline is
	// sequential. Default: NumCPU/Workers, at least 1, so concurrent
	// jobs share the machine instead of each fanning out to every core.
	// Worker counts never change analysis results.
	PipelineWorkers int
	// QueueDepth bounds the FIFO job queue (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// DefaultTimeout applies to jobs that set no timeout_ms; zero means
	// no deadline.
	DefaultTimeout time.Duration
	// MaxDexasmBytes bounds the request body (default 8 MiB).
	MaxDexasmBytes int64
	// SpanLimit bounds each job's trace to this many spans (0 =
	// obs.DefaultSpanLimit). Spans past the budget are counted rather
	// than recorded: the trace response reports them as "dropped" and
	// /metrics grows nadroid_pipeline_spans_dropped.
	SpanLimit int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiler exposes stack traces and should not face
	// untrusted traffic.
	EnablePprof bool
	// Logger receives structured job lifecycle logs (job id, app, phase
	// timings). Nil means no logging.
	Logger *slog.Logger
	// Store, when non-nil, persists every completed analysis and backs
	// the run-history and diff endpoints. On startup the result cache is
	// warm-started from the store's payloads.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.PipelineWorkers <= 0 {
		c.PipelineWorkers = runtime.NumCPU() / c.Workers
		if c.PipelineWorkers < 1 {
			c.PipelineWorkers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxDexasmBytes <= 0 {
		c.MaxDexasmBytes = 8 << 20
	}
	return c
}

// Server implements http.Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	pool    *Pool
	metrics *Metrics
	store   *store.Store
	mux     *http.ServeMux
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		metrics: NewMetrics(),
		store:   cfg.Store,
	}
	s.warmStart()
	s.pool = NewPool(cfg.Workers, cfg.QueueDepth, s.metrics)
	s.pool.spanLimit = cfg.SpanLimit
	if cfg.Logger != nil {
		s.pool.SetLogger(cfg.Logger)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/apps", s.handleApps)
	s.mux.HandleFunc("/v1/apps/", s.handleAppHistory)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// warmStart preloads the result cache from the store's persisted
// payloads so a restarted service answers previously analyzed programs
// without recomputing. Newest runs win the LRU budget.
func (s *Server) warmStart() {
	if s.store == nil {
		return
	}
	runs := s.store.All() // newest first
	if len(runs) > s.cfg.CacheEntries {
		runs = runs[:s.cfg.CacheEntries]
	}
	loaded := 0
	// Insert oldest-to-newest so the newest run ends most recently used.
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		if len(r.Payload) == 0 {
			continue
		}
		var res ResultWire
		if err := json.Unmarshal(r.Payload, &res); err != nil {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("store payload unreadable, skipping warm start entry",
					"run", r.ID, "error", err)
			}
			continue
		}
		s.applyStoreBaseline(&res)
		s.cache.Put(CacheKey(r.ID), &res)
		loaded++
	}
	s.metrics.SetWarmLoaded(loaded)
	if s.cfg.Logger != nil && loaded > 0 {
		s.cfg.Logger.Info("warm-started result cache from store", "entries", loaded)
	}
}

// applyStoreBaseline suppresses baselined warnings in a result about to
// enter the cache. Stored runs stay pristine; the baseline is applied
// when a result is (re)materialized, so edits to a baseline take effect
// on the next analysis or restart without rewriting history.
func (s *Server) applyStoreBaseline(res *ResultWire) {
	if s.store == nil {
		return
	}
	base, ok := s.store.Baseline(res.App)
	if !ok {
		return
	}
	if n := ApplyBaseline(res, base); n > 0 {
		s.metrics.AddSuppressed(n)
	}
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the counter set (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the pool (see Pool.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error { return s.pool.Shutdown(ctx) }

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// resolveRequest turns an AnalyzeRequest into a package plus the
// canonical dexasm text that addresses its cache entry. Dexasm payloads
// are canonicalized by re-formatting the parsed package, so formatting
// differences (comments, blank lines, ordering the formatter fixes)
// cannot split cache entries for the same program.
func resolveRequest(req *AnalyzeRequest) (*apk.Package, string, error) {
	switch {
	case req.App != "" && req.Dexasm != "":
		return nil, "", errors.New("set exactly one of app or dexasm, not both")
	case req.App != "":
		app, ok := corpus.ByName(req.App)
		if !ok {
			return nil, "", fmt.Errorf("unknown corpus app %q (GET /v1/apps lists them)", req.App)
		}
		pkg := app.Build()
		return pkg, dexasm.Format(pkg), nil
	case req.Dexasm != "":
		pkg, err := dexasm.Parse(req.Dexasm)
		if err != nil {
			return nil, "", err
		}
		return pkg, dexasm.Format(pkg), nil
	default:
		return nil, "", errors.New("set app (corpus name) or dexasm (program text)")
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req AnalyzeRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxDexasmBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	pkg, canonical, err := resolveRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.Options.Check(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := ResultKey(canonical, req.Options)
	if res, ok := s.cache.Get(key); ok {
		hit := *res
		hit.Cached = true
		writeJSON(w, http.StatusOK, &hit)
		return
	}
	// Disk tier: a run persisted by an earlier process (or evicted from
	// the LRU) still answers without re-analysis.
	if res, ok := s.storedResult(key); ok {
		s.cache.Put(key, res)
		hit := *res
		hit.Cached = true
		writeJSON(w, http.StatusOK, &hit)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	opts := req.Options.ToOptions()
	opts.Workers = s.cfg.PipelineWorkers
	digest := store.IRDigest(canonical)
	if s.store != nil {
		// Store-backed servers run warm by default: modeled IR and witness
		// outcomes are reused across processes keyed by the program digest.
		opts.Store = s.store
		opts.IRCache = true
		// Store-backed servers also diff automatically: a changed program
		// anchors on the nearest stored run and re-analyzes only deltas.
		opts.Incremental = true
		opts.IRDigest = digest
	}
	appName := pkg.Name
	job, err := s.pool.Submit(appName, timeout, func(ctx context.Context) (*ResultWire, error) {
		res, err := nadroid.AnalyzeContext(ctx, pkg, opts)
		if err != nil {
			return nil, err
		}
		out := EncodeResult(appName, res)
		s.metrics.ObserveTiming(out.Timing)
		if res.Detect != nil {
			s.metrics.AddDetectorWarnings(res.Detect.Counts)
		}
		s.persistRun(key, req.Options, out, digest)
		s.applyStoreBaseline(out)
		s.cache.Put(key, out)
		return out, nil
	})
	if err != nil {
		status := http.StatusServiceUnavailable
		writeError(w, status, "%v", err)
		return
	}

	if r.URL.Query().Get("async") == "true" {
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}

	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client went away: stop burning CPU on its behalf.
		job.Cancel()
		<-job.Done()
	}
	st := job.Status()
	switch st.State {
	case StateDone:
		writeJSON(w, http.StatusOK, st.Result)
	case StateCanceled:
		writeError(w, http.StatusRequestTimeout, "analysis canceled: %s", st.Error)
	default:
		writeError(w, http.StatusInternalServerError, "analysis failed: %s", st.Error)
	}
}

// storedResult materializes a cached result from the store's disk tier.
func (s *Server) storedResult(key CacheKey) (*ResultWire, bool) {
	if s.store == nil {
		return nil, false
	}
	run, ok := s.store.Get(string(key))
	if !ok || len(run.Payload) == 0 {
		return nil, false
	}
	var res ResultWire
	if err := json.Unmarshal(run.Payload, &res); err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("store payload unreadable", "run", run.ID, "error", err)
		}
		return nil, false
	}
	s.applyStoreBaseline(&res)
	return &res, true
}

// persistRun writes a completed analysis to the store (pristine, before
// baseline suppression). Persistence failures are logged, never fatal:
// the analysis still answers from memory.
func (s *Server) persistRun(key CacheKey, opts OptionsWire, res *ResultWire, digest string) {
	if s.store == nil {
		return
	}
	run, err := StoreRun(key, opts, res, time.Now())
	if err == nil {
		run.IRDigest = digest
		err = s.store.Put(run)
	}
	if err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("persisting run failed", "app", res.App, "error", err)
	}
}

// handleAppHistory serves the store-backed per-app endpoints:
// GET /v1/apps/{app}/runs and GET /v1/apps/{app}/diff?from=&to=.
func (s *Server) handleAppHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/apps/")
	// The final segment selects the view; the app name may itself
	// contain slashes (dexasm package paths).
	cut := strings.LastIndex(rest, "/")
	if cut <= 0 {
		writeError(w, http.StatusNotFound, "want /v1/apps/{app}/runs or /v1/apps/{app}/diff")
		return
	}
	app, view := rest[:cut], rest[cut+1:]
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, "no store configured (start nadroid-serve with -store-dir)")
		return
	}
	if view == "explain" {
		// /v1/apps/{app}/warnings/{fp}/explain — the app name may contain
		// slashes, so split on the /warnings/ marker, not positionally.
		mark := strings.LastIndex(app, "/warnings/")
		if mark <= 0 {
			writeError(w, http.StatusNotFound, "want /v1/apps/{app}/warnings/{fingerprint}/explain")
			return
		}
		s.handleExplain(w, r, app[:mark], app[mark+len("/warnings/"):])
		return
	}
	switch view {
	case "runs":
		runs := s.store.Runs(app)
		if len(runs) == 0 {
			writeError(w, http.StatusNotFound, "no stored runs for app %q", app)
			return
		}
		out := make([]RunWire, 0, len(runs))
		for _, run := range runs {
			out = append(out, RunToWire(run))
		}
		writeJSON(w, http.StatusOK, out)
	case "diff":
		d, err := s.store.Diff(app, r.URL.Query().Get("from"), r.URL.Query().Get("to"))
		if err != nil {
			status := http.StatusBadRequest
			if len(s.store.Runs(app)) == 0 {
				status = http.StatusNotFound
			}
			writeError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, d)
	default:
		writeError(w, http.StatusNotFound, "unknown view %q (want runs or diff)", view)
	}
}

// handleExplain serves one warning's provenance record from the newest
// stored run that carries evidence for the fingerprint (or a unique
// prefix of it). Evidence exists only for runs analyzed with
// "provenance": true.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, app, fp string) {
	raw, runID, ok := s.store.EvidenceFor(app, fp)
	if !ok {
		writeError(w, http.StatusNotFound,
			"no evidence for warning %q in app %q (analyze with \"provenance\": true, or the prefix is ambiguous)", fp, app)
		return
	}
	var ev evidence.Evidence
	if err := json.Unmarshal(raw, &ev); err != nil {
		writeError(w, http.StatusInternalServerError, "stored evidence unreadable: %v", err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, ev.Render())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		App      string             `json:"app"`
		Run      string             `json:"run"`
		Evidence *evidence.Evidence `json:"evidence"`
	}{App: app, Run: runID, Evidence: &ev})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(id, "/")
	if id == "" || (sub != "" && sub != "trace") {
		writeError(w, http.StatusNotFound, "job id required")
		return
	}
	job, ok := s.pool.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if sub == "trace" {
		s.handleJobTrace(w, r, job)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, job.Status())
	case http.MethodDelete:
		job.Cancel()
		writeJSON(w, http.StatusOK, job.Status())
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE required")
	}
}

// handleJobTrace serves a finished job's span tree: a nested
// obs.SpanNode JSON document by default, or a Chrome trace_event file
// with ?format=chrome (load it in chrome://tracing or Perfetto).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request, job *Job) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	tr, ok := job.Trace()
	if !ok {
		writeError(w, http.StatusNotFound, "trace for job %q not available until the job finishes", job.ID)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		data, err := tr.ChromeTrace()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding trace: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Job      string           `json:"job"`
		Spans    int              `json:"spans"`
		Dropped  int              `json:"dropped,omitempty"`
		Counters map[string]int64 `json:"counters,omitempty"`
		Roots    []*obs.SpanNode  `json:"roots"`
	}{Job: job.ID, Spans: tr.SpanCount(), Dropped: tr.Dropped(), Counters: job.Pipeline(), Roots: tr.Nodes()})
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var out []AppWire
	for _, a := range corpus.Apps() {
		out = append(out, AppWire{Name: a.Name(), Group: a.Spec.Group, TrueHarmful: a.Spec.TrueTotal()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Get()
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		buildinfo.Info
	}{Status: "ok", Workers: s.cfg.Workers, Info: bi})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render(s.cache, s.store))
}
