package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nadroid"
	"nadroid/internal/apk"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/escape"
	"nadroid/internal/explore"
	"nadroid/internal/incr"
	"nadroid/internal/ir"
	"nadroid/internal/ircache"
	"nadroid/internal/obs"
	"nadroid/internal/race"
	"nadroid/internal/store"
)

// k is the points-to depth every workload runs at (the default), which
// names the cache entries the store workloads read and delete.
const k = 2

// workload is one closed loop with a single client: the apps are
// analysed one at a time, each op starting when the previous returns.
type workload struct {
	name string
	// apps restricts the workload to these corpus apps; nil means all
	// 27 Table 1 apps.
	apps []string
	// validate runs the schedule explorer (3000 schedules per warning).
	validate bool
	// stored analyses against a store populated during set-up, with the
	// CLI's -store-dir defaults (IR cache and incremental on).
	stored bool
	// edit gives every op a fresh seeded unreachable one-method edit, so
	// each op re-analyses incrementally against the stored pristine run.
	edit bool
	// disposition is the Result.Disposition every op must report.
	disposition string
}

// validateApps are the apps under 40 KB of dexasm that keep at least one
// warning after filtering: small enough for the explorer to run a whole
// sweep in a fraction of a second, mixing apps where a witness is found
// with apps that exhaust the schedule budget.
var validateApps = []string{"ConnectBot", "Aard", "QKSMS", "Zxing", "PhotoAffix", "KissLauncher", "Dns66", "Solitaire"}

var workloads = []workload{
	{name: wCold, disposition: nadroid.DispositionCold},
	{name: wValidate, apps: validateApps, validate: true, disposition: nadroid.DispositionCold},
	{name: wWarm, validate: true, stored: true, disposition: nadroid.DispositionWarm},
	{name: wEdit, stored: true, edit: true, disposition: nadroid.DispositionIncremental},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) options(st *store.Store) nadroid.Options {
	var o nadroid.Options
	if w.validate {
		o.Validate = true
		o.Explore = explore.Options{MaxSchedules: 3000}
	}
	if w.stored {
		o.Store = st
		o.IRCache = true
		o.Incremental = true
	}
	return o
}

// config is one benchmark invocation.
type config struct {
	window time.Duration
	seed   int64
	trace  bool
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// only, when set, restricts every workload to these apps.
	only    []string
	goldens map[string]golden
}

// op is one app of a workload: the dexasm text its next run analyses
// and what that run must produce.
type op struct {
	app    string
	src    string
	digest string // store.IRDigest(src)
	// Edit-sweep only: the unedited text and its digest (the stored run
	// each op anchors on), where edits can go, and the method the
	// current src edits.
	pristine, baseDigest string
	sites                []editSite
	edited               string
	want                 expectation
}

// state is what set-up leaves for the measured window.
type state struct {
	w   workload
	ops []op
	st  *store.Store
	dir string
	// cold holds, per app, the escape result and access set of the
	// program (edit-sweep traces only); see replay.
	cold map[string]coldInputs
}

type coldInputs struct {
	esc      *escape.Result
	accesses []race.Access
}

func (s *state) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (c *config) appsFor(w workload) []string {
	names := w.apps
	if names == nil {
		for _, a := range corpus.Apps() {
			names = append(names, a.Name())
		}
	}
	if c.only == nil {
		return names
	}
	keep := make(map[string]bool)
	for _, n := range c.only {
		keep[n] = true
	}
	var out []string
	for _, n := range names {
		if keep[n] {
			out = append(out, n)
		}
	}
	return out
}

// setup builds the corpus, renders it to dexasm, populates the store
// for the store workloads, and runs one untimed warm-up sweep.
func (c *config) setup(w workload) (*state, error) {
	s := &state{w: w, cold: make(map[string]coldInputs)}
	for _, name := range c.appsFor(w) {
		app, ok := corpus.ByName(name)
		g, gok := c.goldens[name]
		if !ok || !gok {
			return nil, fmt.Errorf("%s: not a Table 1 app with goldens", name)
		}
		harmful := -1
		if w.validate {
			harmful = app.Spec.TrueTotal()
		}
		pkg := app.Build()
		o := op{app: name, src: dexasm.Format(pkg),
			want: expectation{golden: g, harmful: harmful, disposition: w.disposition}}
		o.digest = store.IRDigest(o.src)
		if w.edit {
			sites, err := editSites(pkg, o.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			o.pristine, o.baseDigest, o.sites = o.src, o.digest, sites
		}
		s.ops = append(s.ops, o)
	}
	if w.stored {
		dir, err := os.MkdirTemp("", "nadroid-bench-store-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		if s.st, err = store.Open(dir, store.Options{}); err != nil {
			s.close()
			return nil, err
		}
		for _, o := range s.ops {
			if _, err := nadroid.AnalyzeSource(context.Background(), o.src, w.options(s.st)); err != nil {
				s.close()
				return nil, fmt.Errorf("populating store with %s: %w", o.app, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(c.seed))
	for i := range s.ops {
		o := &s.ops[i]
		o.pickEdit(rng)
		_, err := nadroid.AnalyzeSource(context.Background(), o.src, w.options(s.st))
		if err != nil {
			err = fmt.Errorf("%s: %w", o.app, err)
		} else {
			err = s.cleanup(o)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// cleanup deletes the cold-start blob and partition an edit-sweep op
// wrote, so the next op on that app takes the incremental path again.
func (s *state) cleanup(o *op) error {
	if !s.w.edit {
		return nil
	}
	for _, path := range []string{
		filepath.Join(s.st.Dir(), "ircache", ircache.Name(o.digest, k)),
		filepath.Join(s.st.Dir(), "incr", incr.Name(o.digest, k)),
	} {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("%s: removing what the op wrote: %w", o.app, err)
		}
	}
	return nil
}

// editSite is a place for an unreachable edit: the closing brace of a
// method whose body ends in a terminating instruction.
type editSite struct {
	method string
	at     int // byte offset of the method's closing line in the text
}

// editLine is `r0 = r0` as a dexasm body line.
var editLine = "    " + ir.Instr{Op: ir.OpMove, A: 0, B: 0}.String() + "\n"

// editSites lists every method of pkg whose last instruction terminates
// with no label after it, located in src, pkg's dexasm rendering. A
// move appended there is unreachable, so every analysis result — and
// thus the goldens — stays the same while the method's digest changes.
func editSites(pkg *apk.Package, src string) ([]editSite, error) {
	ends := make(map[string]int)
	class, method, off := "", "", 0
	for _, line := range strings.SplitAfter(src, "\n") {
		switch t := strings.TrimSuffix(line, "\n"); {
		case strings.HasPrefix(t, "class "):
			class = strings.Fields(t)[1]
		case method == "" && strings.Contains(t, "method ") && strings.HasSuffix(t, "{"):
			name := t[strings.Index(t, "method ")+len("method "):]
			method = class + "." + name[:strings.IndexByte(name, '(')]
		case method != "" && t == "  }":
			ends[method] = off
			method = ""
		}
		off += len(line)
	}
	var sites []editSite
	for _, c := range pkg.Program.Classes() {
		for _, m := range c.Methods {
			if m.Abstract || len(m.Instrs) == 0 || !m.Instrs[len(m.Instrs)-1].IsTerminator() {
				continue
			}
			labelled := false
			for _, at := range m.Labels {
				labelled = labelled || at == len(m.Instrs)
			}
			if labelled {
				continue
			}
			at, ok := ends[m.Ref()]
			if !ok {
				return nil, fmt.Errorf("method %s not found in its dexasm text", m.Ref())
			}
			sites = append(sites, editSite{m.Ref(), at})
		}
	}
	if len(sites) == 0 {
		return nil, errors.New("no method ends in a terminating instruction")
	}
	return sites, nil
}

// pickEdit points an edit-sweep op at a fresh seeded edit; other ops
// are left alone.
func (o *op) pickEdit(rng *rand.Rand) {
	if o.sites == nil {
		return
	}
	e := o.sites[rng.Intn(len(o.sites))]
	o.src = o.pristine[:e.at] + editLine + o.pristine[e.at:]
	o.digest = store.IRDigest(o.src)
	o.edited = e.method
}

// outcome is everything one workload run reports.
type outcome struct {
	Workload   string              `json:"workload"`
	Trace      bool                `json:"trace"`
	SetupS     []float64           `json:"setup_s"`
	Sweeps     int                 `json:"sweeps"`
	Ops        int                 `json:"ops"`
	Failed     int                 `json:"failed"`
	Failures   []string            `json:"failures,omitempty"`
	Edits      map[string]string   `json:"edits,omitempty"`
	FirstOrder []string            `json:"first_order"`
	Metrics    map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

func (out *outcome) fail(o *op, err error) {
	out.Failed++
	if len(out.Failures) < 10 {
		out.Failures = append(out.Failures, fmt.Sprintf("%s: %v", o.app, err))
	}
}

// run sets the workload up setupReps times, keeps the last set-up, and
// measures whole sweeps until the window has elapsed. A trace run
// alternates untraced and traced sweeps, so the overhead is measured
// under the same conditions.
func (c *config) run(w workload) (*outcome, error) {
	out := &outcome{Workload: w.name, Trace: c.trace, Metrics: make(map[string]reported)}
	var s *state
	for i := 0; i < c.setupReps; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = c.setup(w); err != nil {
			return nil, err
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
	}
	defer s.close()

	opts := w.options(s.st)
	rng := rand.New(rand.NewSource(c.seed))
	// Per app, one latency (ms) and allocation (MB) per untraced op.
	lat := make(map[string][]float64)
	mb := make(map[string][]float64)
	tr := make(samples)
	if w.edit {
		out.Edits = make(map[string]string)
	}
	// Untraced runs go on past the window until op_p95_ms has its ten
	// samples beyond (a twentieth of the ops); traced runs until they
	// hold one sweep of each kind.
	more := func() bool { return out.Ops < 20*minBeyond }
	if c.trace {
		more = func() bool { return out.Sweeps < 2 }
	}
	start := time.Now()
	for more() || time.Since(start) < c.window {
		order := rng.Perm(len(s.ops))
		traced := c.trace && out.Sweeps%2 == 1
		for _, i := range order {
			o := &s.ops[i]
			o.pickEdit(rng)
			if out.Sweeps == 0 {
				out.FirstOrder = append(out.FirstOrder, o.app)
				if w.edit {
					out.Edits[o.app] = o.edited
				}
			}
			// Every op starts from a collected heap, as a fresh CLI
			// process would, so its time does not depend on the garbage
			// the previous op (or a layer replay) left behind.
			runtime.GC()
			ctx := context.Background()
			var m *obs.Metrics
			if traced {
				m = obs.NewMetrics()
				ctx = obs.WithMetrics(ctx, m)
			}
			a0 := allocBytes()
			t0 := time.Now()
			res, err := nadroid.AnalyzeSource(ctx, o.src, opts)
			d := msSince(t0)
			a := bytesToMB(allocBytes() - a0)
			out.Ops++
			err = checkResult(o.want, res, err)
			switch {
			case traced:
				if err == nil {
					err = tr.traceOp(s, o, d, m)
				}
			case c.trace:
				tr.add("_op.untraced_ms", o.app, d)
			default:
				lat[o.app] = append(lat[o.app], d)
				mb[o.app] = append(mb[o.app], a)
			}
			if cerr := s.cleanup(o); err == nil {
				err = cerr
			}
			if err != nil {
				out.fail(o, err)
			}
		}
		out.Sweeps++
	}

	if c.trace {
		tr.report(out)
		return out, nil
	}
	// Each app's median op stands for that app: host interference comes
	// in bursts of a second or two, and a per-app median discards it as
	// long as it hits fewer than half of an app's ops. The sweep figures
	// are the median sweep assembled from those; the percentiles are
	// taken over every op, each counted at its app's median.
	var sweepMS, sweepMB float64
	var typical []float64
	for app, xs := range lat {
		m := median(xs)
		sweepMS += m
		sweepMB += median(mb[app])
		for range xs {
			typical = append(typical, m)
		}
	}
	put := func(name string, v float64) { out.Metrics[name] = reported{Value: v, Unit: unitOf(name)} }
	put("sweep_ms", sweepMS)
	put("op_p50_ms", median(typical))
	if p95, ok := tailPercentile(typical, 0.95); ok {
		put("op_p95_ms", p95)
	}
	put("alloc_mb", sweepMB)
	put("setup_s", median(out.SetupS))
	return out, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
