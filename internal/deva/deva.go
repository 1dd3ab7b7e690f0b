// Package deva re-implements the DEvA event-anomaly detector
// (Safi et al., ESEC/FSE'15) as the paper's comparison baseline (§8.7).
// DEvA's documented limitations are reproduced deliberately:
//
//   - Intra-class scope: read/write sets are computed per class plus its
//     inner classes; racy accesses across unrelated classes are invisible
//     (so callbacks and their background Runnables in separate classes
//     are missed).
//   - No thread model: only event callbacks participate; native threads
//     and AsyncTask bodies are ignored.
//   - Unsound IG/IA: the if-guard and intra-allocation filters apply
//     without any atomicity analysis, as if all methods were atomic.
//   - No happens-before reasoning: onServiceConnected/Disconnected,
//     lifecycle and AsyncTask orders are not consulted, producing the
//     false positives Table 3 shows nAdroid filtering.
package deva

import (
	"sort"
	"strings"

	"nadroid/internal/apk"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
)

// Anomaly is one DEvA "event anomaly" restricted to UAF shape: an event
// callback uses a field another event callback sets to null.
type Anomaly struct {
	Field        ir.FieldRef
	UseCallback  string // canonical method ref
	FreeCallback string
	Use          ir.InstrID
	Free         ir.InstrID
}

// Key gives a stable identity.
func (a Anomaly) Key() string {
	return a.Field.String() + "|" + a.Use.String() + "|" + a.Free.String()
}

// Analyze runs DEvA over a package.
func Analyze(pkg *apk.Package) []Anomaly {
	scopes := classScopes(pkg.Program)
	var out []Anomaly
	for _, scope := range scopes {
		out = append(out, analyzeScope(pkg.Program, scope)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// classScopes groups each top-level class with its inner classes.
func classScopes(prog *ir.Program) [][]*ir.Class {
	byOuter := make(map[string][]*ir.Class)
	var roots []*ir.Class
	for _, c := range prog.Classes() {
		if c.Outer != "" {
			byOuter[c.Outer] = append(byOuter[c.Outer], c)
		} else {
			roots = append(roots, c)
		}
	}
	var scopes [][]*ir.Class
	for _, r := range roots {
		scope := []*ir.Class{r}
		scope = append(scope, collectInner(byOuter, r.Name)...)
		scopes = append(scopes, scope)
	}
	return scopes
}

func collectInner(byOuter map[string][]*ir.Class, name string) []*ir.Class {
	var out []*ir.Class
	for _, c := range byOuter[name] {
		out = append(out, c)
		out = append(out, collectInner(byOuter, c.Name)...)
	}
	return out
}

// access is one read or null-write of an in-scope field.
type access struct {
	callback string
	instr    ir.InstrID
	field    ir.FieldRef
	isFree   bool
}

func analyzeScope(prog *ir.Program, scope []*ir.Class) []Anomaly {
	inScope := make(map[string]bool, len(scope))
	for _, c := range scope {
		inScope[c.Name] = true
	}
	var reads, frees []access
	for _, c := range scope {
		for _, m := range c.Methods {
			if m.Abstract || !isEventCallback(m.Name) {
				continue
			}
			// One dataflow per callback serves its frees, guards and allocations.
			oi := ir.ComputeOrigins(m)
			for i, in := range m.Instrs {
				switch in.Op {
				case ir.OpGetField, ir.OpGetStatic:
					if !inScope[in.Field.Class] {
						continue // intra-class restriction
					}
					// Unsound IG: any guard or preceding allocation
					// suppresses the use, atomic or not.
					if guardedAnywhere(m, oi, i) || allocatedBefore(m, oi, i) {
						continue
					}
					reads = append(reads, access{m.Ref(), ir.InstrID{Method: m.Ref(), Index: i}, in.Field, false})
				case ir.OpPutField, ir.OpPutStatic:
					if !inScope[in.Field.Class] {
						continue
					}
					if ir.IsFree(oi, m, i) {
						frees = append(frees, access{m.Ref(), ir.InstrID{Method: m.Ref(), Index: i}, in.Field, true})
					}
				}
			}
		}
	}
	var out []Anomaly
	for _, r := range reads {
		for _, f := range frees {
			if r.field != f.field || r.callback == f.callback {
				continue
			}
			out = append(out, Anomaly{
				Field:        r.field,
				UseCallback:  r.callback,
				FreeCallback: f.callback,
				Use:          r.instr,
				Free:         f.instr,
			})
		}
	}
	return out
}

// isEventCallback recognizes the callbacks DEvA models: lifecycle,
// listener, handler, service-connection, receiver and AsyncTask looper
// callbacks — but NOT run() bodies or doInBackground (no thread model).
func isEventCallback(name string) bool {
	if framework.IsLifecycleCallback(name) || framework.IsServiceLifecycleCallback(name) {
		return true
	}
	for _, lc := range framework.ListenerCallbacks {
		if lc.Method == name {
			return true
		}
	}
	switch name {
	case framework.HandlerCallback, framework.ReceiverCallback,
		"onServiceConnected", "onServiceDisconnected",
		"onPreExecute", "onProgressUpdate", "onPostExecute":
		return true
	}
	return false
}

// guardedAnywhere is DEvA's unsound if-guard: any null check of the same
// field before the use, with no dominance or store-interference checks.
func guardedAnywhere(m *ir.Method, oi *ir.OriginInfo, idx int) bool {
	use := m.Instrs[idx]
	for j := 0; j < idx; j++ {
		in := m.Instrs[j]
		if in.Op != ir.OpIfNull && in.Op != ir.OpIfNonNull {
			continue
		}
		chk := oi.At(j, in.B)
		if chk.Kind != ir.OriginLoad {
			continue
		}
		if m.Instrs[chk.Site].Field == use.Field {
			return true
		}
	}
	return false
}

// allocatedBefore is DEvA's unsound intra-allocation: any earlier store
// of a fresh allocation (or call result) to the field.
func allocatedBefore(m *ir.Method, oi *ir.OriginInfo, idx int) bool {
	use := m.Instrs[idx]
	for j := 0; j < idx; j++ {
		in := m.Instrs[j]
		if in.Op != ir.OpPutField && in.Op != ir.OpPutStatic {
			continue
		}
		if in.Field != use.Field {
			continue
		}
		switch oi.At(j, in.A).Kind {
		case ir.OriginNew, ir.OriginCall:
			return true
		}
	}
	return false
}

// Summary renders anomalies compactly for Table 3.
func Summary(anomalies []Anomaly) string {
	var b strings.Builder
	for _, a := range anomalies {
		b.WriteString(a.Field.String())
		b.WriteString(": use ")
		b.WriteString(a.UseCallback)
		b.WriteString(" vs free ")
		b.WriteString(a.FreeCallback)
		b.WriteString("\n")
	}
	return b.String()
}
