// Package hb builds the static happens-before graph over modeled
// threads that the sound MHB filter consumes (§6.1.1). Three relation
// families are must-happens-before in Android:
//
//   - MHB-Service: onServiceConnected always precedes
//     onServiceDisconnected for the same connection.
//   - MHB-AsyncTask: onPreExecute precedes doInBackground and
//     onProgressUpdate; all three precede onPostExecute.
//   - MHB-Lifecycle: every entry callback of a component runs after its
//     onCreate and before its onDestroy. There is deliberately NO edge
//     among onResume/onPause/other UI callbacks — the back-button cycle
//     makes those orders circular (§6.1.1).
package hb

import (
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/threadify"
)

// Graph is a transitively closed must-happens-before relation over
// thread IDs.
type Graph struct {
	n    int
	edge []bool // n*n adjacency, true = row HB col
}

// HB reports whether thread a must happen before thread b.
func (g *Graph) HB(a, b int) bool {
	if a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	return g.edge[a*g.n+b]
}

// Size returns the number of threads covered.
func (g *Graph) Size() int { return g.n }

func (g *Graph) add(a, b int) {
	if a == b {
		return
	}
	g.edge[a*g.n+b] = true
}

// BuildMHB derives the sound happens-before graph from the thread
// forest.
func BuildMHB(m *threadify.Model) *Graph {
	n := len(m.Threads)
	g := &Graph{n: n, edge: make([]bool, n*n)}

	// Dummy main precedes everything.
	for _, t := range m.Threads {
		if t.Kind != threadify.KindDummyMain {
			g.add(0, t.ID)
		}
	}

	// Each thread's entry method name, for the structured relations.
	names := make([]string, n)
	for i, t := range m.Threads {
		if t.Kind != threadify.KindDummyMain {
			_, names[i], _ = ir.SplitRef(t.Entry.Method)
		}
	}

	for i, a := range m.Threads {
		for j, b := range m.Threads {
			if a.ID == b.ID {
				continue
			}
			an, bn := names[i], names[j]

			// MHB-Service: same connection object and bind site.
			if a.Post == framework.PostBindService && b.Post == framework.PostBindService &&
				a.Entry.Recv == b.Entry.Recv && a.Site == b.Site &&
				an == "onServiceConnected" && bn == "onServiceDisconnected" {
				g.add(a.ID, b.ID)
			}

			// MHB-AsyncTask: same task object and execute site.
			if sameTask(a, b) {
				switch {
				case an == "onPreExecute" && (bn == framework.AsyncTaskBody || bn == "onProgressUpdate" || bn == "onPostExecute"):
					g.add(a.ID, b.ID)
				case (an == framework.AsyncTaskBody || an == "onProgressUpdate") && bn == "onPostExecute":
					g.add(a.ID, b.ID)
				}
			}

			// MHB-Lifecycle: entry callbacks of the same component.
			if a.Kind == threadify.KindEntryCallback && b.Kind == threadify.KindEntryCallback &&
				a.Component != "" && a.Component == b.Component {
				if an == "onCreate" && bn != "onCreate" {
					g.add(a.ID, b.ID)
				}
				if bn == "onDestroy" && an != "onDestroy" {
					g.add(a.ID, b.ID)
				}
			}
		}
	}

	g.close()
	return g
}

// sameTask reports whether two threads belong to the same AsyncTask
// execution: same receiver object spawned from the same execute site.
func sameTask(a, b *threadify.Thread) bool {
	isTask := func(t *threadify.Thread) bool {
		return t.Post == framework.PostExecuteTask || t.Post == framework.PostPublishProgress
	}
	if !isTask(a) || !isTask(b) {
		return false
	}
	return a.Entry.Recv == b.Entry.Recv
}

// close computes the transitive closure (Floyd–Warshall over booleans).
func (g *Graph) close() {
	n := g.n
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !g.edge[i*n+k] {
				continue
			}
			row := g.edge[k*n : k*n+n]
			for j, v := range row {
				if v {
					g.edge[i*n+j] = true
				}
			}
		}
	}
}
