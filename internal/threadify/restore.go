package threadify

import (
	"nadroid/internal/apk"
	"nadroid/internal/pointsto"
)

// Restore rebuilds a Model from previously serialized parts: the
// restored package, a points-to result rehydrated via
// pointsto.FromSnapshot, the thread forest, and the component-object
// table. It is the deserialization counterpart of BuildContext — no
// solving or spawn attachment happens, so restoring is cheap and a warm
// IR-cache hit skips the modeling phase entirely.
func Restore(pkg *apk.Package, pts *pointsto.Result, threads []*Thread, compObj map[string]pointsto.ObjID) *Model {
	return &Model{
		Pkg:     pkg,
		H:       pts.Hierarchy(),
		PTS:     pts,
		Threads: threads,
		calls:   newCallGraph(pts),
		compObj: compObj,
	}
}

// ComponentObjs exposes the component-class → synthetic-receiver table
// for serialization (Restore takes it back verbatim).
func (m *Model) ComponentObjs() map[string]pointsto.ObjID { return m.compObj }
