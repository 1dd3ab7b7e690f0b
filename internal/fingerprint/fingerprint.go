// Package fingerprint derives stable, content-addressed identities for
// UAF warnings, so a warning keeps the same ID across re-analyses of
// evolving versions of an app (§7's triage workflow depends on lineage:
// "is this warning new, or the one we reviewed last week?").
//
// A fingerprint deliberately hashes *what* the warning is about, never
// *where* it happens to sit today:
//
//   - the shared field ("Class.Name"),
//   - the use and free sides' normalized method signatures
//     ("Class.Name/arity") and access kinds (read vs null-write),
//   - the per-field access ordinal inside each method (the k-th access
//     of that field, not the raw instruction index),
//   - the callback-lineage categories of the racing thread pairs (the
//     root-to-leaf thread-kind chains, e.g. "dummy-main>EC>PC").
//
// Adding an unrelated method, renaming an uninvolved class, or
// reordering statements that do not touch the field all shift raw
// instruction indices and thread numbering but leave every hashed
// component — and therefore the fingerprint — unchanged. Two distinct
// warnings in the same method differ in field or ordinal and get
// distinct IDs.
package fingerprint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"nadroid/internal/ir"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// ID is a stable warning identity: 16 lowercase hex characters (the
// first 8 bytes of a SHA-256 over the warning's content components).
// Baseline files and run stores key warnings by it.
type ID string

// version is the domain-separation tag; bump it whenever the hashed
// component set changes, so stale baselines miss instead of mismatching
// silently.
const version = "nadroid/fp/v1"

// genericVersion domain-separates fingerprints of non-UAF detector
// warnings from the UAF scheme above.
const genericVersion = "nadroid/fp/v2"

// Generic fingerprints a non-UAF detector warning from its detector
// name and the detector-chosen stable content parts (never raw thread
// IDs or instruction indices — detectors pass normalized sites and
// lineage categories).
func Generic(detector string, parts ...string) ID {
	h := sha256.New()
	io.WriteString(h, genericVersion)
	io.WriteString(h, "\x00")
	io.WriteString(h, detector)
	io.WriteString(h, "\x00")
	for _, p := range parts {
		io.WriteString(h, p)
		io.WriteString(h, "\x00")
	}
	return ID(hex.EncodeToString(h.Sum(nil)[:8]))
}

// Warning fingerprints one warning against the model it was detected
// in. The model supplies the program (for method arities and access
// ordinals) and the thread forest (for lineage categories).
func Warning(m *threadify.Model, w *uaf.Warning) ID {
	h := sha256.New()
	io.WriteString(h, version)
	io.WriteString(h, "\x00")
	io.WriteString(h, w.Field.String())
	io.WriteString(h, "\x00")
	writeSite(h, m, "use", w.Use)
	writeSite(h, m, "free", w.Free)
	for _, cat := range lineageCategories(m, w) {
		io.WriteString(h, cat)
		io.WriteString(h, "\x00")
	}
	return ID(hex.EncodeToString(h.Sum(nil)[:8]))
}

// writeSite hashes one side of the warning: role ("use"/"free"), the
// normalized method signature, the access kind the instruction's opcode
// implies, and the ordinal of this access among the method's accesses
// of the same field with the same kind. The raw instruction index is
// used only to locate the instruction; it is never hashed.
func writeSite(h io.Writer, m *threadify.Model, role string, id ir.InstrID) {
	sig, kind, ordinal := normalizeSite(m, id)
	fmt.Fprintf(h, "%s|%s|%s|%d\x00", role, sig, kind, ordinal)
}

// normalizeSite resolves an instruction site to its hashable
// components. Sites that cannot be resolved (synthetic methods, stale
// indices) degrade to arity "?" / ordinal 0 deterministically.
func normalizeSite(m *threadify.Model, id ir.InstrID) (sig, kind string, ordinal int) {
	sig = id.Method + "/?"
	kind = "access"
	method := lookupMethod(m, id.Method)
	if method == nil {
		return sig, kind, 0
	}
	sig = fmt.Sprintf("%s/%d", id.Method, method.NumArgs)
	if id.Index < 0 || id.Index >= len(method.Instrs) {
		return sig, kind, 0
	}
	site := method.Instrs[id.Index]
	kind = accessKind(site.Op)
	for i := 0; i < id.Index; i++ {
		in := method.Instrs[i]
		if accessKind(in.Op) == kind && in.Field() == site.Field() {
			ordinal++
		}
	}
	return sig, kind, ordinal
}

// accessKind maps a field opcode to the race taxonomy's access kinds:
// gets are the paper's "use" (read), puts its "free" candidate (write —
// the detector only pairs definitely-null writes, so within a warning a
// put site is a null-write).
func accessKind(op ir.Op) string {
	switch op {
	case ir.OpGetField, ir.OpGetStatic:
		return "read"
	case ir.OpPutField, ir.OpPutStatic:
		return "null-write"
	default:
		return "access"
	}
}

func lookupMethod(m *threadify.Model, ref string) *ir.Method {
	if m == nil || m.Pkg == nil || m.Pkg.Program == nil {
		return nil
	}
	cls, name, ok := ir.SplitRef(ref)
	if !ok {
		return nil
	}
	c := m.Pkg.Program.Class(cls)
	if c == nil {
		return nil
	}
	return c.Method(name)
}

// lineageCategories returns the sorted distinct thread-kind chain pairs
// ("use-chain|free-chain") over every thread pair the detector found —
// surviving and filtered alike, so the fingerprint does not depend on
// which filter configuration the run used.
func lineageCategories(m *threadify.Model, w *uaf.Warning) []string {
	seen := make(map[string]bool)
	add := func(p uaf.ThreadPair) {
		cat := kindChain(m, p.Use) + "|" + kindChain(m, p.Free)
		seen[cat] = true
	}
	for _, p := range w.Pairs {
		add(p)
	}
	for p := range w.FilteredBy {
		add(p)
	}
	out := make([]string, 0, len(seen))
	for cat := range seen {
		out = append(out, cat)
	}
	sort.Strings(out)
	return out
}

// kindChain renders a thread's ancestry root-first as thread kinds
// ("dummy-main>EC>PC"). Kinds are stable category names; thread IDs and
// entry-method names are deliberately excluded.
func kindChain(m *threadify.Model, t int) string {
	if m == nil || t < 0 || t >= len(m.Threads) {
		return "?"
	}
	var kinds []string
	for cur := t; cur >= 0; cur = m.Threads[cur].Parent {
		kinds = append(kinds, m.Threads[cur].Kind.String())
	}
	var b []byte
	for i := len(kinds) - 1; i >= 0; i-- {
		if len(b) > 0 {
			b = append(b, '>')
		}
		b = append(b, kinds[i]...)
	}
	return string(b)
}

// Snapshot captures everything the filter pipeline may touch on a
// warning — its stable identity plus the surviving thread pairs and the
// per-pair filter attribution — in a directly comparable form. The
// parallel-determinism tests diff Snapshots across worker counts; the
// differential engine compares the ID fields across runs.
type Snapshot struct {
	ID       ID
	Pairs    []uaf.ThreadPair
	Filtered map[uaf.ThreadPair]string
}

// Snap builds a Snapshot for one warning.
func Snap(m *threadify.Model, w *uaf.Warning) Snapshot {
	return Snapshot{
		ID:       Warning(m, w),
		Pairs:    append([]uaf.ThreadPair(nil), w.Pairs...),
		Filtered: w.FilteredBy,
	}
}
