// Package interp is a dynamic event-loop interpreter for the IR: it
// executes an application package under an Android-like runtime — a main
// looper with an event queue, background threads, and the framework
// posting/cancellation APIs — throwing NullPointerException on null
// dereferences. The explorer (package explore) drives it over many
// schedules to confirm statically-reported UAF warnings as harmful, the
// role manual validation plays in §7 of the paper.
//
// A World can be copied at any choice point (World.Snapshot) and the
// copy continued by Run, so a search resumes sibling schedules from
// their branch point instead of replaying the shared prefix. The
// layout keeps copies cheap: objects, events and queued tasks are
// immutable once created and shared by every copy, and what changes —
// field slices, event counters, executors — lives in the world. Each
// object's fields are a short slice of (field, value) pairs, kept in
// chunks that copies share until one side writes them.
//
// A world pays only for what its run can observe. An event its
// EventFilter rejects is never built, so no copy carries it, and
// method refs are stored in the IR, so executing an instruction builds
// no string.
package interp

import "fmt"

// Value is a runtime value: nil (null), *Object, int64 or string.
type Value interface{}

// Object is an immutable heap object handle. Its fields live in the
// world that allocated it (indexed by ID), so snapshots share handles
// and copy a field slice only when one side writes to it.
type Object struct {
	ID    int
	Class string
}

func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	return fmt.Sprintf("%s@%d", o.Class, o.ID)
}
