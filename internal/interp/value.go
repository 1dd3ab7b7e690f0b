// Package interp is a dynamic event-loop interpreter for the IR: it
// executes an application package under an Android-like runtime — a main
// looper with an event queue, background threads, and the framework
// posting/cancellation APIs — throwing NullPointerException on null
// dereferences. The explorer (package explore) drives it over many
// schedules to confirm statically-reported UAF warnings as harmful, the
// role manual validation plays in §7 of the paper.
package interp

import "fmt"

// Value is a runtime value: nil (null), *Object, int64 or string.
type Value interface{}

// Object is a heap object.
type Object struct {
	ID    int
	Class string
	// Fields is nil until the first Set.
	Fields map[string]Value
}

func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	return fmt.Sprintf("%s@%d", o.Class, o.ID)
}

// Get reads a field (null when unset).
func (o *Object) Get(name string) Value { return o.Fields[name] }

// Set writes a field.
func (o *Object) Set(name string, v Value) {
	if o.Fields == nil {
		o.Fields = make(map[string]Value)
	}
	o.Fields[name] = v
}
