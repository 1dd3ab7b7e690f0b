package interp

import "nadroid/internal/ir"

// blockedOnMonitor reports whether the executor's next instruction is a
// monitor-enter on a lock held by someone else; such executors are not
// schedulable until the lock frees.
func (w *World) blockedOnMonitor(e *executor) bool {
	if e.idle() {
		return false
	}
	f := e.top()
	if f.pc >= len(f.m.Instrs) {
		return false
	}
	in := &f.m.Instrs[f.pc]
	if in.Op != ir.OpMonitorEnter {
		return false
	}
	obj, ok := f.regs[w.slot(f, in.B)].v.(*Object)
	if !ok {
		return false // will NPE, still schedulable
	}
	return w.lockedByOther(e, obj)
}

// ScheduleInfo records the branching structure a run encountered, so an
// explorer can enumerate sibling schedules.
type ScheduleInfo struct {
	// Arity[i] is the number of options at the i-th choice point (only
	// points with >1 option consume a schedule entry).
	Arity []int
	// Taken[i] is the option index chosen at the i-th choice point.
	Taken []int
	// Choices[i] is the full option row at the i-th choice point (only
	// under Options.RecordChoices). Choices[i][Taken[i]] is the action
	// the run performed there.
	Choices [][]Choice
	// Forced[i] counts the hidden forced actions (single-option steps
	// other than a plain "run:looper" drain quantum) taken between
	// choice point i-1 and choice point i (only under
	// Options.RecordChoices). A partial-order reducer must not commute
	// recorded actions across a boundary with hidden actions: those
	// steps belong to neither neighbor.
	Forced []int
}

// Choice identifies one scheduler alternative: its stable option key and
// the entry method of the task/thread it advances or starts ("" when
// unknown). The explorer's partial-order reduction keys its conflict
// summaries on Method and its trace-equivalence classes on Key.
type Choice struct {
	Key    string
	Method string
}

// Run executes w under a schedule: whenever more than one scheduler
// option exists, the next schedule entry picks one (modulo the option
// count); after the schedule is exhausted, option 0 is taken.
// Single-option points do not consume schedule entries, keeping
// schedules short and stable for DFS exploration.
//
// Run continues w from the choice point it stands at: the world carries
// the rows it has recorded, and schedule[i] always picks at the i-th
// choice point of the whole execution. A fresh world starts at choice
// point 0; a Snapshot taken at choice point i continues as the fresh
// run of any schedule that agrees with it on the first i entries would.
// Run returns the world's rows (Schedule).
func Run(w *World, schedule []int) *ScheduleInfo {
	return RunSnapshots(w, schedule, nil)
}

// RunSnapshots is Run that also hands snap a Snapshot of w at every
// choice point past the end of schedule, taken before the choice there
// is made. A search keeps them to resume sibling schedules from their
// branch point.
func RunSnapshots(w *World, schedule []int, snap func(*World)) *ScheduleInfo {
	info := &w.info
	for !w.halted && w.steps < w.opts.MaxSteps {
		opts := w.options()
		if len(opts) == 0 {
			break
		}
		choice := 0
		if len(opts) > 1 {
			if pos := len(info.Arity); pos < len(schedule) {
				choice = schedule[pos] % len(opts)
				if choice < 0 {
					choice += len(opts)
				}
			} else if snap != nil {
				snap(w.Snapshot())
			}
			info.Arity = append(info.Arity, len(opts))
			info.Taken = append(info.Taken, choice)
			if w.opts.RecordChoices {
				row := make([]Choice, len(opts))
				for i, o := range opts {
					row[i] = Choice{Key: o.key, Method: o.method}
				}
				info.Choices = append(info.Choices, row)
				info.Forced = append(info.Forced, w.forced)
				w.forced = 0
			}
		} else if w.opts.RecordChoices && opts[0].ex != w.looper {
			w.forced++
		}
		w.take(opts[choice])
	}
	return info
}
