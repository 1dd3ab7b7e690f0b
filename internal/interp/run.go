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
	in := f.m.Instrs[f.pc]
	if in.Op != ir.OpMonitorEnter {
		return false
	}
	obj, ok := f.regs[in.B].(*Object)
	if !ok {
		return false // will NPE, still schedulable
	}
	owner, _ := obj.Fields["$lockOwner"].(int64)
	depth, _ := obj.Fields["$lockDepth"].(int64)
	return depth > 0 && owner != int64(e.id)
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

// Run executes the package under a schedule: whenever more than one
// scheduler option exists, the next schedule entry picks one (modulo the
// option count); after the schedule is exhausted, option 0 is taken.
// Single-option points do not consume schedule entries, keeping
// schedules short and stable for DFS exploration.
func Run(w *World, schedule []int) *ScheduleInfo {
	info := &ScheduleInfo{}
	pos := 0
	forced := 0
	for !w.halted && w.steps < w.opts.MaxSteps {
		opts := w.options()
		// Drop executors blocked on a monitor from the option list.
		filtered := opts[:0]
		for _, o := range opts {
			if o.ex != nil && w.blockedOnMonitor(o.ex) {
				continue
			}
			filtered = append(filtered, o)
		}
		opts = filtered
		if len(opts) == 0 {
			break
		}
		choice := 0
		if len(opts) > 1 {
			if pos < len(schedule) {
				choice = schedule[pos] % len(opts)
				if choice < 0 {
					choice += len(opts)
				}
			}
			info.Arity = append(info.Arity, len(opts))
			info.Taken = append(info.Taken, choice)
			if w.opts.RecordChoices {
				row := make([]Choice, len(opts))
				for i, o := range opts {
					row[i] = Choice{Key: o.key, Method: o.method}
				}
				info.Choices = append(info.Choices, row)
				info.Forced = append(info.Forced, forced)
				forced = 0
			}
			pos++
		} else if w.opts.RecordChoices && opts[0].ex != w.looper {
			forced++
		}
		w.take(opts[choice])
	}
	return info
}
