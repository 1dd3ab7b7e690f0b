package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Dump renders a method body with labels and indices for debugging and
// golden tests.
func (m *Method) Dump() string {
	var b strings.Builder
	mods := ""
	if m.Static {
		mods += "static "
	}
	if m.Synch {
		mods += "synchronized "
	}
	fmt.Fprintf(&b, "%smethod %s(%d args)\n", mods, m.Ref(), m.NumArgs)
	labelAt := make(map[int][]string)
	for lbl, idx := range m.Labels {
		labelAt[idx] = append(labelAt[idx], lbl)
	}
	for i, in := range m.Instrs {
		if lbls := labelAt[i]; len(lbls) > 0 {
			sort.Strings(lbls)
			for _, l := range lbls {
				fmt.Fprintf(&b, "%s:\n", l)
			}
		}
		fmt.Fprintf(&b, "  %3d  %s\n", i, in)
	}
	if lbls := labelAt[len(m.Instrs)]; len(lbls) > 0 {
		sort.Strings(lbls)
		for _, l := range lbls {
			fmt.Fprintf(&b, "%s:\n", l)
		}
	}
	return b.String()
}
