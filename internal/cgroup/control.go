package cgroup

import (
	"fmt"
	"strconv"
	"strings"

	"tmo/internal/psi"
)

// This file renders cgroup2 control files as the strings the kernel would
// return, so `tmosim -controls` can show the surface the paper describes in
// Figure 6. It is read-only: writers use the typed methods instead
// (Group.SetMemoryMax, Group.MemoryReclaim and mm.Group.SetLow).

// ReadControl reads a control file by name. Supported files:
// memory.current, memory.max, memory.low, memory.pressure, io.pressure,
// cpu.pressure, memory.events, memory.stat.
func (g *Group) ReadControl(name string) (string, error) {
	switch name {
	case "memory.current":
		return strconv.FormatInt(g.MemoryCurrent(), 10) + "\n", nil
	case "memory.max":
		l := g.mmg.Limit()
		if l <= 0 {
			return "max\n", nil
		}
		return strconv.FormatInt(l, 10) + "\n", nil
	case "memory.low":
		return strconv.FormatInt(g.mmg.Low(), 10) + "\n", nil
	case "memory.pressure":
		return g.psi.PressureFile(psi.Memory), nil
	case "io.pressure":
		return g.psi.PressureFile(psi.IO), nil
	case "cpu.pressure":
		return g.psi.PressureFile(psi.CPU), nil
	case "memory.events":
		st := g.mmg.Stat()
		return fmt.Sprintf("oom %d\ndirect_reclaim %d\n", st.OOMEvents, st.DirectReclaims), nil
	case "memory.stat":
		st := g.mmg.Stat()
		var b strings.Builder
		fmt.Fprintf(&b, "anon %d\n", g.mmg.ResidentBytesOf(0))
		fmt.Fprintf(&b, "file %d\n", g.mmg.ResidentBytesOf(1))
		fmt.Fprintf(&b, "workingset_refault_file %d\n", st.Refaults)
		fmt.Fprintf(&b, "pswpin %d\n", st.SwapIns)
		fmt.Fprintf(&b, "pswpout %d\n", st.SwapOuts)
		fmt.Fprintf(&b, "pgscan %d\n", st.PagesScanned)
		return b.String(), nil
	}
	return "", fmt.Errorf("cgroup: unknown control file %q", name)
}
