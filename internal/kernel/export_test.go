package kernel

import "slices"

// ForceSwitch makes every compute burst switch to the kernel goroutine, the
// path runAhead saves, until the returned func restores the default.
func ForceSwitch() (restore func()) {
	forceSwitch = true
	return func() { forceSwitch = false }
}

// Switches returns how often k has switched to a guest coroutine.
func (k *Kernel) Switches() int64 { return k.switches }

// CoreLoads returns copies of the per-core busy-until times, physical and
// logical: the loads every compute burst's core choice reads.
func (k *Kernel) CoreLoads() (cores, lcores []int64) {
	return slices.Clone(k.cores), slices.Clone(k.lcores)
}
