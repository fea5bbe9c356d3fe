package kernel

// ForceSwitch makes every compute burst switch to the kernel goroutine, the
// path runAhead saves, until the returned func restores the default.
func ForceSwitch() (restore func()) {
	forceSwitch = true
	return func() { forceSwitch = false }
}

// Switches returns how often k has switched to a guest coroutine.
func (k *Kernel) Switches() int64 { return k.switches }
