// Package leakcheck is the test helper behind the teardown contract: a
// kernel that has stopped leaves no goroutine behind (DESIGN.md §2, `internal/kernel`).
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines notes the current goroutine count and returns a check that
// fails t unless the count comes back down to it. The check polls briefly:
// a stopped coroutine's goroutine exits just after stop() returns. Tests
// using it must not run in parallel — the count is process-wide.
func Goroutines(t testing.TB) (check func()) {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines left behind (%d before):\n%s",
					runtime.NumGoroutine()-base, base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
}
