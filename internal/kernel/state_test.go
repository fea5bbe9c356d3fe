package kernel

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/sealcheck"
)

// A seal clones the three state structs whole, so nothing in them may point
// back into the kernel they were sealed from (a *Thread here would pin the
// kernel, its filesystem and every ring behind the seal).
func TestSealedStateIsPlainData(t *testing.T) {
	sealcheck.Plain(t, reflect.TypeOf(kernelState{}))
	sealcheck.Plain(t, reflect.TypeOf(procState{}))
	sealcheck.Plain(t, reflect.TypeOf(threadState{}))
}

// A seal must share no slice or map backing with the run that continues past
// it, nor a resumed kernel with the seal it may be resumed from again.
func TestSealedStateCloneIsDeep(t *testing.T) {
	sealcheck.CloneIsDeep(t, kernelState.clone)
	sealcheck.CloneIsDeep(t, procState.clone)
	sealcheck.CloneIsDeep(t, threadState.clone)
}

// SyscallCounts keeps its first distinct calls inline and the rest in a map;
// Map reports both halves the same way.
func TestSyscallCounts(t *testing.T) {
	var c SyscallCounts
	want := map[abi.Sysno]int64{}
	for i := range 3 * len(c.nr) {
		nr := abi.Sysno(i % (len(c.nr) + 3))
		c.Add(nr, int64(i+1))
		want[nr] += int64(i + 1)
	}
	if got := c.Map(); !maps.Equal(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
	if c.more == nil {
		t.Errorf("more distinct calls than inline slots, but no overflow map")
	}
}
