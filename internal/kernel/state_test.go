package kernel

import (
	"reflect"
	"testing"

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
