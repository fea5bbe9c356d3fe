package core

import (
	"reflect"
	"testing"

	"repro/internal/sealcheck"
)

// The container half of the kernel's sealed-state guards: detState is cloned
// whole into every Checkpoint, so it must be plain data and clone() must
// leave no map or slice shared between a seal and a running container.
func TestSealedStateIsPlainData(t *testing.T) {
	sealcheck.Plain(t, reflect.TypeOf(detState{}))
}

func TestSealedStateCloneIsDeep(t *testing.T) {
	sealcheck.CloneIsDeep(t, detState.clone)
}
