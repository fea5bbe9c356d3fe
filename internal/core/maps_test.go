package core

import (
	"testing"

	"repro/internal/kernel"
)

// White-box property tests on the container's determinization maps (§5.5).

func newBare() *Container {
	return New(Config{})
}

// Property: virtIno is a injective function of first-touch order — same
// real inode always maps to the same virtual one, distinct reals to
// distinct virtuals.
func TestVirtInoInjectiveProperty(t *testing.T) {
	prop := func(touches []uint32) bool {
		c := newBare()
		forward := map[uint64]uint64{}
		reverse := map[uint64]uint64{}
		for _, r := range touches {
			real := uint64(r)
			v := c.virtIno(real)
			if prev, seen := forward[real]; seen && prev != v {
				return false // not a function
			}
			forward[real] = v
			if prevReal, seen := reverse[v]; seen && prevReal != real {
				return false // not injective
			}
			reverse[v] = real
		}
		return true
	}
	CheckQuick(t, prop, 60)
}

// Property: virtual inodes depend only on first-touch ORDER, never on the
// real inode values — two containers touching different real inodes in the
// same pattern assign identical virtual numbers.
func TestVirtInoOrderOnlyProperty(t *testing.T) {
	prop := func(pattern []uint8, offsetA, offsetB uint32) bool {
		a, b := newBare(), newBare()
		for _, p := range pattern {
			va := a.virtIno(uint64(offsetA) + uint64(p)*7)
			vb := b.virtIno(uint64(offsetB) + uint64(p)*131)
			if va != vb {
				return false
			}
		}
		return true
	}
	CheckQuick(t, prop, 60)
}

// Property: a recycled real inode re-registered as a new file gets a fresh
// virtual inode and a fresh mtime, strictly later than every earlier one.
func TestNewFileInodeFreshness(t *testing.T) {
	prop := func(creations []uint8) bool {
		c := newBare()
		const recycled = 42
		prevIno, prevMtime := uint64(0), int64(-1)
		for range creations {
			c.newFileInode(recycled)
			ino := c.virtIno(recycled)
			mt := c.virtMtime(recycled)
			if ino <= prevIno || mt <= prevMtime {
				return false
			}
			prevIno, prevMtime = ino, mt
		}
		return true
	}
	CheckQuick(t, prop, 40)
}

func TestUntouchedInodeHasMtimeZero(t *testing.T) {
	c := newBare()
	if c.virtMtime(999) != 0 {
		t.Errorf("initial-image files must report mtime 0 (§5.5)")
	}
}

// Property: virtDirSize is monotone non-decreasing and machine-free.
func TestVirtDirSizeMonotoneProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return virtDirSize(x) <= virtDirSize(y) && virtDirSize(0) > 0
	}
	CheckQuick(t, prop, 0)
}

func TestMaskedCPUIDIsConstant(t *testing.T) {
	c := newBare()
	for leaf := uint32(0); leaf < 32; leaf++ {
		a, b := c.maskedCPUID(leaf), c.maskedCPUID(leaf)
		if a != b {
			t.Fatalf("leaf %d unstable", leaf)
		}
	}
	if c.maskedCPUID(1).EBX>>16 != 1 {
		t.Errorf("masked cpuid must report one core")
	}
	if c.maskedCPUID(7).EBX != 0 {
		t.Errorf("masked cpuid must hide TSX and rdseed")
	}
}

// Property: logicalSeconds is strictly monotone per process and independent
// across processes (each has its own count, §5.3).
func TestLogicalSecondsMonotoneProperty(t *testing.T) {
	prop := func(calls uint8) bool {
		c := newBare()
		p := fabricateProc()
		prev := int64(0)
		for i := 0; i <= int(calls); i++ {
			s := c.logicalSeconds(p)
			if i > 0 && s != prev+1 {
				return false
			}
			prev = s
		}
		q := fabricateProc()
		return c.logicalSeconds(q) == DefaultLogicalEpoch
	}
	CheckQuick(t, prop, 30)
}

// fabricateProc builds a bare process for map tests.
func fabricateProc() *kernel.Proc { return &kernel.Proc{} }
