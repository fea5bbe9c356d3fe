package fs

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/prng"
)

// TestMkdevsKeepOrder: devices made after Populate keep the order Populate
// left, so Freeze needs no walk, and that order is exactly the sorted walk;
// the devices get inode numbers in the order given. After a path-set change
// Mkdevs keeps no order and Freeze's walk still gets it right.
func TestMkdevsKeepOrder(t *testing.T) {
	names := []string{"cpuinfo", "uptime", "meminfo", "version"}
	ids := []string{"proc:cpuinfo", "proc:uptime", "proc:meminfo", "proc:version"}
	for _, edited := range []bool{false, true} {
		im := templateImage()
		im.AddDir("/proc", 0o555)
		im.AddFile("/proc-z", 0o644, nil)
		f := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0))
		f.Populate(im)
		if edited {
			f.Unlink(f.Root.lookup("src"), "zero.o")
		}
		dir := f.Root.lookup("proc")
		f.Mkdevs(dir, names, ids)
		if kept := f.popOrder != nil; kept == edited {
			t.Errorf("edited=%v: Mkdevs kept the Populate order %v", edited, kept)
		}
		for i := 1; i < len(names); i++ {
			if a, b := dir.lookup(names[i-1]), dir.lookup(names[i]); a == nil || b == nil || a.Ino >= b.Ino || b.DevID != ids[i] {
				t.Fatalf("edited=%v: %s and %s not made in order", edited, names[i-1], names[i])
			}
		}
		f.Freeze()
		var walk []string
		walkSorted(f.Root, "", func(p string, n *Inode) {
			walk = append(walk, p)
			if n.path != p {
				t.Errorf("edited=%v: %s records path %q", edited, p, n.path)
			}
		})
		if !slices.Equal(*f.order, walk) {
			t.Errorf("edited=%v: frozen order\n%v\nwant the sorted walk\n%v", edited, *f.order, walk)
		}
	}
}
