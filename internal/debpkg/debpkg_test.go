package debpkg

import (
	"strings"
	"testing"

	"repro/internal/fs"
)

func TestUniverseDeterministic(t *testing.T) {
	a := Universe(7, 100)
	b := Universe(7, 100)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Class != b[i].Class ||
			a[i].Units != b[i].Units || a[i].ComputeFct != b[i].ComputeFct ||
			strings.Join(a[i].Directives, ",") != strings.Join(b[i].Directives, ",") {
			t.Fatalf("universe not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Universe(8, 100)
	same := 0
	for i := range a {
		if a[i].Units == c[i].Units && a[i].UnitKB == c[i].UnitKB {
			same++
		}
	}
	if same == len(a) {
		t.Errorf("different seeds generated identical universes")
	}
}

func TestFullUniverseClassCountsExact(t *testing.T) {
	counts := map[Class]int{}
	for _, s := range Universe(1, 0) {
		counts[s.Class]++
	}
	want := map[Class]int{
		BLFail: NBLFail, BLTimeoutC: NBLTimeout,
		BLRepro_DTRepro: NBLReproDTRepro, BLRepro_DTUnsup: NBLReproDTUnsup,
		BLRepro_DTTimeout: NBLReproDTTime,
		BLIrrepro_DTRepro: NBLIrrDTRepro, BLIrrepro_DTUnsup: NBLIrrDTUnsup,
		BLIrrepro_DTTimeout: NBLIrrDTTime,
	}
	total := 0
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("class %s: %d, want %d", c, counts[c], n)
		}
		total += n
	}
	if total != UniverseSize {
		t.Errorf("counts sum to %d, want %d", total, UniverseSize)
	}
}

func TestPrefixPreservesProportions(t *testing.T) {
	sample := Universe(1, 2000)
	counts := map[Class]int{}
	for _, s := range sample {
		counts[s.Class]++
	}
	// BLIrrepro_DTRepro is 50.7% of the universe: the prefix should be close.
	frac := float64(counts[BLIrrepro_DTRepro]) / float64(len(sample))
	if frac < 0.45 || frac < 0.40 || frac > 0.60 {
		t.Errorf("blI-dtR fraction in prefix = %.3f, want ~0.507", frac)
	}
}

func TestIrreproduciblePackagesHaveDirectives(t *testing.T) {
	for _, s := range Universe(2, 3000) {
		switch s.Class {
		case BLIrrepro_DTRepro, BLIrrepro_DTUnsup:
			if len(s.Directives) == 0 {
				t.Errorf("%s (%s) has no irreproducibility source", s.Name, s.Class)
			}
		case BLRepro_DTRepro:
			if len(s.Directives) != 0 {
				t.Errorf("%s (%s) carries run-varying directives: %v", s.Name, s.Class, s.Directives)
			}
		}
	}
}

func TestUnsupportedBreakdownProportions(t *testing.T) {
	counts := map[UnsupportedKind]int{}
	total := 0
	for _, s := range Universe(1, 0) {
		if s.Class == BLIrrepro_DTUnsup {
			counts[s.Unsup]++
			total++
		}
	}
	if total != NBLIrrDTUnsup {
		t.Fatalf("unsupported total = %d", total)
	}
	// §7.1.1: busy-wait ~45.8%, sockets ~15.8%, signals ~4%.
	checks := []struct {
		kind UnsupportedKind
		lo   float64
		hi   float64
	}{
		{UnsupBusyWait, 0.40, 0.52},
		{UnsupSocket, 0.11, 0.21},
		{UnsupSignal, 0.02, 0.07},
	}
	for _, c := range checks {
		frac := float64(counts[c.kind]) / float64(total)
		if frac < c.lo || frac > c.hi {
			t.Errorf("%s fraction = %.3f, want [%.2f, %.2f]", c.kind, frac, c.lo, c.hi)
		}
	}
}

func TestMaterializeStructure(t *testing.T) {
	spec := Universe(3, 10)[4]
	im := fs.NewImage()
	pkgdir := spec.Materialize(im, "/build")
	for _, p := range []string{
		pkgdir + "/debian/control",
		pkgdir + "/debian/rules",
		pkgdir + "/Makefile",
		pkgdir + "/configure.ac",
	} {
		if _, ok := im.Entries[p]; !ok {
			t.Errorf("missing %s", p)
		}
	}
	units := 0
	for p := range im.Entries {
		if strings.Contains(p, "/src/unit") {
			units++
		}
	}
	if units != spec.Units {
		t.Errorf("materialized %d units, spec says %d", units, spec.Units)
	}
	rules := string(im.Entries[pkgdir+"/debian/rules"].Data)
	if !strings.Contains(rules, "step pack") || !strings.Contains(rules, "step configure") {
		t.Errorf("rules incomplete:\n%s", rules)
	}
}

func TestMaterializeContentIsSeedAndMachineIndependent(t *testing.T) {
	// Source trees must be identical regardless of where they are unpacked:
	// the same package on two machines has the same bytes.
	spec := Universe(3, 5)[2]
	a, b := fs.NewImage(), fs.NewImage()
	spec.Materialize(a, "/build")
	spec.Materialize(b, "/build")
	for p, e := range a.Entries {
		if string(b.Entries[p].Data) != string(e.Data) {
			t.Errorf("materialization unstable at %s", p)
		}
	}
}

func TestModernSampleIoctlSplit(t *testing.T) {
	specs := ModernSample(11)
	if len(specs) != 81 {
		t.Fatalf("modern sample = %d", len(specs))
	}
	n := 0
	for _, s := range specs {
		if s.UsesIoctl {
			n++
		}
		if s.Unsup != UnsupNone || s.BrokenSource {
			t.Errorf("%s: modern sample must build everywhere", s.Name)
		}
	}
	if n != 46 {
		t.Errorf("ioctl users = %d, want 46", n)
	}
}

func TestLLVMSpec(t *testing.T) {
	s := LLVM()
	if s.Tests != [3]int{5657, 48, 15} {
		t.Errorf("llvm test shape = %v", s.Tests)
	}
	im := fs.NewImage()
	pkgdir := s.Materialize(im, "/build")
	unit0 := string(im.Entries[pkgdir+"/src/unit000.c"].Data)
	if !strings.Contains(unit0, "@tests:5657:48:15@") {
		t.Errorf("llvm test metadata missing from unit 0")
	}
}

func TestTimeoutProneShape(t *testing.T) {
	for _, s := range Universe(1, 0)[:4000] {
		if s.Class == BLIrrepro_DTTimeout || s.Class == BLRepro_DTTimeout {
			if s.Weight < 1000 {
				t.Errorf("%s: timeout-prone weight = %d (simulation would crawl)", s.Name, s.Weight)
			}
			if s.Headers < 100 {
				t.Errorf("%s: timeout-prone needs an extreme syscall rate", s.Name)
			}
		}
	}
}

// TestMaterializeGolden pins the rendered source trees byte for byte: the
// image hash of every package of two universe prefixes, materialized into
// one image, against values recorded from the fmt-based renderer. A
// renderer rewrite that moves one byte of one file moves these hashes.
func TestMaterializeGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want uint64
	}{
		{1, 0xc009afea42a3f3df},
		{7, 0x1a69dee2b46d9976},
	} {
		im := fs.NewImage()
		for _, s := range Universe(c.seed, 300) {
			s.Materialize(im, "/build")
		}
		if got := im.Hash(); got != c.want {
			t.Errorf("Universe(%d, 300) materializes to image hash %#x, want %#x", c.seed, got, c.want)
		}
	}
}
