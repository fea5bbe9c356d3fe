package workload_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/debpkg"
	"repro/internal/fs"
	"repro/internal/guest"
)

var updateToolchain = flag.Bool("update-toolchain", false, "rewrite testdata/toolchain.golden from this tree")

// goldenSpecs picks three seed-1 packages: a C package whose every header
// is found (the materialized tree's include/ holds every third one; the
// rest are put under /usr/include), a C package with missing headers and
// embed directives, and a javac package.
func goldenSpecs(t *testing.T) []*debpkg.Spec {
	t.Helper()
	picks := []func(*debpkg.Spec) bool{
		func(s *debpkg.Spec) bool {
			return s.Compiler == "cc" && s.Class == debpkg.BLRepro_DTRepro && len(s.PortDirectives) == 0
		},
		func(s *debpkg.Spec) bool {
			return s.Compiler == "cc" && s.Class == debpkg.BLIrrepro_DTRepro && len(s.Directives) > 0
		},
		func(s *debpkg.Spec) bool { return s.Compiler == "javac" },
	}
	universe := debpkg.Universe(1, 200)
	var specs []*debpkg.Spec
	for _, pick := range picks {
		for _, s := range universe {
			if pick(s) {
				specs = append(specs, s)
				break
			}
		}
	}
	if len(specs) != len(picks) {
		t.Fatalf("found %d of %d golden specs in the seed-1 universe", len(specs), len(picks))
	}
	return specs
}

// buildGolden runs dpkg-buildpackage natively over one materialized spec
// and renders the digest of every object and of the .deb, the weighted
// syscall count, and the nonzero per-syscall slots.
func buildGolden(t *testing.T, spec *debpkg.Spec, allHeaders bool) string {
	t.Helper()
	im := fs.NewImage()
	pkgdir := spec.Materialize(im, "/build")
	files := make(map[string]string, len(im.Entries))
	for path, e := range im.Entries {
		if e.Mode&abi.ModeTypeMask == abi.ModeRegular {
			files[path] = string(e.Data)
		}
	}
	if allHeaders {
		for h := 0; h < spec.Headers; h++ {
			if h%3 != 0 {
				name := fmt.Sprintf("h%03d.h", h)
				files["/usr/include/"+name] = "#define " + strings.TrimSuffix(name, ".h") + " 1\n"
			}
		}
	}
	env := []string{"PATH=/bin", "USER=builder", "HOME=/home/builder", "DEB_BUILD_OPTIONS=parallel=2"}
	k := boot(t, 1, files, func(p *guest.Proc) int {
		p.Chdir(pkgdir)
		pid, err := p.Spawn("/bin/dpkg-buildpackage", []string{"dpkg-buildpackage", "-b"}, env)
		if err != abi.OK {
			return 126
		}
		wr, _ := p.Waitpid(pid, 0)
		p.Printf("exit=%d\n", wr.Status.ExitCode())
		return 0
	})

	var b strings.Builder
	fmt.Fprintf(&b, "== %s %s compiler=%s headers=%d directives=%v\n",
		spec.Name, spec.Version, spec.Compiler, spec.Headers, spec.Directives)
	b.WriteString(k.Console.Stdout())
	out := k.FS.SnapshotImage(k.FS.Root).Entries
	var paths []string
	for path := range out {
		if strings.HasSuffix(path, ".o") || strings.HasSuffix(path, ".deb") {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		fmt.Fprintf(&b, "%s %x\n", path, sha256.Sum256(out[path].Data))
	}
	fmt.Fprintf(&b, "syscalls %d\n", k.Stats.Syscalls)
	for n, c := range k.PerSyscall() {
		if c != 0 {
			fmt.Fprintf(&b, "  %s %d\n", abi.Sysno(n), c)
		}
	}
	return b.String()
}

// TestToolchainGolden pins what the toolchain guests write and which calls
// they make: every object and .deb digest, Stats.Syscalls and the nonzero
// per-syscall slots of three native package builds, recorded before the
// compile path stopped allocating per line. A verdict compares two builds
// of the same code and cannot see a format slip; this can. The three
// builds run at once first, each in its own kernel, so the compilers fill
// their process-wide include-path memo concurrently, then one at a time;
// both must match the golden. Regenerate with -update-toolchain only when
// the toolchain's output is meant to change.
func TestToolchainGolden(t *testing.T) {
	specs := goldenSpecs(t)
	concurrent := make([]string, len(specs))
	t.Run("concurrent", func(t *testing.T) {
		for i, s := range specs {
			t.Run(s.Name, func(t *testing.T) {
				t.Parallel()
				concurrent[i] = buildGolden(t, s, i == 0)
			})
		}
	})
	blocks := make([]string, len(specs))
	for i, s := range specs {
		blocks[i] = buildGolden(t, s, i == 0)
	}
	got := strings.Join(blocks, "")
	path := filepath.Join("testdata", "toolchain.golden")
	if *updateToolchain {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the toolchain's output moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if c := strings.Join(concurrent, ""); c != string(want) {
		t.Errorf("concurrent builds differ from the golden:\n--- got ---\n%s--- want ---\n%s", c, want)
	}
}
