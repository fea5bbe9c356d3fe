package debpkg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/prng"
)

// Materialize writes the package's source tree into an image under
// dir/<name>-<version> and returns that package directory path. The tree is
// what apt-get source would have unpacked: debian/ metadata, configure.ac,
// a Makefile, headers and compile units carrying the spec's directives.
func (s *Spec) Materialize(im *fs.Image, dir string) string {
	pkgdir := dir + "/" + s.Name + "-" + s.Version
	im.AddDir(pkgdir, 0o755)
	im.AddDir(pkgdir+"/debian", 0o755)
	im.AddDir(pkgdir+"/src", 0o755)
	im.AddDir(pkgdir+"/include", 0o755)

	im.AddFile(pkgdir+"/debian/control", 0o644, []byte(fmt.Sprintf(
		"Package: %s\nVersion: %s\nArchitecture: amd64\nMaintainer: Wheezy Builder <builder@debian.org>\nDescription: synthetic package %s\n",
		s.Name, s.Version, s.Name)))
	im.AddFile(pkgdir+"/debian/rules", 0o755, []byte(s.rules()))
	im.AddFile(pkgdir+"/configure.ac", 0o644, []byte(s.configureAC()))
	im.AddFile(pkgdir+"/Makefile", 0o644, []byte(s.makefile()))

	// Headers the compiler will probe for. Only every third probe target
	// exists, so include scanning produces the ENOENT-heavy open pattern of
	// a real preprocessor search path.
	for h := 0; h < s.Headers; h += 3 {
		h3 := string(appendPad3(nil, h))
		im.AddFile(pkgdir+"/include/h"+h3+".h", 0o644, []byte("#define H"+h3+" 1\n"))
	}

	rng := prng.NewHost(hashName(s.Name))
	var buf []byte // one render buffer; each file gets an exact-size copy
	for u := 0; u < s.Units; u++ {
		buf = s.unitSource(buf[:0], u, rng)
		im.AddFile(pkgdir+"/src/unit"+string(appendPad3(nil, u))+".c", 0o644, bytes.Clone(buf))
	}
	return pkgdir
}

// rules renders debian/rules for dpkg-buildpackage.
func (s *Spec) rules() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# rules for %s\n", s.Name)
	fmt.Fprintf(&b, "weight %d\n", s.Weight)
	fmt.Fprintf(&b, "export CCFACTOR=%d\n", s.ComputeFct)
	b.WriteString("step configure\n")
	// Wheezy-era packages build sequentially unless they opt into
	// parallelism; the opt-in ones are where scheduling races live.
	if s.LogArtifact || s.Compiler == "javac" {
		b.WriteString("step make -j%NPROC%\n")
	} else {
		b.WriteString("step make -j1\n")
	}
	if s.Tests[0] > 0 {
		b.WriteString("step test\n")
	}
	if s.UsesIoctl {
		b.WriteString("step tty-check\n")
	}
	switch s.Unsup {
	case UnsupSocket:
		b.WriteString("step special-socket\n")
	case UnsupSignal:
		b.WriteString("step special-signal\n")
	case UnsupMisc:
		b.WriteString("step special-misc\n")
	}
	if s.LogArtifact {
		b.WriteString("artifact build/build.log\n")
	}
	if s.ShipConfigH {
		b.WriteString("artifact config.h\n")
	}
	b.WriteString("step pack\n")
	return b.String()
}

// configureAC holds the configure-time directives: machine-capturing probes
// land here, like an autoconf macro recording the host.
func (s *Spec) configureAC() string {
	var b strings.Builder
	b.WriteString("AC_INIT\n")
	for _, d := range s.PortDirectives {
		fmt.Fprintf(&b, "@embed-%s@\n", d)
	}
	if s.ShipConfigH {
		// configure output that gets shipped may capture core counts etc.
		for _, d := range s.Directives {
			if d == "cores" || strings.HasPrefix(d, "env:") {
				fmt.Fprintf(&b, "@embed-%s@\n", d)
			}
		}
	}
	b.WriteString("AC_OUTPUT\n")
	return b.String()
}

// makefile renders the Makefile.
func (s *Spec) makefile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compiler=%s\n", s.Compiler)
	b.WriteString("srcdir=src\nbuilddir=build\noutput=build/prog\n")
	if s.Threads != "" {
		fmt.Fprintf(&b, "threads=%s\n", s.Threads)
	}
	if s.LogArtifact {
		b.WriteString("logfile=build/build.log\n")
	}
	return b.String()
}

// unitSource appends one rendered compile unit to b: include probes, code
// lines sized to UnitKB, and the spec's directives spread across the first
// units.
func (s *Spec) unitSource(b []byte, u int, rng *prng.Host) []byte {
	target := len(b) + s.UnitKB*1024
	b = append(b, "/* "...)
	b = append(b, s.Name...)
	b = append(b, " unit "...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, " */\n"...)
	for h := 0; h < s.Headers; h++ {
		b = append(b, "#include <h"...)
		b = appendPad3(b, h)
		b = append(b, ".h>\n"...)
	}
	if s.BrokenSource && u == 0 {
		b = append(b, "@@SYNTAX ERROR@@\n"...)
		b = append(b, "this unit does not compile\n"...)
	}
	// Directives: spread one per unit over the leading units; machine-
	// capturing (portability) directives follow so they too reach the
	// shipped binary.
	if u < len(s.Directives) {
		b = appendDirective(b, s.Directives[u])
	} else if pu := u - len(s.Directives); pu < len(s.PortDirectives) {
		b = appendDirective(b, s.PortDirectives[pu])
	}
	if u == 0 && s.Tests[0] > 0 {
		b = append(b, "@tests:"...)
		for i, n := range s.Tests {
			if i > 0 {
				b = append(b, ':')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, "@\n"...)
	}
	// Fill to UnitKB with stable pseudo-code: "int fn_<name>_<u>_<line>(void)
	// { return <n>; }" lines.
	fn := strconv.AppendInt(append([]byte("int fn_"+s.Name), '_'), int64(u), 10)
	fn = append(fn, '_')
	for line := 0; len(b) < target; line++ {
		b = append(b, fn...)
		b = strconv.AppendInt(b, int64(line), 10)
		b = append(b, "(void) { return "...)
		b = strconv.AppendInt(b, int64(rng.Intn(1000)), 10)
		b = append(b, "; }\n"...)
	}
	return b
}

// appendDirective appends one "@embed-<d>@" directive line.
func appendDirective(b []byte, d string) []byte {
	b = append(b, "@embed-"...)
	b = append(b, d...)
	return append(b, "@\n"...)
}

// appendPad3 appends n (n >= 0) in decimal, zero-padded to three digits:
// fmt's %03d without fmt.
func appendPad3(b []byte, n int) []byte {
	if n < 100 {
		b = append(b, '0')
	}
	if n < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

func hashName(s string) uint64 { return derive.DigestBytes([]byte(s)) }
