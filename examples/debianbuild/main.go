// Debian-style reproducible build: a small hand-written package whose
// compiler embeds timestamps, build paths and randomness into the binary.
// Built twice under DetTrace — on different hosts — the .debs are bitwise
// identical. It exits 1 if they differ.
//
//	go run ./examples/debianbuild
package main

import (
	"fmt"
	"os"

	"repro"
)

// packageImage returns a toolchain image with our demo package unpacked at
// /build/hello-1.0.
func packageImage() (*repro.Image, string) {
	img := repro.ToolchainImage()
	pkg := "/build/hello-1.0"
	img.AddDir(pkg, 0o755)
	img.AddDir(pkg+"/debian", 0o755)
	img.AddDir(pkg+"/src", 0o755)
	img.AddDir(pkg+"/include", 0o755)
	img.AddFile(pkg+"/debian/control", 0o644, []byte(
		"Package: hello\nVersion: 1.0\nArchitecture: amd64\nMaintainer: You <you@example.org>\nDescription: reproducible hello\n"))
	img.AddFile(pkg+"/debian/rules", 0o755, []byte(
		"weight 1\nexport CCFACTOR=2\nstep configure\nstep make -j1\nstep pack\n"))
	img.AddFile(pkg+"/configure.ac", 0o644, []byte("AC_INIT\nAC_OUTPUT\n"))
	img.AddFile(pkg+"/Makefile", 0o644, []byte("compiler=cc\nsrcdir=src\nbuilddir=build\noutput=build/prog\n"))
	img.AddFile(pkg+"/include/h000.h", 0o644, []byte("#define H000 1\n"))
	// The classic irreproducibility trifecta, straight in the source.
	img.AddFile(pkg+"/src/unit000.c", 0o644, []byte(
		"#include <h000.h>\n@embed-timestamp@\n@embed-buildpath@\n@embed-random@\nint main(void) { return 0; }\n"))
	return img, pkg
}

func build(hostSeed uint64, epoch int64, prof *repro.MachineProfile) []byte {
	img, pkg := packageImage()
	reg := repro.NewRegistry()
	repro.RegisterToolchain(reg)
	c := repro.New(repro.Config{
		Image: img, Profile: prof, HostSeed: hostSeed, Epoch: epoch,
		WorkingDir: pkg, PRNGSeed: 42,
	})
	res := c.Run(reg, "/bin/dpkg-buildpackage",
		[]string{"dpkg-buildpackage", "-b"},
		[]string{"PATH=/bin", "USER=root", "HOME=/root", "LC_ALL=C", "TZ=UTC"})
	if res.Err != nil {
		panic(res.Err)
	}
	if res.ExitCode != 0 {
		panic("build failed:\n" + res.Stderr)
	}
	deb, ok := res.FS.Entries["/build/out/hello_1.0_amd64.deb"]
	if !ok {
		panic("no .deb produced")
	}
	fmt.Printf("  built hello_1.0_amd64.deb (%d bytes) on %s\n", len(deb.Data), prof)
	return deb.Data
}

func main() {
	fmt.Println("building the same package twice under DetTrace, on different hosts:")
	a := build(0xAAAA, 1_520_000_000, repro.CloudLabC220G5())
	b := build(0xBBBB, 1_560_000_000, repro.PortabilityBroadwell())

	if string(a) != string(b) {
		fmt.Println("=> .deb files DIFFER — reproducibility violated!")
		os.Exit(1)
	}
	fmt.Println("=> .deb files are bitwise identical despite embedded time/path/randomness.")
	fmt.Println("\nfirst bytes of the artifact:")
	n := 240
	if len(a) < n {
		n = len(a)
	}
	fmt.Println(string(a[:n]))
}
