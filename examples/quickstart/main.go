// Quickstart: run a deliberately nondeterministic program inside a
// reproducible container on two completely different "machines" and watch
// the output come out bitwise-identical. It exits 1 if the two runs differ.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro"
)

// messy samples every classic source of irreproducibility: wall-clock time,
// OS randomness, PIDs, machine identity, ASLR, directory order, inode
// numbers and the cycle counter.
func messy(p *repro.GuestProc) int {
	p.Printf("time      : %d\n", p.Time())
	buf := make([]byte, 8)
	p.GetRandom(buf)
	p.Printf("random    : %x\n", buf)
	p.Printf("pid       : %d\n", p.Getpid())
	p.Printf("host      : %s (%s)\n", p.Uname().Nodename, p.Uname().Release)
	p.Printf("cpus      : %d\n", p.Sysinfo().NumCPU)
	p.Printf("heap base : %#x\n", p.Mmap(4096))
	p.Printf("tsc       : %d\n", p.Rdtsc())
	for _, name := range []string{"gamma", "alpha", "beta"} {
		p.WriteFile("/tmp/"+name, []byte(name), 0o644)
	}
	ents, _ := p.ReadDir("/tmp")
	for _, e := range ents {
		st, _ := p.Stat("/tmp/" + e.Name)
		p.Printf("file      : %-6s ino=%d mtime=%d\n", e.Name, st.Ino, st.Mtime.Sec)
	}
	return 0
}

func main() {
	reg := repro.NewRegistry()
	reg.Register("messy", messy)

	run := func(label string, cfg repro.Config) string {
		img := repro.MinimalImage()
		img.AddFile("/bin/messy", 0o755, repro.MakeExe("messy", nil))
		cfg.Image = img
		res := repro.New(cfg).Run(reg, "/bin/messy", []string{"messy"}, nil)
		if res.Err != nil {
			panic(res.Err)
		}
		fmt.Printf("--- %s ---\n%s\n", label, res.Stdout)
		return res.Stdout + "|" + repro.HashImage(res.FS)
	}

	// Two wildly different hosts: different microarchitecture, kernel,
	// entropy, wall clock and core count.
	a := run("Skylake, seed 7, epoch 2018", repro.Config{
		Profile: repro.CloudLabC220G5(), HostSeed: 7, Epoch: 1_520_000_000,
	})
	b := run("Broadwell, seed 999999, epoch 2019", repro.Config{
		Profile: repro.PortabilityBroadwell(), HostSeed: 999_999, Epoch: 1_550_000_000, NumCPU: 8,
	})

	if a != b {
		fmt.Println("=> MISMATCH — reproducibility violated!")
		os.Exit(1)
	}
	fmt.Println("=> bitwise identical output and filesystem state on both hosts.")
}
