package kernel_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
)

// observerProgram prints every host-visible property a boot can leak: pid,
// wall time, inode numbers and timestamps of populated files, raw getdents
// order, /proc pseudo-file contents, urandom bytes, a write-then-stat. If two
// boots differ in any of it, the fingerprint splits.
func observerProgram(p *guest.Proc) int {
	p.Printf("pid=%d ppid=%d\n", p.Getpid(), p.Getppid())
	p.Printf("time=%d\n", p.Time())
	for _, path := range []string{"/", "/bin", "/bin/sh", "/etc/hostname", "/tmp"} {
		if st, err := p.Stat(path); err == 0 {
			p.Printf("stat %s ino=%d mode=%o size=%d mtime=%d\n",
				path, st.Ino, st.Mode, st.Size, st.Mtime.Nanos())
		} else {
			p.Printf("stat %s err=%v\n", path, err)
		}
	}
	for _, dir := range []string{"/bin", "/etc"} {
		ents, err := p.ReadDir(dir)
		if err != 0 {
			p.Printf("readdir %s err=%v\n", dir, err)
			continue
		}
		p.Printf("readdir %s:", dir)
		for _, e := range ents {
			p.Printf(" %s=%d", e.Name, e.Ino)
		}
		p.Printf("\n")
	}
	if b, err := p.ReadFile("/proc/cpuinfo"); err == 0 {
		p.Printf("cpuinfo %d bytes\n", len(b))
	}
	var rnd [8]byte
	p.GetRandom(rnd[:])
	p.Printf("rnd=%x\n", rnd)
	p.WriteFile("/tmp/new.txt", []byte("fresh"), 0o644)
	if st, err := p.Stat("/tmp/new.txt"); err == 0 {
		p.Printf("new ino=%d mtime=%d\n", st.Ino, st.Mtime.Nanos())
	}
	p.Unlink("/tmp/new.txt")
	p.WriteFile("/tmp/recycled.txt", []byte("again"), 0o644)
	if st, err := p.Stat("/tmp/recycled.txt"); err == 0 {
		p.Printf("recycled ino=%d\n", st.Ino)
	}
	return 0
}

func runObserver(t *testing.T, k *kernel.Kernel, reg *guest.Registry) string {
	t.Helper()
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(observerProgram, img), img.Argv, []string{"PATH=/bin"})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return k.Console.Stdout()
}

// whoResolves execs /bin/who as init's only act and returns what it
// printed: the tag of the resolver the boot bound it through.
func whoResolves(t *testing.T, k *kernel.Kernel) string {
	t.Helper()
	init := func(p *guest.Proc) int {
		p.Exec("/bin/who", []string{"who"}, nil)
		return 127
	}
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(guest.NewRegistry().Bind(init, img), img.Argv, nil)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return k.Console.Stdout()
}

// The Prepare/Boot contract: a snapshot keeps nothing from the boots it
// served, so booting a shared snapshot that has already served other runs is
// bitwise indistinguishable from a fresh Prepare(cfg).Boot(b) — same pids,
// inos, timestamps, getdents order, entropy stream — and both resolve
// programs through BootConfig.Resolver when it is set, through
// Config.Resolver otherwise.
func TestSnapshotBootEqualsCold(t *testing.T) {
	reg := guest.NewRegistry()
	cfg := kernel.Config{Profile: profFor(), Image: imgFor(), Resolver: reg.Resolver()}
	snap := kernel.Prepare(cfg)
	boots := []kernel.BootConfig{
		{Seed: 0xAAAA, Epoch: 1_520_000_000, Deadline: 3_600_000_000_000},
		{Seed: 0xB0B0, Epoch: 1_545_999_999, Deadline: 3_600_000_000_000},
		{Seed: 7, Epoch: 42, Deadline: 3_600_000_000_000},
	}
	for _, b := range boots {
		runObserver(t, snap.Boot(b), reg) // the shared snapshot serves every run once first
	}
	for _, b := range boots {
		fresh := runObserver(t, kernel.Prepare(cfg).Boot(b), reg)
		shared := runObserver(t, snap.Boot(b), reg)
		if fresh != shared {
			t.Errorf("seed %#x epoch %d: boot of a shared snapshot diverged from a fresh one\n--- fresh ---\n%s--- shared ---\n%s",
				b.Seed, b.Epoch, fresh, shared)
		}
	}

	tagged := func(tag string) kernel.Resolver {
		r := guest.NewRegistry()
		r.Register("who", func(p *guest.Proc) int {
			p.Printf("%s", tag)
			return 0
		})
		return r.Resolver()
	}
	img := imgFor()
	img.AddFile("/bin/who", 0o755, guest.MakeExe("who", nil))
	cfg = kernel.Config{Profile: profFor(), Image: img, Resolver: tagged("prepared")}
	snap = kernel.Prepare(cfg)
	for _, tc := range []struct {
		resolver kernel.Resolver
		want     string
	}{{nil, "prepared"}, {tagged("per-run"), "per-run"}} {
		b := kernel.BootConfig{Seed: 5, Epoch: 1_500_000_000, Resolver: tc.resolver}
		if got := whoResolves(t, kernel.Prepare(cfg).Boot(b)); got != tc.want {
			t.Errorf("a fresh boot resolved through %q, want %q", got, tc.want)
		}
		if got := whoResolves(t, snap.Boot(b)); got != tc.want {
			t.Errorf("a shared snapshot's boot resolved through %q, want %q", got, tc.want)
		}
	}
}

// One snapshot booted many times concurrently: runs must neither race (the
// base is shared read-only) nor couple (identical seeds give identical
// output; the snapshot accumulates no state between boots).
func TestSnapshotConcurrentBoots(t *testing.T) {
	reg := guest.NewRegistry()
	snap := kernel.Prepare(kernel.Config{
		Profile: profFor(), Image: imgFor(), Resolver: reg.Resolver(),
	})
	const workers = 12
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := snap.Boot(kernel.BootConfig{Seed: 99, Epoch: 1_500_000_000, Deadline: 3_600_000_000_000})
			img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
			k.Start(reg.Bind(observerProgram, img), img.Argv, []string{"PATH=/bin"})
			if err := k.Run(); err != nil {
				outs[i] = fmt.Sprintf("error: %v", err)
				return
			}
			outs[i] = k.Console.Stdout()
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("boot %d diverged:\n%s\nvs\n%s", i, outs[i], outs[0])
		}
	}
	// And a fresh boot still matches them: the shared snapshot accumulated
	// no state.
	fresh := runObserver(t, kernel.Prepare(
		kernel.Config{Profile: profFor(), Image: imgFor(), Resolver: reg.Resolver()},
	).Boot(kernel.BootConfig{Seed: 99, Epoch: 1_500_000_000, Deadline: 3_600_000_000_000}), reg)
	if outs[0] != fresh {
		t.Errorf("boots of a shared snapshot diverged from a fresh one:\n%s\nvs\n%s", outs[0], fresh)
	}
}
