// Package replica demonstrates the paper's §1–§2 distributed-systems
// motivation: "In distributed systems, reproducibility ensures that all
// replicas behave the same way, accelerating consensus and enabling
// transparent fault recovery."
//
// A Cluster runs N copies of the same container — same image, same command
// log, same container seed — on N *different* simulated hosts. Because a
// DetTrace computation is a pure function of its inputs, every replica
// reaches a bitwise-identical state with no coordination protocol at all,
// and a crashed replica is recovered by simply re-executing the log
// (deterministic state machine replication, Schneider-style, without
// runtime agreement on nondeterministic choices).
package replica

import (
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// Host is one replica's physical placement: everything about it must be
// invisible in the replica's state.
type Host struct {
	Name    string
	Profile *machine.Profile
	Seed    uint64
	Epoch   int64
	NumCPU  int
}

// DefaultHosts returns a deliberately heterogeneous three-node cluster: the
// three machine profiles differ in CPU model, core count, entropy seed and
// clock epoch, so anything host-dependent that leaks into replica state
// diverges immediately. It is the adversarial default for every replication
// demo and test in this package — agreement across these hosts is evidence
// of determinism, not of luck; a homogeneous cluster would prove nothing.
func DefaultHosts() []Host {
	return []Host{
		{Name: "node-a", Profile: machine.CloudLabC220G5(), Seed: 0xA11CE, Epoch: 1_520_000_000, NumCPU: 0},
		{Name: "node-b", Profile: machine.PortabilityBroadwell(), Seed: 0xB0B, Epoch: 1_555_555_555, NumCPU: 8},
		{Name: "node-c", Profile: machine.BioHaswell(), Seed: 0xCAFE, Epoch: 1_590_000_000, NumCPU: 16},
	}
}

// Result is one replica's outcome.
type Result struct {
	Host      string
	StateHash string // hash of /data after applying the log
	Output    string
	Err       error
	// Actions is the replica's deterministic action count — identical on
	// every host, so recovery drills can derive in-range crash points from
	// any one healthy replica's value.
	Actions int64
}

// Cluster executes a command log on a replicated bank state machine.
type Cluster struct {
	Hosts []Host
	// Seed is the container PRNG seed — a declared input, shared by every
	// replica (transaction ids derive from it, identically everywhere).
	Seed uint64
}

// image builds the replica's container image with the command log baked in.
func image(log []string) *fs.Image {
	im := baseimg.Minimal()
	im.AddDir("/data", 0o755)
	im.AddFile("/data/log", 0o644, []byte(strings.Join(log, "\n")+"\n"))
	im.AddFile("/bin/bank", 0o755, guest.MakeExe("bank", nil))
	return im
}

func registry() *guest.Registry {
	reg := guest.NewRegistry()
	reg.Register("bank", bankMain)
	return reg
}

// configFor assembles one replica's container config; crashAt/sink wire the
// fault plane. Checkpoint mode itself is selected by bankEnv — the guest's
// DETTRACE_CHECKPOINT trampoline gives the run quiescent stops to seal at.
func (c *Cluster) configFor(log []string, h Host, crashAt int64, sink func(*core.Checkpoint)) core.Config {
	return core.Config{
		Image:            image(log),
		Profile:          h.Profile,
		HostSeed:         h.Seed,
		Epoch:            h.Epoch,
		NumCPU:           h.NumCPU,
		PRNGSeed:         c.Seed,
		FaultInjectCrash: crashAt,
		CheckpointSink:   sink,
	}
}

func bankEnv(checkpoints bool) []string {
	if checkpoints {
		return []string{"DETTRACE_CHECKPOINT=1"}
	}
	return nil
}

func toResult(h Host, res *core.Result) Result {
	return Result{
		Host:      h.Name,
		StateHash: hashdeep.HashSubtree(res.FS, "/data/state").Total(),
		Output:    res.Stdout,
		Err:       res.Err,
		Actions:   res.Actions,
	}
}

// Execute runs the log on every host, under DetTrace.
func (c *Cluster) Execute(log []string) []Result {
	out := make([]Result, 0, len(c.Hosts))
	for _, h := range c.Hosts {
		cont := core.New(c.configFor(log, h, 0, nil))
		res := cont.Run(registry(), "/bin/bank", []string{"bank"}, bankEnv(false))
		out = append(out, toResult(h, res))
	}
	return out
}

// ExecuteCheckpointed runs the log on every host with the checkpoint
// trampoline enabled, returning each host's results and its latest sealed
// checkpoint. Checkpointed execution is its own equivalence class — the
// trampoline's self-execs advance logical time — so all replicas still agree
// with each other, and recoveries are validated against a checkpointed
// reference.
func (c *Cluster) ExecuteCheckpointed(log []string) ([]Result, []*core.Checkpoint) {
	out := make([]Result, 0, len(c.Hosts))
	cps := make([]*core.Checkpoint, 0, len(c.Hosts))
	for _, h := range c.Hosts {
		var last *core.Checkpoint
		cont := core.New(c.configFor(log, h, 0, func(cp *core.Checkpoint) { last = cp }))
		res := cont.Run(registry(), "/bin/bank", []string{"bank"}, bankEnv(true))
		out = append(out, toResult(h, res))
		cps = append(cps, last)
	}
	return out, cps
}

// ExecuteNative runs the same log without DetTrace — the control showing why
// naive replication diverges.
func (c *Cluster) ExecuteNative(log []string) []Result {
	out := make([]Result, 0, len(c.Hosts))
	for _, h := range c.Hosts {
		reg := registry()
		k := kernel.New(kernel.Config{Profile: h.Profile, Image: image(log), Resolver: reg.Resolver()},
			kernel.BootConfig{Seed: h.Seed, Epoch: h.Epoch, NumCPU: h.NumCPU})
		prog, _ := reg.Lookup("bank")
		img := &kernel.ExecImage{Path: "/bin/bank", Argv: []string{"bank"}}
		k.Start(reg.Bind(prog, img), img.Argv, nil)
		err := k.Run()
		out = append(out, Result{
			Host:      h.Name,
			StateHash: hashdeep.HashSubtree(k.FS.SnapshotImage(k.FS.Root), "/data/state").Total(),
			Output:    k.Console.Stdout(),
			Err:       err,
		})
	}
	return out
}

// Agree reports whether every replica reached the same state.
func Agree(results []Result) bool {
	for _, r := range results {
		if r.Err != nil || r.StateHash != results[0].StateHash {
			return false
		}
	}
	return true
}

// Reference computes the cluster's canonical checkpointed outcome once, on
// the first host. Determinism makes any single healthy replica THE cluster
// reference — so recovery validation costs one replica's work, not N.
func (c *Cluster) Reference(log []string) Result {
	one := Cluster{Hosts: c.Hosts[:1], Seed: c.Seed}
	res, _ := one.ExecuteCheckpointed(log)
	return res[0]
}

// Recover rebuilds a crashed replica on a fresh host by checkpoint restore
// plus log-suffix re-execution, not whole-log replay: the replacement runs
// with the checkpoint trampoline on and is killed mid-log at a
// deterministic point, then resumed from its last seal — bankMain's journal
// walks it forward over only the commands after the sealed batch boundary.
// ref is a precomputed Reference (reused across recoveries, so total cost is
// one reference replica + one cheap resume); recovery degrades to cold
// whole-log replay when no checkpoint survived or validation fails.
// The returned bool reports whether the replica rejoined the cluster state.
func (c *Cluster) Recover(log []string, fresh Host, ref Result) (Result, bool) {
	replacement := Cluster{Hosts: []Host{fresh}, Seed: c.Seed}
	// Kill the replacement mid-log, deterministically: the crash point is a
	// pure function of the reference's action count, so the drill is
	// reproducible on any host.
	var last *core.Checkpoint
	crashAt := ref.Actions / 2
	cfg := replacement.configFor(log, fresh, crashAt, func(cp *core.Checkpoint) { last = cp })
	crashed := core.New(cfg).Run(registry(), "/bin/bank", []string{"bank"}, bankEnv(true))
	if crashed.Err == nil {
		// The crash point fell beyond this replica's run; it completed.
		got := toResult(fresh, crashed)
		return got, got.Err == nil && got.StateHash == ref.StateHash
	}
	if last != nil {
		rcfg := replacement.configFor(log, fresh, 0, nil)
		if res, err := core.Resume(last, registry(), rcfg); err == nil {
			got := toResult(fresh, res)
			return got, got.Err == nil && got.StateHash == ref.StateHash
		}
	}
	// No usable checkpoint (none sealed, corrupted, or config drift):
	// degrade to deterministic whole-log replay.
	cold, _ := replacement.ExecuteCheckpointed(log)
	got := cold[0]
	return got, got.Err == nil && got.StateHash == ref.StateHash
}

// --- the replicated state machine -------------------------------------------------

// checkpointBatch is how many log commands bankMain applies between
// trampoline restarts in checkpoint mode.
const checkpointBatch = 3

// bankMain applies /data/log to an account store under /data/state. It is
// deliberately sloppy in the ways real services are: every applied command
// gets a transaction id from OS randomness and an audit timestamp from the
// clock, and "interest" compounds based on the current time — all fine
// under DetTrace, all divergence bombs natively.
//
// With DETTRACE_CHECKPOINT set it becomes crash-consistent: every
// checkpointBatch commands it persists the account store and its progress
// journal, then execs itself — an exec with one process, one thread and only
// console fds is a quiescent traced stop, so the container seals a
// checkpoint there. The restarted incarnation reloads the persisted state
// and continues from the journaled position; a resumed run therefore
// re-executes only the log suffix after the last sealed batch boundary.
func bankMain(p *guest.Proc) int {
	raw, err := p.ReadFile("/data/log")
	if err != abi.OK {
		p.Eprintf("bank: no log: %s\n", err)
		return 1
	}
	ckpt := p.Getenv("DETTRACE_CHECKPOINT") != ""
	p.MkdirAll("/data/state", 0o755)
	accounts := map[string]int64{}
	var audit strings.Builder
	done := 0
	if ckpt {
		if j, jerr := p.ReadFile("/data/.checkpoint-journal"); jerr == abi.OK {
			// Restarted incarnation: rebuild memory state from the persisted
			// store. Go stacks are not serializable, so the journal + state
			// files ARE the process's checkpointable memory.
			done = int(atoi64(strings.TrimSpace(string(j))))
			if ents, derr := p.ReadDir("/data/state"); derr == abi.OK {
				for _, e := range ents {
					if e.Name == "audit.log" || e.Name == "." || e.Name == ".." {
						continue
					}
					if data, rerr := p.ReadFile("/data/state/" + e.Name); rerr == abi.OK {
						accounts[e.Name] = atoi64(strings.TrimSpace(string(data)))
					}
				}
			}
			if a, rerr := p.ReadFile("/data/state/audit.log"); rerr == abi.OK {
				audit.Write(a)
			}
		}
	}

	apply := func(line string) {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return
		}
		txid := make([]byte, 4)
		p.GetRandom(txid)
		switch fields[0] {
		case "deposit":
			accounts[fields[1]] += atoi64(fields[2])
		case "withdraw":
			accounts[fields[1]] -= atoi64(fields[2])
		case "transfer":
			amt := atoi64(fields[3])
			accounts[fields[1]] -= amt
			accounts[fields[2]] += amt
		case "interest":
			// Rate scaled by "days since epoch" — reads the clock.
			days := p.Time() / 86_400
			for a := range accounts {
				accounts[a] += accounts[a] * (days % 7) / 1000
			}
		}
		fmt.Fprintf(&audit, "tx=%x at=%d %s\n", txid, p.Time(), line)
		p.Work(400_000) // applying a command costs real work
	}
	// Persist: one file per account plus the audit trail.
	persist := func() int {
		names := sortedKeys(accounts)
		for _, a := range names {
			p.WriteFile("/data/state/"+a, []byte(fmt.Sprintf("%d\n", accounts[a])), 0o644)
		}
		p.WriteFile("/data/state/audit.log", []byte(audit.String()), 0o644)
		return len(names)
	}
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		if i < done {
			continue // applied before the last trampoline restart
		}
		apply(line)
		if ckpt && (i+1)%checkpointBatch == 0 && i+1 < len(lines) {
			persist()
			// The journal lives outside /data/state so the replicated-state
			// hash covers exactly what the log determines.
			p.WriteFile("/data/.checkpoint-journal", []byte(fmt.Sprintf("%d\n", i+1)), 0o644)
			if xerr := p.Exec("/bin/bank", p.Argv(), p.Environ()); xerr != abi.OK {
				p.Eprintf("bank: restart: %s\n", xerr)
				return 1
			}
			return 127 // unreachable
		}
	}
	n := persist()
	p.Printf("applied %d commands to %d accounts\n", strings.Count(string(raw), "\n"), n)
	return 0
}

func atoi64(s string) int64 {
	var v int64
	neg := false
	for i, r := range s {
		if i == 0 && r == '-' {
			neg = true
			continue
		}
		if r < '0' || r > '9' {
			break
		}
		v = v*10 + int64(r-'0')
	}
	if neg {
		return -v
	}
	return v
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
