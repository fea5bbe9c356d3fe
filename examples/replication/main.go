// Replication: the paper's distributed-systems motivation (§2). Three
// replicas of a bank state machine — on three different machines, booted at
// different times, with different entropy — apply the same command log and
// reach bitwise-identical state with zero coordination, because each
// replica's state is a pure function of its inputs. A replacement node on
// decade-old hardware is crashed mid-log, restored from its last checkpoint
// and rejoins with the same state. It exits 1 when the replicas disagree, no
// checkpoint was sealed before the crash, or the resume fails.
//
//	go run ./examples/replication
package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro"
)

var commandLog = []string{
	"deposit alice 1000",
	"deposit bob 500",
	"transfer alice bob 250",
	"interest",
	"withdraw bob 100",
}

// host is one replica's physical placement: everything about it must be
// invisible in the replica's state.
type host struct {
	name    string
	profile *repro.MachineProfile
	seed    uint64
	epoch   int64
	cpus    int
}

// hosts is a deliberately heterogeneous cluster: CPU model, core count,
// entropy seed and clock epoch all differ, so anything host-dependent that
// leaked into replica state would diverge at once. Agreement across them is
// evidence of determinism, not of luck.
var hosts = []host{
	{"node-a", repro.CloudLabC220G5(), 0xA11CE, 1_520_000_000, 0},
	{"node-b", repro.PortabilityBroadwell(), 0xB0B, 1_555_555_555, 8},
	{"node-c", repro.BioHaswell(), 0xCAFE, 1_590_000_000, 16},
}

// config is one replica's container: the command log baked into the image
// and the PRNG seed, a declared input every replica shares (transaction ids
// derive from it, identically everywhere).
func config(h host) repro.Config {
	img := repro.MinimalImage()
	img.AddDir("/data", 0o755)
	img.AddFile("/data/log", 0o644, []byte(strings.Join(commandLog, "\n")+"\n"))
	img.AddFile("/bin/bank", 0o755, repro.MakeExe("bank", nil))
	return repro.Config{
		Image: img, Profile: h.profile, HostSeed: h.seed, Epoch: h.epoch,
		NumCPU: h.cpus, PRNGSeed: 7,
	}
}

func run(reg *repro.Registry, cfg repro.Config) *repro.Result {
	return repro.New(cfg).Run(reg, "/bin/bank", []string{"bank"}, nil)
}

func fail(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
	os.Exit(1)
}

func main() {
	reg := repro.NewRegistry()
	reg.Register("bank", bank)

	fmt.Println("three replicas apply the same log under DetTrace:")
	var ref *repro.Result
	var refHash string
	for _, h := range hosts {
		res := run(reg, config(h))
		if res.Err != nil || res.ExitCode != 0 {
			fail("  %s failed: err=%v exit=%d %s", h.name, res.Err, res.ExitCode, res.Stderr)
		}
		hash := repro.HashImage(res.FS)
		fmt.Printf("  %-8s state=%s\n", h.name, hash[:16])
		if ref == nil {
			ref, refHash = res, hash
		} else if hash != refHash {
			fail("  => replicas DISAGREE.")
		}
	}
	fmt.Println("  => all replicas bitwise identical, no consensus round needed.")

	// Any one healthy replica is the reference, so the crash point is a pure
	// function of its action count and the drill is the same on every host.
	fmt.Println("\nnode-d, on decade-old hardware, crashes mid-log ...")
	cfg := config(host{"node-d", repro.LegacySandyBridge(), 0xDEAD, 1_600_000_000, 4})
	var last *repro.Checkpoint
	cfg.FaultInjectCrash = ref.Actions / 2
	cfg.CheckpointSink = func(cp *repro.Checkpoint) { last = cp }
	if crashed := run(reg, cfg); crashed.Err == nil {
		fail("  the injected crash did not fire")
	}
	if last == nil {
		fail("  no checkpoint was sealed before the crash")
	}
	cfg.FaultInjectCrash, cfg.CheckpointSink = 0, nil
	res, err := repro.Resume(last, reg, cfg)
	if err != nil {
		fail("  resume from checkpoint %d: %v", last.Ordinal(), err)
	}
	hash := repro.HashImage(res.FS)
	fmt.Printf("  %-8s state=%s resumed from checkpoint %d\n", "node-d", hash[:16], last.Ordinal())
	if res.Err != nil || hash != refHash {
		fail("  => the replacement did NOT rejoin: err=%v", res.Err)
	}
	fmt.Println("  => rejoined: it re-executed only the log suffix after the seal.")
}

// checkpointBatch is how many log commands bank applies between restarts.
const checkpointBatch = 3

// bank applies /data/log to an account store under /data/state. It is
// deliberately sloppy in the ways real services are: every applied command
// gets a transaction id from OS randomness and an audit timestamp from the
// clock, and "interest" compounds based on the current time — all fine
// under DetTrace, all divergence bombs natively.
//
// It is crash-consistent: every checkpointBatch commands it persists the
// account store and its progress journal, then execs itself — an exec with
// one process, one thread and only console fds is a quiescent stop, where a
// container with a CheckpointSink seals a checkpoint. The restarted
// incarnation reloads the persisted state and continues from the journaled
// position, so a resumed run re-executes only the log suffix after the last
// sealed batch.
func bank(p *repro.GuestProc) int {
	raw, err := p.ReadFile("/data/log")
	if err != 0 {
		p.Eprintf("bank: no log: %s\n", err)
		return 1
	}
	p.MkdirAll("/data/state", 0o755)
	accounts := map[string]int64{}
	var audit strings.Builder
	done := 0
	if j, jerr := p.ReadFile("/data/.checkpoint-journal"); jerr == 0 {
		// Restarted incarnation: the journal and the state files are the
		// process's checkpointable memory.
		done = int(num(string(j)))
		ents, _ := p.ReadDir("/data/state")
		for _, e := range ents {
			if e.Name == "audit.log" || e.Name == "." || e.Name == ".." {
				continue
			}
			if data, rerr := p.ReadFile("/data/state/" + e.Name); rerr == 0 {
				accounts[e.Name] = num(string(data))
			}
		}
		if a, rerr := p.ReadFile("/data/state/audit.log"); rerr == 0 {
			audit.Write(a)
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
			accounts[fields[1]] += num(fields[2])
		case "withdraw":
			accounts[fields[1]] -= num(fields[2])
		case "transfer":
			amt := num(fields[3])
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
		names := make([]string, 0, len(accounts))
		for a := range accounts {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			p.WriteFile("/data/state/"+a, []byte(fmt.Sprintf("%d\n", accounts[a])), 0o644)
		}
		p.WriteFile("/data/state/audit.log", []byte(audit.String()), 0o644)
		return len(names)
	}
	lines := strings.Split(string(raw), "\n")
	for i := done; i < len(lines); i++ {
		apply(lines[i])
		if (i+1)%checkpointBatch == 0 && i+1 < len(lines) {
			persist()
			// The journal lives outside /data/state so the account store
			// holds exactly what the log determines.
			p.WriteFile("/data/.checkpoint-journal", []byte(fmt.Sprintf("%d\n", i+1)), 0o644)
			if xerr := p.Exec("/bin/bank", p.Argv(), p.Environ()); xerr != 0 {
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

// num parses a decimal amount; anything malformed counts as zero.
func num(s string) int64 {
	v, _ := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	return v
}
