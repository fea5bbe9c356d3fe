package replica

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
)

var testLog = []string{
	"deposit alice 1000",
	"deposit bob 500",
	"transfer alice bob 250",
	"interest",
	"withdraw bob 100",
	"deposit carol 9999",
	"interest",
}

func TestReplicasAgreeUnderDetTrace(t *testing.T) {
	c := &Cluster{Hosts: DefaultHosts(), Seed: 7}
	results := c.Execute(testLog)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Host, r.Err)
		}
	}
	if !Agree(results) {
		for _, r := range results {
			t.Logf("%s: %s", r.Host, r.StateHash[:16])
		}
		t.Fatal("replicas diverged under DetTrace")
	}
	if !strings.Contains(results[0].Output, "applied") {
		t.Errorf("output = %q", results[0].Output)
	}
}

func TestNativeReplicasDiverge(t *testing.T) {
	c := &Cluster{Hosts: DefaultHosts(), Seed: 7}
	results := c.ExecuteNative(testLog)
	if Agree(results) {
		t.Fatal("native replicas agreed — the state machine should be timing/randomness-contaminated")
	}
}

func TestCrashRecoveryByReexecution(t *testing.T) {
	c := &Cluster{Hosts: DefaultHosts(), Seed: 7}
	fresh := Host{
		Name:    "node-d-replacement",
		Profile: machine.LegacySandyBridge(), // even older hardware
		Seed:    0xDEAD,
		Epoch:   1_600_000_000,
		NumCPU:  4,
	}
	ref := c.Reference(testLog)
	got, rejoined := c.Recover(testLog, fresh, ref)
	if got.Err != nil {
		t.Fatalf("recovery run failed: %v", got.Err)
	}
	if !rejoined {
		t.Fatal("recovered replica does not match the cluster state")
	}
}

func TestCheckpointedReplicasAgree(t *testing.T) {
	c := &Cluster{Hosts: DefaultHosts(), Seed: 7}
	results, cps := c.ExecuteCheckpointed(testLog)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Host, r.Err)
		}
		if cps[i] == nil {
			t.Fatalf("%s sealed no checkpoint", r.Host)
		}
		if cps[i].VirtualNow() <= 0 {
			t.Errorf("%s: last seal is the boot seal — trampoline never fired", r.Host)
		}
	}
	if !Agree(results) {
		t.Fatal("checkpointed replicas diverged")
	}
	if results[0].Actions != results[1].Actions {
		t.Errorf("action counts differ across hosts: %d vs %d",
			results[0].Actions, results[1].Actions)
	}
}

// TestRecoverRestoresFromCheckpoint opens the recovery box: the crash must
// actually fire, a mid-run seal must exist, and the resumed replica must
// match the cluster reference while re-executing only the log suffix.
func TestRecoverRestoresFromCheckpoint(t *testing.T) {
	c := &Cluster{Hosts: DefaultHosts(), Seed: 7}
	ref := c.Reference(testLog)
	fresh := Host{Name: "node-e", Profile: machine.PortabilityBroadwell(),
		Seed: 0xE, Epoch: 1_610_000_000, NumCPU: 2}
	replacement := Cluster{Hosts: []Host{fresh}, Seed: c.Seed}

	var last *core.Checkpoint
	cfg := replacement.configFor(testLog, fresh, ref.Actions/2,
		func(cp *core.Checkpoint) { last = cp })
	crashed := core.New(cfg).Run(registry(), "/bin/bank", []string{"bank"}, bankEnv(true))
	if !errors.Is(crashed.Err, kernel.ErrInjectedCrash) {
		t.Fatalf("injected crash did not fire: %v", crashed.Err)
	}
	if last == nil {
		t.Fatal("no checkpoint sealed before the crash")
	}
	if last.VirtualNow() <= 0 {
		t.Fatal("latest seal is the boot seal; expected a batch-boundary seal")
	}
	res, err := core.Resume(last, registry(), replacement.configFor(testLog, fresh, 0, nil))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	got := toResult(fresh, res)
	if got.Err != nil || got.StateHash != ref.StateHash {
		t.Fatalf("resumed replica diverged: err=%v hash=%s ref=%s",
			got.Err, got.StateHash[:16], ref.StateHash[:16])
	}
	// Suffix-only re-execution: virtual work redone after restore is
	// strictly less than the whole run.
	if redone := res.WallTime - last.VirtualNow(); redone <= 0 || redone >= res.WallTime {
		t.Errorf("redone work %d not in (0, %d)", redone, res.WallTime)
	}
	// And the public wrapper agrees end to end.
	got2, ok := c.Recover(testLog, fresh, ref)
	if !ok || got2.StateHash != got.StateHash {
		t.Errorf("Recover: ok=%v hash=%s, want %s", ok, got2.StateHash[:16], got.StateHash[:16])
	}
}

func TestDifferentLogsDifferentStates(t *testing.T) {
	c := &Cluster{Hosts: DefaultHosts()[:1], Seed: 7}
	a := c.Execute(testLog)[0]
	b := c.Execute(append(append([]string{}, testLog...), "deposit mallory 1"))[0]
	if a.StateHash == b.StateHash {
		t.Fatal("the state must be a function of the log")
	}
}

func TestSeedIsADeclaredInput(t *testing.T) {
	a := (&Cluster{Hosts: DefaultHosts()[:1], Seed: 7}).Execute(testLog)[0]
	b := (&Cluster{Hosts: DefaultHosts()[:1], Seed: 8}).Execute(testLog)[0]
	// Transaction ids derive from the seed, so the audit trail differs —
	// but deterministically per seed.
	if a.StateHash == b.StateHash {
		t.Fatal("different container seeds should yield different audit trails")
	}
	a2 := (&Cluster{Hosts: DefaultHosts()[1:2], Seed: 7}).Execute(testLog)[0]
	if a.StateHash != a2.StateHash {
		t.Fatal("same seed on another host must match")
	}
}
