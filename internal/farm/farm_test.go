package farm

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/derive"
	"repro/internal/obs"
	"repro/internal/reprotest"
)

// toyExec is a pure executor: its digest depends only on the job's declared
// inputs, never on the node, attempt or schedule — the contract a DetTrace
// build satisfies. It seals three checkpoints per run; a doomed run crashes
// after sealing, so the retry can restore from the freshest seal.
func toyExec(ctx *ExecCtx) (uint64, error) {
	key := derive.KeyFor(ctx.Job.Image, ctx.Job.Config)
	// Prepared state: build once farm-wide, reuse everywhere.
	ctx.Prepared(key, func() any { return ctx.Job.Image * 3 })
	start := 0
	if ctx.Attempt > 0 {
		if ord := ctx.LatestSeal(key); ord > 0 {
			if _, ok := ctx.Seal(key, ord); ok {
				ctx.RestoredFrom = ord
				start = ord
			}
		}
	}
	for ord := start + 1; ord <= 3; ord++ {
		ctx.PutSeal(key, ord, obs.DigestU64(ctx.Job.ID, uint64(ord)), ord)
	}
	if ctx.Doom.Crashes() {
		return 0, &Crash{Wall: 1000 * ctx.Doom.CrashAtAction}
	}
	return obs.DigestU64(ctx.Job.ID, ctx.Job.Image, ctx.Job.Config), nil
}

func toyJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		img := uint64(0xABC000 + i%3) // three distinct "images"
		jobs[i] = Job{ID: uint64(i + 1), Affinity: img, Image: img,
			Config: 0xC0F + uint64(i%2)}
	}
	return jobs
}

func digests(t *testing.T, reports []JobReport) []uint64 {
	t.Helper()
	out := make([]uint64, len(reports))
	for i, r := range reports {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", r.Job, r.Err)
		}
		out[i] = r.Digest
	}
	return out
}

// TestOutputIndependentOfFarmShape is the oracle: digests must be identical
// across node counts {1,3,8} x two placement seeds x {no faults,
// crash-and-recover, message duplication, message loss}.
func TestOutputIndependentOfFarmShape(t *testing.T) {
	jobs := toyJobs(12)
	plans := map[string]reprotest.FaultPlan{
		"none":  {},
		"crash": {KillNode: 2, KillAtJob: 1, CrashAtAction: 50},
		"dup":   {DupMsg: 2},
		"lose":  {LoseMsg: 1},
	}
	var want []uint64
	for _, nodes := range []int{1, 3, 8} {
		for _, seed := range []uint64{1, 2} {
			for name, plan := range plans {
				cl := New(Config{Nodes: nodes, Slots: 1, PlacementSeed: seed, Plan: plan}, toyExec)
				reports, err := cl.Run(jobs)
				if err != nil {
					t.Fatalf("nodes=%d seed=%d plan=%s: %v", nodes, seed, name, err)
				}
				if len(reports) != len(jobs) {
					t.Fatalf("nodes=%d seed=%d plan=%s: %d reports, want %d",
						nodes, seed, name, len(reports), len(jobs))
				}
				got := digests(t, reports)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("nodes=%d seed=%d plan=%s: digests diverge\n got %x\nwant %x",
						nodes, seed, name, got, want)
				}
			}
		}
	}
}

// TestCrashRecoversOnAnotherNode pins the recovery story: the killed
// worker's job completes on a different node, restored from the freshest
// seal, and the remainder of its queue is stolen.
func TestCrashRecoversOnAnotherNode(t *testing.T) {
	jobs := toyJobs(12)
	// Kill the node job 1 lands on, so the crash is guaranteed to fire.
	kill := Place(1, jobs[0].Affinity, []int{1, 2, 3})
	plan := reprotest.FaultPlan{KillNode: kill, KillAtJob: 1, CrashAtAction: 50}
	cl := New(Config{Nodes: 3, Slots: 1, PlacementSeed: 1, Plan: plan}, toyExec)
	reports, err := cl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var recovered *JobReport
	for i := range reports {
		if reports[i].Recovered {
			recovered = &reports[i]
		}
	}
	if recovered == nil {
		t.Fatal("no job recovered from the node crash")
	}
	if recovered.Node == kill {
		t.Fatalf("job %d recovered on the dead node", recovered.Job)
	}
	if recovered.StolenFrom != kill {
		t.Fatalf("recovered job stolen from node %d, want %d", recovered.StolenFrom, kill)
	}
	if recovered.SealOrd != 3 {
		t.Fatalf("recovered from seal ordinal %d, want freshest (3)", recovered.SealOrd)
	}
	if recovered.Attempts != 2 {
		t.Fatalf("recovered job took %d attempts, want 2", recovered.Attempts)
	}
	st := cl.Stats()
	if st.NodeCrashes != 1 {
		t.Fatalf("NodeCrashes = %d, want 1", st.NodeCrashes)
	}
	if st.Steals == 0 || st.Recoveries != 1 {
		t.Fatalf("Steals = %d (want > 0), Recoveries = %d (want 1)", st.Steals, st.Recoveries)
	}
	// Ring carries the mechanism story: at least one steal and one recover.
	var steal, recover bool
	for _, ev := range cl.Ring().Events() {
		switch ev.Kind {
		case obs.KindFarmSteal:
			steal = true
		case obs.KindFarmRecover:
			recover = true
		}
	}
	if !steal || !recover {
		t.Fatalf("ring missing events: steal=%v recover=%v", steal, recover)
	}
}

// TestKillLastNode drives every worker into the ground: the coordinator must
// finish the tail inline (local fallback) rather than deadlock.
func TestKillLastNode(t *testing.T) {
	plan := reprotest.FaultPlan{KillNode: 1, KillAtJob: 2, CrashAtAction: 50}
	cl := New(Config{Nodes: 1, Slots: 1, Plan: plan}, toyExec)
	jobs := toyJobs(6)
	reports, err := cl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(jobs) {
		t.Fatalf("%d reports, want %d", len(reports), len(jobs))
	}
	ref := New(Config{Nodes: 3, Slots: 1}, toyExec)
	refReports, _ := ref.Run(jobs)
	if !reflect.DeepEqual(digests(t, reports), digests(t, refReports)) {
		t.Fatal("fallback digests diverge from fault-free farm")
	}
	if cl.Stats().LocalFallbacks == 0 {
		t.Fatal("expected local fallbacks after the only worker died")
	}
}

// TestMessageFaultAccounting pins the transport's message accounting under
// the loss and duplication planes: lost transmissions are retransmitted on
// the next link ordinal, duplicated deliveries are deduped, and output is
// unaffected (covered by the shape test). A loss on ordinal 1 moves that
// assign to ordinal 2, so the combined plan duplicates ordinal 2. Sends to
// a node the cluster does not have fail with ErrUnknownNode.
func TestMessageFaultAccounting(t *testing.T) {
	type msgs struct{ sent, lost, retrans, duped, deduped int64 }
	for _, tc := range []struct {
		name string
		plan reprotest.FaultPlan
		want msgs
	}{
		{"lose", reprotest.FaultPlan{LoseMsg: 1}, msgs{56, 2, 2, 0, 0}},
		{"dup", reprotest.FaultPlan{DupMsg: 1}, msgs{54, 0, 0, 2, 2}},
		{"lose+dup", reprotest.FaultPlan{LoseMsg: 1, DupMsg: 2}, msgs{56, 2, 2, 2, 2}},
	} {
		cl := New(Config{Nodes: 3, Slots: 1, Plan: tc.plan}, toyExec)
		if _, err := cl.Run(toyJobs(9)); err != nil {
			t.Fatal(err)
		}
		st := cl.Stats()
		got := msgs{st.MsgsSent, st.MsgsLost, st.MsgsRetransmitted,
			st.MsgsDuplicated, st.MsgsDeduped}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		for _, to := range []NodeID{4, -1} {
			resp, err := cl.tr.send(&Envelope{Type: MsgAssign, From: Coordinator, To: to, Job: 1})
			if !errors.Is(err, ErrUnknownNode) || resp != nil {
				t.Errorf("%s: send to node %d = (%v, %v), want ErrUnknownNode", tc.name, to, resp, err)
			}
		}
	}
}

// TestPlacementPurity: Place is pure and stable, and it is the coordinator's
// placement: on a fault-free run every job completes on the node Place
// predicts for it.
func TestPlacementPurity(t *testing.T) {
	live := []int{1, 2, 3, 4, 5}
	for seed := uint64(0); seed < 8; seed++ {
		a := Place(seed, 0xFEED, live)
		b := Place(seed, 0xFEED, live)
		if a != b || a < 1 || a > 5 {
			t.Fatalf("seed %d: Place unstable or out of range: %d vs %d", seed, a, b)
		}
	}
	jobs := toyJobs(12)
	for i := range jobs {
		jobs[i].Affinity = obs.DigestU64(uint64(i)) // twelve distinct affinities
	}
	for _, seed := range []uint64{7, 8} {
		cl := New(Config{Nodes: 3, Slots: 1, PlacementSeed: seed}, toyExec)
		reports, err := cl.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		used := map[int]bool{}
		for i, r := range reports {
			if want := Place(seed, jobs[i].Affinity, []int{1, 2, 3}); r.Node != want {
				t.Errorf("seed %d job %d ran on node %d, Place predicts %d", seed, r.Job, r.Node, want)
			}
			used[r.Node] = true
		}
		if len(used) < 2 {
			t.Errorf("seed %d: every job on one node %v; the check would not tell placements apart", seed, used)
		}
	}
}

var updateStats = flag.Bool("update-stats", false, "rewrite testdata/stats.golden from this tree")

// TestStatsGolden pins every Stats field of two farm shapes, printed with
// %+v, to a golden: TestStatsDeterministic's crash shape, and an attested
// single-slot farm whose transport loses and duplicates assigns. Both
// shapes read the same totals on every run. (An attested farm that loses a
// node does not: whether a rebuild lands on the dying node depends on
// timing.)
// Regenerate with -update-stats only when a count is meant to change.
func TestStatsGolden(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
		exec ExecFunc
	}{
		{"deterministic", Config{Nodes: 3, Slots: 1, PlacementSeed: 5,
			Plan: reprotest.FaultPlan{KillNode: 2, KillAtJob: 1, CrashAtAction: 9}}, toyExec},
		{"attested", Config{Nodes: 3, Slots: 1, PlacementSeed: 5, Attest: true, KeySeed: 7,
			Plan: reprotest.FaultPlan{LoseMsg: 1, DupMsg: 2}}, attestExec},
	}
	var got string
	for _, sh := range shapes {
		cl := New(sh.cfg, sh.exec)
		if _, err := cl.Run(toyJobs(10)); err != nil {
			t.Fatal(err)
		}
		got += fmt.Sprintf("%s: %+v\n", sh.name, cl.Stats())
	}
	path := filepath.Join("testdata", "stats.golden")
	if *updateStats {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("farm stats differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatsDeterministic: counter totals are identical across repeated runs
// of the same shape (single-slot), interleaving notwithstanding.
func TestStatsDeterministic(t *testing.T) {
	run := func() Stats {
		cl := New(Config{Nodes: 3, Slots: 1, PlacementSeed: 5,
			Plan: reprotest.FaultPlan{KillNode: 2, KillAtJob: 1, CrashAtAction: 9}}, toyExec)
		if _, err := cl.Run(toyJobs(10)); err != nil {
			t.Fatal(err)
		}
		return cl.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats diverge across identical runs:\n%+v\n%+v", a, b)
	}
}
