package ttd_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/leakcheck"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/ttd"
)

// The recorded run is a four-stage exec chain: every exec is a quiescent
// traced stop, so the recording seals one checkpoint per stage boundary and
// a seek has several seals to choose from.
const stages = 4

func stage(n int) guest.Program {
	return func(p *guest.Proc) int {
		buf := make([]byte, 8)
		p.GetRandom(buf)
		p.Printf("stage%d pid=%d t=%d r=%x\n", n, p.Getpid(), p.Time(), buf)
		func() {
			// A scratch file removed on the way out, like cc's: a seek that
			// halts in here unwinds through the deferred unlink.
			p.WriteFile("/tmp/scratch", buf, 0o600)
			defer p.Unlink("/tmp/scratch")
			for i := 0; i < 6; i++ {
				p.WriteFile(fmt.Sprintf("/tmp/s%d_%d", n, i), []byte{byte(n), byte(i)}, 0o644)
				p.Compute(1_000)
			}
		}()
		if n == stages-1 {
			return 0
		}
		next := fmt.Sprintf("stage%d", n+1)
		if err := p.Exec("/bin/"+next, []string{next}, p.Environ()); err != abi.OK {
			return 1
		}
		return 127
	}
}

// record runs the chain once with a collecting sink and returns the session
// a debugger would open on it, plus the recorded run's result. mod, when
// non-nil, adjusts the recorded config (a fault injection).
func record(t *testing.T, mod func(*core.Config)) (*ttd.Session, *core.Result) {
	t.Helper()
	reg := guest.NewRegistry()
	img := baseimg.Minimal()
	for n := 0; n < stages; n++ {
		name := fmt.Sprintf("stage%d", n)
		reg.Register(name, stage(n))
		img.AddFile("/bin/"+name, 0o755, guest.MakeExe(name, nil))
	}
	s := &ttd.Session{Reg: reg, Obs: obs.NewRegistry(), Rec: obs.NewRecorder(0)}
	s.Cfg = core.Config{
		Image: img, Profile: machine.CloudLabC220G5(), HostSeed: 0xAAAA, Epoch: 1_520_000_000,
		Deadline:       3_600_000_000_000,
		CheckpointSink: func(cp *core.Checkpoint) { s.Seals = append(s.Seals, cp) },
	}
	if mod != nil {
		mod(&s.Cfg)
	}
	s.Launch = func(cfg core.Config) *core.Result {
		return core.New(cfg).Run(reg, "/bin/stage0", []string{"stage0"}, []string{"PATH=/bin"})
	}
	res := s.Launch(s.Cfg)
	if res.Err != nil {
		t.Fatalf("recording run: %v", res.Err)
	}
	if len(s.Seals) < stages-1 {
		t.Fatalf("recording sealed %d checkpoints, want at least %d", len(s.Seals), stages-1)
	}
	s.Trace = res.Events
	return s, res
}

// state is a View minus how the seek got there.
func state(v *ttd.View) ttd.View {
	c := *v
	c.SealOrdinal, c.ReplayedActions = 0, 0
	return c
}

func seek(t *testing.T, s *ttd.Session, ltime int64) *ttd.View {
	t.Helper()
	v, err := s.SeekTo(ltime)
	if err != nil {
		t.Fatalf("seek to %d: %v", ltime, err)
	}
	return v
}

// TestSeekViewIndependentOfSeal: one instant, three ways to reach it — from
// the newest preceding seal, from the first seal, from boot — one state.
func TestSeekViewIndependentOfSeal(t *testing.T) {
	s, res := record(t, nil)
	newest := s.Seals[len(s.Seals)-1]
	instant := (newest.LNow() + res.LTime) / 2

	near := seek(t, s, instant)
	if !near.Halted || near.LTime < instant {
		t.Fatalf("seek to %d: halted=%v at ltime %d", instant, near.Halted, near.LTime)
	}
	if near.SealOrdinal != newest.Ordinal() {
		t.Errorf("seek restored seal %d, want the newest preceding one (%d)", near.SealOrdinal, newest.Ordinal())
	}
	far, cold := *s, *s
	far.Seals = s.Seals[:1]
	cold.Seals = nil
	for name, other := range map[string]*ttd.Session{"first seal": &far, "cold replay": &cold} {
		v := seek(t, other, instant)
		if v.ReplayedActions <= near.ReplayedActions {
			t.Errorf("%s replayed %d actions, no more than the nearest seal's %d", name, v.ReplayedActions, near.ReplayedActions)
		}
		if !reflect.DeepEqual(state(v), state(near)) {
			t.Errorf("view from the %s differs from the view from seal %d", name, near.SealOrdinal)
		}
	}
}

// TestSeekPastEndShowsFinalState: an instant beyond the run is not a halt.
func TestSeekPastEndShowsFinalState(t *testing.T) {
	s, res := record(t, nil)
	v := seek(t, s, res.LTime+1_000_000_000)
	if v.Halted {
		t.Errorf("seek past the end reports Halted")
	}
	if v.Actions != res.Actions || v.LTime != res.LTime || !reflect.DeepEqual(v.FS, res.FS) {
		t.Errorf("seek past the end: actions %d ltime %d, want the run's final %d / %d and its final filesystem",
			v.Actions, v.LTime, res.Actions, res.LTime)
	}
}

// TestSeekStepsDownPastCorruptSeal: a newest seal that fails validation costs
// replay distance, never correctness.
func TestSeekStepsDownPastCorruptSeal(t *testing.T) {
	s, res := record(t, nil)
	newest := s.Seals[len(s.Seals)-1]
	instant := (newest.LNow() + res.LTime) / 2
	want := seek(t, s, instant)

	newest.Kernel().CorruptFSSeal()
	if newest.Valid() {
		t.Fatal("corrupted seal still validates")
	}
	got := seek(t, s, instant)
	if got.SealOrdinal != newest.Ordinal()-1 {
		t.Errorf("seek restored seal %d, want a step down to %d", got.SealOrdinal, newest.Ordinal()-1)
	}
	if !reflect.DeepEqual(state(got), state(want)) {
		t.Errorf("view after stepping down differs from the view before the corruption")
	}
}

// TestSeekLeaksNothing: every seek is a halted replay, and a halted kernel
// leaves no goroutine behind — fifty seeks cost fifty seeks.
func TestSeekLeaksNothing(t *testing.T) {
	s, res := record(t, nil)
	leaked := leakcheck.Goroutines(t)
	for i := int64(1); i <= 50; i++ {
		seek(t, s, res.LTime*i/51)
	}
	leaked()
	if n := s.Obs.Counter("ttd_seek_total").Value(); n != 50 {
		t.Errorf("ttd_seek_total = %d, want 50", n)
	}
}
