// Package ttd is the time-travel debug service (ISSUE 9): logical-time seek
// over a recorded run's checkpoint seal chain, plus O(log n) auto-bisect of
// the first divergent event between two runs (bisect.go).
//
// The foundation is the determinism contract the rest of the system already
// pins: a container run is a pure function of its inputs, a checkpoint
// restore is bitwise-identical to the uninterrupted run, and a halted replay
// observes a strict prefix of it. Time travel then needs no new mechanism at
// all — "go to logical instant T" is just "restore the nearest preceding
// seal and replay forward with HaltAtLTime=T", and because replay is exact,
// the state inspected at T is THE state the original run passed through, not
// an approximation. Delta checkpoint seals (internal/fs) make the seal chain
// dense enough for seeks to be cheap; the chain validator steps down past
// any corrupted link to the newest seal whose whole chain validates.
package ttd

import (
	"errors"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// Session is one debuggable recorded run: its checkpoint seal chain, its
// full flight-recorder trace, and everything needed to re-execute it
// (config, program registry, cold-launch closure). Sessions are built by the
// recording layer (internal/buildsim collects every seal via a slice
// CheckpointSink); the debugger itself never mutates them.
type Session struct {
	// Cfg is the recorded run's container config. Seeks derive their replay
	// config from it: sinks and fault knobs cleared, halt knob set. It must
	// be recoveryHash-identical to the config the seals were taken under.
	Cfg core.Config
	// Reg resolves the container's programs for re-execution.
	Reg *guest.Registry
	// Launch re-runs the container from boot under the given config — the
	// cold-replay fallback when no seal precedes the target instant (or
	// every candidate seal's chain is corrupt). The closure owns the
	// command/env of the recorded run.
	Launch func(core.Config) *core.Result
	// Seals is the run's checkpoint chain in ordinal order (1-based
	// ordinals, Seals[i].Ordinal() == i+1).
	Seals []*core.Checkpoint
	// Trace is the run's full recorded event stream (the linear diagnoser's
	// input; bisect validates against it).
	Trace []obs.Event

	// Obs and Rec are the debug session's own observability — ttd_* counters
	// and KindSeek/KindBisectProbe events land here, never on a guest run's
	// registry or ring (attaching a debugger must not perturb what per-run
	// metrics a run reports). Both may be nil.
	Obs *obs.Registry
	Rec *obs.Recorder
}

// View is the state of the recorded run at one logical instant — the
// inspection surface a debugger renders. Everything in it comes from a
// halted exact replay, so two Views of the same instant are identical no
// matter which seal the seek happened to restore from.
type View struct {
	LTime   int64 // logical clock at the halt (>= the requested instant)
	Actions int64 // kernel action count at the halt

	// SealOrdinal is the checkpoint the seek restored from (0 = cold replay
	// from boot); ReplayedActions how many kernel actions the replay
	// executed to reach the instant — the deterministic seek cost benchtab's
	// ttd study reports.
	SealOrdinal     int
	ReplayedActions int64

	// Halted is false when the requested instant lies at or beyond the end
	// of the run: the View then shows final state.
	Halted bool

	// FS is the filesystem exactly as the run saw it at the instant.
	FS *fs.Image
	// Events is the flight-recorder prefix up to the instant.
	Events []obs.Event
	// EntropyDraws is the entropy-log cursor (numbered PRNG draws served so
	// far) and RandomLog the true-randomness log prefix, when enabled.
	EntropyDraws int
	RandomLog    []byte
	// Stats is the kernel counter snapshot at the instant, scheduler state
	// included (runnable/blocked tallies, context switches).
	Stats kernel.Stats
}

// SeekTo replays the run to logical instant ltime and returns the state
// there. It restores the newest seal at or before ltime (stepping down past
// seals whose chain fails validation, all the way to a cold replay if
// needed) and replays forward with HaltAtLTime — so cost is proportional to
// the distance from the preceding seal, not to ltime.
func (s *Session) SeekTo(ltime int64) (*View, error) {
	cfg := s.replayConfig()
	cfg.HaltAtLTime = ltime

	idx := len(s.Seals) - 1
	for idx >= 0 && s.Seals[idx].LNow() > ltime {
		idx--
	}
	res, ordinal, err := s.replayFrom(idx, cfg)
	if err != nil {
		return nil, err
	}

	var sealActions int64
	if ordinal > 0 {
		sealActions = s.Seals[ordinal-1].Actions()
	}
	replayed := res.Actions - sealActions
	s.count("ttd_seek_total", 1)
	s.count("ttd_seek_replay_actions", replayed)
	from := int64(ordinal)
	if ordinal == 0 {
		from = -1 // cold replay
	}
	s.record(obs.KindSeek, clampInt32(replayed), uint64(ltime), from)

	return &View{
		LTime:           res.LTime,
		Actions:         res.Actions,
		SealOrdinal:     ordinal,
		ReplayedActions: replayed,
		Halted:          res.Halted,
		FS:              res.FS,
		Events:          res.Events,
		EntropyDraws:    res.EntropyDraws,
		RandomLog:       res.RandomLog,
		Stats:           res.Stats,
	}, nil
}

// replayConfig derives the exact-replay config from the recorded run's: the
// fault knobs are cleared (a replay observes, it does not re-crash or
// re-corrupt), which recoveryHash permits; everything behaviour-relevant
// stays, so the replay IS the recorded run. Checkpoint markers are ring
// events, so when the recorded run sealed checkpoints the replay re-seals at
// the same stops — into a discard sink, never the recording's own — making a
// View's ring byte-for-byte the recorded run's prefix no matter which seal
// the seek restored from (or none).
func (s *Session) replayConfig() core.Config {
	cfg := s.Cfg
	cfg.CheckpointSink = nil
	if s.Cfg.CheckpointSink != nil {
		cfg.CheckpointSink = func(*core.Checkpoint) {}
	}
	cfg.FaultInjectCrash = 0
	cfg.FaultCorruptCheckpoint = 0
	cfg.HaltAtLTime = 0
	cfg.HaltAtAction = 0
	return cfg
}

// replayFrom resumes Seals[idx] under cfg, stepping down to older seals (and
// finally a cold Launch, ordinal 0) when a seal's chain fails validation —
// the corrupted-delta-link degradation path. Any error other than corruption
// is real and surfaces.
func (s *Session) replayFrom(idx int, cfg core.Config) (*core.Result, int, error) {
	for ; idx >= 0; idx-- {
		res, err := core.Resume(s.Seals[idx], s.Reg, cfg)
		switch {
		case err == nil:
			return res, s.Seals[idx].Ordinal(), nil
		case errors.Is(err, core.ErrCheckpointCorrupt):
			continue
		default:
			return nil, 0, err
		}
	}
	if s.Launch == nil {
		return nil, 0, errors.New("ttd: no valid seal and no cold-launch closure")
	}
	res := s.Launch(cfg)
	if res == nil {
		return nil, 0, errors.New("ttd: cold launch returned no result")
	}
	return res, 0, nil
}

// count bumps a session counter in Obs; a session without a registry
// counts nothing.
func (s *Session) count(name string, n int64) {
	if s.Obs != nil && n != 0 {
		s.Obs.Counter(name).Add(n)
	}
}

// record appends a session event, stamped with the session's own event
// count as its logical time (the debug ring has no guest clock).
func (s *Session) record(kind obs.Kind, num int32, arg uint64, ret int64) {
	if s.Rec != nil {
		s.Rec.Record(s.Rec.Total(), kind, num, 0, arg, ret)
	}
}

func clampInt32(v int64) int32 {
	if v > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(v)
}
