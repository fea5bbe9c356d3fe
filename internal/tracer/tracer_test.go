package tracer

import (
	"testing"
	"testing/quick"

	"repro/internal/abi"
)

func TestInterceptCostStops(t *testing.T) {
	single := NewSession(new(Counters), true)
	double := NewSession(new(Counters), false)
	cs, cd := single.InterceptCost(1), double.InterceptCost(1)
	if cd != 2*cs {
		t.Errorf("two-stop fallback should cost twice the combined event: %d vs %d", cd, cs)
	}
	if single.Counters.Stops != 1 || double.Counters.Stops != 2 {
		t.Errorf("stop counters: %d, %d", single.Counters.Stops, double.Counters.Stops)
	}
}

func TestHandlerClasses(t *testing.T) {
	cases := map[abi.Sysno]Class{
		abi.SysOpen:     ClassHeavy,
		abi.SysStat:     ClassHeavy,
		abi.SysGetdents: ClassHeavy,
		abi.SysExecve:   ClassHeavy,
		abi.SysTime:     ClassMedium,
		abi.SysGetpid:   ClassMedium,
		abi.SysRead:     ClassLight,
		abi.SysWrite:    ClassLight,
		abi.SysFutex:    ClassLight,
	}
	for nr, want := range cases {
		if got := ClassOf(nr); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", nr, got, want)
		}
	}
	s := NewSession(new(Counters), true)
	if !(s.HandlerCost(abi.SysOpen, 1) > s.HandlerCost(abi.SysTime, 1) &&
		s.HandlerCost(abi.SysTime, 1) > s.HandlerCost(abi.SysRead, 1)) {
		t.Errorf("handler cost ordering violated")
	}
}

// Property: every cost scales linearly in the event weight, because an event
// of weight w stands for w real events.
func TestCostsScaleWithWeightProperty(t *testing.T) {
	prop := func(wRaw uint16) bool {
		w := int64(wRaw)%5000 + 1
		a, b := NewSession(new(Counters), true), NewSession(new(Counters), true)
		if a.InterceptCost(w) != b.InterceptCost(1)*w {
			return false
		}
		if a.HandlerCost(abi.SysOpen, w) != b.HandlerCost(abi.SysOpen, 1)*w {
			return false
		}
		if a.ReadMem(w, 3) != b.ReadMem(1, 3)*w {
			return false
		}
		if a.ReadProc(w) != b.ReadProc(1)*w {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemCounters(t *testing.T) {
	s := NewSession(new(Counters), true)
	s.ReadMem(10, 3)
	s.WriteMem(2, 5)
	s.ReadProc(7)
	c := s.Counters
	if c.MemReads != 30 || c.MemWrites != 10 || c.ProcReads != 7 {
		t.Errorf("counters: reads=%d writes=%d proc=%d", c.MemReads, c.MemWrites, c.ProcReads)
	}
}
