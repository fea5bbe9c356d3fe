package abi

import (
	"testing"
	"testing/quick"
)

func TestErrnoStrings(t *testing.T) {
	cases := map[Errno]string{
		OK: "OK", ENOENT: "ENOENT", EAGAIN: "EAGAIN", ENOSYS: "ENOSYS",
		Errno(9999): "errno(9999)",
	}
	for e, want := range cases {
		if e.String() != want || (e != OK && e.Error() != want) {
			t.Errorf("%d -> %q, want %q", int32(e), e.String(), want)
		}
	}
}

func TestSysnoStrings(t *testing.T) {
	if SysGetdents.String() != "getdents" || SysExecve.String() != "execve" {
		t.Errorf("syscall names wrong")
	}
	if Sysno(9999).String() != "sys_9999" {
		t.Errorf("unknown syscall formatting")
	}
}

// TestSysnoBounds: every real call fits a SysnoLinux-long table and every
// call, the fetch pseudo-call included, a SysnoSlots-long one.
func TestSysnoBounds(t *testing.T) {
	for _, nr := range Sysnos() {
		if nr < 0 || nr >= SysnoSlots || (nr >= SysnoLinux) != (nr == SysFetch) {
			t.Errorf("%s = %d: SysnoLinux %d, SysnoSlots %d", nr, int(nr), SysnoLinux, SysnoSlots)
		}
	}
}

func TestSignalStrings(t *testing.T) {
	if SIGALRM.String() != "SIGALRM" || Signal(99).String() != "signal(99)" {
		t.Errorf("signal names wrong")
	}
}

func TestWaitStatusEncoding(t *testing.T) {
	ws := ExitStatus(42)
	if !ws.Exited() || ws.ExitCode() != 42 || ws.Signaled() {
		t.Errorf("exit status: %+v", ws)
	}
	ws = SignalStatus(SIGTERM)
	if ws.Exited() || !ws.Signaled() || ws.TermSignal() != SIGTERM {
		t.Errorf("signal status: %+v", ws)
	}
}

// Property: exit codes round-trip modulo 256 and never look signaled.
func TestExitStatusRoundTripProperty(t *testing.T) {
	prop := func(code uint8) bool {
		ws := ExitStatus(int(code))
		return ws.Exited() && ws.ExitCode() == int(code) && !ws.Signaled()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Timespec <-> nanoseconds round-trips for non-negative times.
func TestTimespecRoundTripProperty(t *testing.T) {
	prop := func(ns int64) bool {
		if ns < 0 {
			ns = -ns
		}
		ts := TimespecFromNanos(ns)
		return ts.Nanos() == ns && ts.Nsec >= 0 && ts.Nsec < 1e9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStatTypePredicates(t *testing.T) {
	var st Stat
	st.Mode = ModeDir | 0o755
	if !st.IsDir() || st.IsRegular() {
		t.Errorf("dir predicates wrong")
	}
	st.Mode = ModeRegular | 0o644
	if st.IsDir() || !st.IsRegular() {
		t.Errorf("file predicates wrong")
	}
}

func TestSyscallErrnoPlumbing(t *testing.T) {
	var sc Syscall
	sc.SetErrno(ENOENT)
	if sc.Err() != ENOENT || sc.Ret != -int64(ENOENT) {
		t.Errorf("errno plumbing: %+v", sc)
	}
	sc.Ret = 42
	if sc.Err() != OK || sc.Value() != 42 {
		t.Errorf("success plumbing: %+v", sc)
	}
}
