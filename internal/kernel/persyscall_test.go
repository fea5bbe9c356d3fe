package kernel_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/guest"
)

// TestPerSyscallTableGrows: the per-syscall table is abi.SysnoLinux long
// until a call past it, the fetch pseudo-call, grows it to abi.SysnoSlots,
// keeping every count; a number past abi.SysnoSlots grows nothing.
func TestPerSyscallTableGrows(t *testing.T) {
	for _, fetch := range []bool{false, true} {
		k := mustRun(t, 1, func(p *guest.Proc) int {
			p.Getpid()
			p.Getpid()
			p.T.Syscall(&abi.Syscall{Num: abi.SysnoSlots + 7})
			if fetch {
				p.T.Syscall(&abi.Syscall{Num: abi.SysFetch, Path: "http://example.invalid/x"})
			}
			p.Getpid()
			return 0
		})
		per, want := k.PerSyscall(), abi.SysnoLinux
		if fetch {
			want = abi.SysnoSlots
		}
		if len(per) != want || per[abi.SysGetpid] != 3 {
			t.Errorf("fetch=%v: table %d long with %d getpids, want %d long with 3", fetch, len(per), per[abi.SysGetpid], want)
		}
		if fetch && per[abi.SysFetch] != 1 {
			t.Errorf("fetch counted %d times, want 1", per[abi.SysFetch])
		}
	}
}
