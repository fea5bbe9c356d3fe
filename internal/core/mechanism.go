package core

import (
	"fmt"
	"strings"
)

// The mechanism table: one row per mechanism Config.Off can switch off, and
// the one place a switch is declared. Each row names the mechanism and the
// paper section it implements or extends, says whether ConfigHash folds the
// switch in (and why not, when it does not), and states its contract — the
// §5 argument in two halves:
//
//   - A determinization rule *breaks* reproducibility when switched off: the
//     row names the debpkg directive family that then leaks host state into
//     the output. The core leak test runs a witness of that family on two
//     hosts and requires divergence with only this row off.
//   - A performance mechanism *moves* only what its row declares when
//     switched off, never an output bit. The buildsim equivalence matrix
//     normalises a farm's output by exactly that declaration.
//
// A hashed row partitions the derivation-key space even where both sides are
// provably bitwise identical: caching must never cross an ablation under test.
// Only the rows whose whole contract is invisibility to every cached artifact
// stay out.

// Mechanism is one row of the mechanism table.
type Mechanism uint8

// The rows. The hashed rows come first, in the order ConfigHash has always
// folded them, so no config hash, derivation key or seal key moves.
const (
	Seccomp Mechanism = iota
	SyscallBuf
	Workspaces
	Vdso
	DirSizes
	CpuidTrap
	InodeVirt
	GetdentsSort
	Incremental
	DeltaSeals
	TemplateReuse
	Observability
	NumMechanisms
)

// Moves is a performance mechanism's contract: what switching it off may
// change. Exit status, .deb and build log never move.
type Moves uint8

const (
	MovesNothing      Moves = iota // not even the virtual clock
	MovesSetup                     // how a container is set up (shared or private snapshot) and the farm's setup counters
	MovesVirtualTime               // the virtual clock, and the workspace fork/merge counts that overlap it
	MovesTracerCounts              // the virtual clock and the Table 2 tracer event counts
)

type mechanismRow struct {
	name, section string
	unhashed      string // why ConfigHash leaves the switch out; "" = hashed
	moves         Moves  // a performance mechanism's contract
	breaks        string // a determinization rule's contract: the directive family that leaks
}

var mechanisms = [NumMechanisms]mechanismRow{
	Seccomp:      {"seccomp", "§5.11", "", MovesTracerCounts, ""},
	SyscallBuf:   {"syscall-buffer", "§5.11", "", MovesTracerCounts, ""},
	Workspaces:   {"workspaces", "§5.7", "", MovesVirtualTime, ""},
	Vdso:         {"vdso", "§5.3", "", 0, "timestamp-vdso"},
	DirSizes:     {"dir-sizes", "§7.3", "", 0, "dirsize"},
	CpuidTrap:    {"cpuid-trap", "§5.8", "", 0, "cpuinfo"},
	InodeVirt:    {"inode-virt", "§5.5", "", 0, "inode"},
	GetdentsSort: {"getdents-sort", "§5.5", "", 0, "readdir"},
	Incremental:  {"incremental", "§3", "", MovesNothing, ""},
	DeltaSeals:   {"delta-seals", "§3", "", MovesNothing, ""},
	TemplateReuse: {"template-reuse", "§3",
		"a boot of a shared snapshot is bitwise a boot of a private one", MovesSetup, ""},
	Observability: {"observability", "§6.1",
		"the recorder observes, it never feeds back", MovesNothing, ""},
}

// String is the row's name.
func (m Mechanism) String() string { return mechanisms[m].name }

// Section is the paper section the mechanism implements or extends.
func (m Mechanism) Section() string { return mechanisms[m].section }

// Unhashed says why ConfigHash leaves the switch out; "" when it hashes it.
func (m Mechanism) Unhashed() string { return mechanisms[m].unhashed }

// Breaks names the debpkg directive family that leaks with the row off, ""
// for a performance mechanism.
func (m Mechanism) Breaks() string { return mechanisms[m].breaks }

// Moves is what switching a performance mechanism off may change.
func (m Mechanism) Moves() Moves { return mechanisms[m].moves }

// Mechanisms is a set of rows: by convention the switched-off ones.
type Mechanisms uint16

// Off is the set of the given rows; sets combine with | and &^.
func Off(ms ...Mechanism) Mechanisms {
	var s Mechanisms
	for _, m := range ms {
		s |= 1 << m
	}
	return s
}

// PaperDetTrace is the paper's DetTrace: every row on but the syscall
// buffer, which the paper's prototype does not have. The sections and
// calibrations that reproduce the paper's figures run with it.
const PaperDetTrace = Mechanisms(1 << SyscallBuf)

// Has reports whether m is in the set.
func (s Mechanisms) Has(m Mechanism) bool { return s&(1<<m) != 0 }

// String lists the set's rows by name, comma-separated, as ParseMechanisms reads them.
func (s Mechanisms) String() string {
	var names []string
	for m := range NumMechanisms {
		if s.Has(m) {
			names = append(names, m.String())
		}
	}
	return strings.Join(names, ",")
}

// ParseMechanisms reads a list of row names such as "seccomp,vdso" into a set
// ("" is the empty set); an unknown or empty name is an error listing the rows.
func ParseMechanisms(list string) (Mechanisms, error) {
	var s Mechanisms
	for _, name := range strings.Split(list, ",") {
		m := Mechanism(0)
		for m < NumMechanisms && m.String() != name {
			m++
		}
		switch {
		case m < NumMechanisms:
			s |= Off(m)
		case list != "":
			return 0, fmt.Errorf("unknown mechanism %q: want a comma-separated list of %s", name, ^Mechanisms(0))
		}
	}
	return s, nil
}

// Set parses list into s, so that a *Mechanisms is a command's -off flag.
func (s *Mechanisms) Set(list string) (err error) { *s, err = ParseMechanisms(list); return err }

// OffUsage is the usage text of a command's -off flag.
var OffUsage = "switch mechanisms off: a comma-separated `list` of " + (^Mechanisms(0)).String()
