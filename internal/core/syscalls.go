package core

import (
	"repro/internal/abi"
	"repro/internal/kernel"
)

// The syscall table: DetTrace's whole answer for one system call, written
// once. The §5 taxonomy gives a call one of three fates — seccomp lets it
// through (§5.11), the tracer stops and determinizes it, or the container
// rejects it as unsupported (§5.9) — and rr's syscallbuf adds a fourth: the
// in-tracee wrapper services it with no stop. A row declares which, and the
// handlers that determinize the call. The buffered path runs the same
// handlers as the traced one, so a buffered answer is the traced answer by
// construction; only the tracer's memory charges drop (see writeMem).
//
// A call without a row, and any number out of range, takes the default:
// traced, no handler.

// sysRow is one row of the syscall table.
type sysRow struct {
	allow  bool // seccomp lets it through: no stop, no handler (§5.11)
	buffer bool // the in-tracee wrapper services it while the buffer is on
	write  bool // an allowed call the §5.9 spin detector counts as progress
	gate   gate // whether the container supports it at all (§5.9)

	// unless is a buffer row's argument rule: the flag bits of Arg[0] that
	// send the call back to its traced verdict, because with them set the
	// tracer must act (the wrapper checks them, as rr's syscallbuf does).
	unless int64
	// regularFD is a buffer row's descriptor rule: the wrapper services the
	// call only when Arg[0] names an open regular file. Any other descriptor
	// — pipe, FIFO, device, console, socket, directory or none — keeps the
	// traced verdict, because on it the call may block.
	regularFD bool

	// enter runs at the pre-syscall stop: it may emulate the call, rewrite
	// its arguments, or abort the container. exit rewrites the result at the
	// post-syscall stop and may request a Fig. 4 retry.
	enter func(*Container, *kernel.Thread, *abi.Syscall) kernel.EnterResult
	exit  func(*Container, *kernel.Thread, *abi.Syscall) kernel.ExitResult
}

// gate is a row's unsupported-operation rule (§5.9).
type gate uint8

const (
	supported   gate = iota
	unsupported      // no determinization story: the "long tail" of §7.1.1
	socketCall       // unsupported unless Config.ExperimentalSockets
)

// action is a call's verdict: where DetTrace answers it.
type action uint8

const (
	actTrace  action = iota // stop at the tracer and run the row's handlers
	actAllow                // execute natively: no stop, no handler
	actBuffer               // the in-tracee wrapper runs the row's handlers: no stop
)

var syscalls = [abi.SysnoSlots]sysRow{
	// Naturally reproducible once the scheduler has determinized execution
	// order: fd bookkeeping, path mutation with deterministic errnos, and
	// address-space management whose values DetTrace does not promise to
	// hide. Everything touching time, identity, randomness, metadata,
	// directory order, blocking or process lifecycle must trap.
	abi.SysClose:       {allow: true},
	abi.SysDup2:        {allow: true},
	abi.SysChdir:       {allow: true},
	abi.SysAccess:      {allow: true},
	abi.SysReadlink:    {allow: true},
	abi.SysSync:        {allow: true},
	abi.SysSchedYield:  {allow: true},
	abi.SysRtSigaction: {allow: true},
	abi.SysPrctl:       {allow: true},
	abi.SysArchPrctl:   {allow: true},
	abi.SysIoctl:       {allow: true},
	abi.SysPipe:        {allow: true},
	abi.SysPipe2:       {allow: true},
	abi.SysSetuid:      {allow: true},
	abi.SysGetuid:      {allow: true},
	abi.SysGetgid:      {allow: true},
	abi.SysChroot:      {allow: true},

	// Allowed writes to the filesystem tree or the address space: progress
	// a waiting sibling may be blocked on.
	abi.SysMkdir:     {allow: true, write: true},
	abi.SysRmdir:     {allow: true, write: true},
	abi.SysUnlink:    {allow: true, write: true},
	abi.SysUnlinkat:  {allow: true, write: true},
	abi.SysRename:    {allow: true, write: true},
	abi.SysLink:      {allow: true, write: true},
	abi.SysSymlink:   {allow: true, write: true},
	abi.SysChmod:     {allow: true, write: true},
	abi.SysChown:     {allow: true, write: true},
	abi.SysTruncate:  {allow: true, write: true},
	abi.SysFtruncate: {allow: true, write: true},
	abi.SysBrk:       {allow: true, write: true},
	abi.SysMmap:      {allow: true, write: true},

	// Plain kernel services whose answers are already deterministic: an
	// auditing tracer still wants them in the event record, and buffering
	// gives the record without the stop.
	abi.SysLseek:  {allow: true, buffer: true},
	abi.SysFcntl:  {allow: true, buffer: true},
	abi.SysUmask:  {allow: true, buffer: true},
	abi.SysGetcwd: {allow: true, buffer: true},

	// Time (§5.3): a logical clock, monotone and reproducible.
	abi.SysTime:         {buffer: true, enter: (*Container).enterTime},
	abi.SysGettimeofday: {buffer: true, enter: (*Container).enterClock},
	abi.SysClockGettime: {buffer: true, enter: (*Container).enterClock},

	// Identity (§5.1): a pid namespace from 1 and scheduler-virtual tids.
	abi.SysGetpid:  {buffer: true, exit: (*Container).exitGetpid},
	abi.SysGetppid: {buffer: true, exit: (*Container).exitGetppid},
	abi.SysGetTid:  {buffer: true, exit: (*Container).exitGettid},

	// Metadata (§5.5, §7.3). fstat's rewrite reads only the inode and mtime
	// maps, so it is buffered — the volume win, as in rr's syscallbuf. A
	// read-only open is buffered too: it never mints a virtual inode or mtime
	// (only a creation does), never mutates the tree and never blocks. An
	// open that may create, truncate or write stays traced.
	abi.SysStat:      {exit: (*Container).exitStat},
	abi.SysLstat:     {exit: (*Container).exitStat},
	abi.SysFstat:     {buffer: true, exit: (*Container).exitStat},
	abi.SysGetdents:  {exit: (*Container).exitGetdents},
	abi.SysOpen:      {buffer: true, unless: writeOpen, enter: (*Container).enterOpen, exit: (*Container).exitOpen},
	abi.SysOpenat:    {buffer: true, unless: writeOpen, enter: (*Container).enterOpen, exit: (*Container).exitOpen},
	abi.SysCreat:     {enter: (*Container).enterOpen, exit: (*Container).exitOpen},
	abi.SysUtimes:    {enter: (*Container).enterUtimes},
	abi.SysUtimensat: {enter: (*Container).enterUtimes},

	// Partial IO (Fig. 4). A read of a regular file is buffered: it never
	// blocks, moves only the descriptor's offset and touches no
	// virtualization map, and the wrapper runs Fig. 4's retry loop itself.
	// A write stays traced: it mutates the tree, and the fast path is not a
	// workspace sync point.
	abi.SysRead:  {buffer: true, regularFD: true, exit: (*Container).exitRead},
	abi.SysWrite: {exit: (*Container).exitWrite},

	// Timers, sleeps and signals (§5.4, §5.10).
	abi.SysNanosleep: {enter: (*Container).enterNanosleep},
	abi.SysAlarm:     {enter: (*Container).enterAlarm},
	abi.SysSetitimer: {enter: (*Container).enterSetitimer},
	abi.SysKill:      {enter: (*Container).enterKill},

	// Randomness (§5.2) and the machine (§5.8, §3).
	abi.SysGetrandom: {enter: (*Container).enterGetrandom},
	abi.SysUname:     {enter: (*Container).enterUname},
	abi.SysSysinfo:   {enter: (*Container).enterSysinfo},

	// Process lifecycle (§5.1, §5.6).
	abi.SysFork:  {exit: (*Container).exitFork},
	abi.SysClone: {exit: (*Container).exitFork},
	abi.SysWait4: {enter: (*Container).enterWait4, exit: (*Container).exitWait4},

	// Checksummed downloads (§3).
	abi.SysFetch: {enter: (*Container).enterFetch},

	// Unsupported (§5.9). They trap, so the tracer can raise the error.
	abi.SysMount:         {gate: unsupported},
	abi.SysPersonality:   {gate: unsupported},
	abi.SysSchedAffinity: {gate: unsupported},
	abi.SysSocket:        {gate: socketCall},
	abi.SysSocketpair:    {gate: socketCall},
	abi.SysBind:          {gate: socketCall},
	abi.SysListen:        {gate: socketCall},
	abi.SysConnect:       {gate: socketCall},
	abi.SysAccept:        {gate: socketCall},
	abi.SysAccept4:       {gate: socketCall},
	abi.SysSendto:        {gate: socketCall},
	abi.SysRecvfrom:      {gate: socketCall},
}

// noRow is the default row, for numbers out of the table's range.
var noRow sysRow

// rowOf returns nr's row, or noRow when nr is out of range.
func rowOf(nr abi.Sysno) *sysRow {
	if uint(nr) < abi.SysnoSlots {
		return &syscalls[nr]
	}
	return &noRow
}

// The verdict tables, one per interception mode, compiled from the rows at
// package init and shared by every container.
const (
	modeBuffered   = iota // the full configuration
	modeUnbuffered        // syscall-buffer off: a buffer row takes its seccomp verdict
	modeTraceAll          // seccomp off: no filter, so no untraced path for the wrapper either
	numModes
)

// writeOpen is the open rows' argument rule: the flags with which an open may
// create, truncate or write a file.
const writeOpen = abi.OCreat | abi.OTrunc | abi.OWronly | abi.ORdwr

var (
	verdicts [numModes][abi.SysnoSlots]action
	// unless and regularFD hold each row's argument and descriptor rules,
	// compiled beside the verdict tables so that verdictOf never reads a row:
	// rows name handlers, which reach verdictOf through writeMem — an
	// initialization cycle.
	unless    [abi.SysnoSlots]int64
	regularFD [abi.SysnoSlots]bool
)

func init() {
	for nr := range syscalls {
		v := actTrace
		if syscalls[nr].allow {
			v = actAllow
		}
		verdicts[modeUnbuffered][nr] = v
		if syscalls[nr].buffer {
			v = actBuffer
		}
		verdicts[modeBuffered][nr] = v
		// modeTraceAll stays all actTrace, the zero verdict.
		unless[nr] = syscalls[nr].unless
		regularFD[nr] = syscalls[nr].regularFD
	}
}

// verdictOf returns sc's verdict for thread t, computing it once per
// in-flight call: it is cached on the Syscall record so the entry and exit
// stops (and the fast path before them) share a single table lookup. A buffer
// verdict whose argument or descriptor rule declines the call falls back to
// the row's seccomp verdict; only a row with the descriptor rule looks t's fd
// table up.
func (c *Container) verdictOf(t *kernel.Thread, sc *abi.Syscall) action {
	if sc.Verdict == 0 {
		v := actTrace
		if uint(sc.Num) < abi.SysnoSlots {
			v = c.verdicts[sc.Num]
			if v == actBuffer && (sc.Arg[0]&unless[sc.Num] != 0 ||
				regularFD[sc.Num] && !c.isRegularFD(t, sc.Arg[0])) {
				v = verdicts[modeUnbuffered][sc.Num]
			}
		}
		sc.Verdict = uint8(v) + 1
	}
	return action(sc.Verdict - 1)
}

// isRegularFD reports whether fd names an open regular file of t's process.
func (c *Container) isRegularFD(t *kernel.Thread, fd int64) bool {
	ino, err := c.k.FDInode(t.Proc, int(fd))
	return err == abi.OK && ino.IsRegular()
}
