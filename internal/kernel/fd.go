package kernel

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

type fdKind int

const (
	fdFile fdKind = iota
	fdDir
	fdPipeR
	fdPipeW
	fdDevice
	fdConsole
	fdSocket
)

// FD is one open file description. Linux shares descriptions across dup'd
// descriptors; the table below stores *FD pointers so dup2 aliases state the
// way the real kernel does.
type FD struct {
	kind fdKind

	ino *fs.Inode
	// cwd and path are the opener's working directory and the path as
	// passed; /proc/fd's absolute form is normalized only when asked for.
	cwd, path string
	pos       int64
	flags     int

	pipe *fs.Pipe
	dev  fs.Device
	sock *socket

	consoleErr bool // console fd bound to stderr

	// dirSnapshot holds the remaining getdents entries once a directory
	// read has started, matching Linux's stable-snapshot semantics.
	dirSnapshot []abi.Dirent
	dirRead     bool

	refs int

	// nextFree links a released description into its kernel's free list.
	nextFree *FD
}

// newFD returns a description set to v, reusing one the kernel released
// if it has one. Every description comes from here, so the free list never
// holds more than the most descriptions a run had open at once.
func (k *Kernel) newFD(v FD) *FD {
	f := k.freeFDs
	if f == nil {
		f = new(FD)
	} else {
		k.freeFDs = f.nextFree
	}
	*f = v
	return f
}

// FDTable maps descriptor numbers to open descriptions. Threads share it;
// fork copies it (each FD's refcount bumps).
type FDTable struct {
	fds  map[int]*FD
	next int
}

func newFDTable() *FDTable {
	return &FDTable{fds: make(map[int]*FD), next: 0}
}

// install places fd at the lowest free slot and returns the number.
func (ft *FDTable) install(hint int, f *FD) int {
	n := hint
	for {
		if _, used := ft.fds[n]; !used {
			break
		}
		n++
	}
	f.refs++
	ft.fds[n] = f
	return n
}

// alloc finds the lowest free descriptor >= 0.
func (ft *FDTable) alloc(f *FD) int { return ft.install(0, f) }

// get looks a descriptor up.
func (ft *FDTable) get(n int) (*FD, abi.Errno) {
	f, ok := ft.fds[n]
	if !ok {
		return nil, abi.EBADF
	}
	return f, abi.OK
}

// dup2 makes newfd an alias of oldfd, closing any previous occupant.
func (ft *FDTable) dup2(k *Kernel, oldfd, newfd int) abi.Errno {
	f, ok := ft.fds[oldfd]
	if !ok {
		return abi.EBADF
	}
	if oldfd == newfd {
		return abi.OK
	}
	if prev, ok := ft.fds[newfd]; ok {
		ft.release(k, prev)
	}
	f.refs++
	ft.fds[newfd] = f
	return abi.OK
}

// close removes a descriptor.
func (ft *FDTable) close(k *Kernel, n int) abi.Errno {
	f, ok := ft.fds[n]
	if !ok {
		return abi.EBADF
	}
	delete(ft.fds, n)
	ft.release(k, f)
	return abi.OK
}

func (ft *FDTable) release(k *Kernel, f *FD) {
	f.refs--
	if f.refs > 0 {
		return
	}
	switch f.kind {
	case fdPipeR:
		f.pipe.CloseReader()
	case fdPipeW:
		f.pipe.CloseWriter()
	case fdSocket:
		f.sock.close()
	}
	// No table holds f any longer: zero it, so it pins no inode, pipe or
	// directory snapshot, and keep it for the next open.
	*f = FD{nextFree: k.freeFDs}
	k.freeFDs = f
}

// clone copies the table for fork: same descriptions, bumped refcounts.
func (ft *FDTable) clone() *FDTable {
	nt := newFDTable()
	for n, f := range ft.fds {
		f.refs++
		nt.fds[n] = f
	}
	return nt
}

// closeAll releases every descriptor at process exit.
func (ft *FDTable) closeAll(k *Kernel) {
	for n := range ft.fds {
		ft.close(k, n)
	}
}
