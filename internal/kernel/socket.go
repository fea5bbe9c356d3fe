package kernel

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// socket is a minimal AF_UNIX stream socket: enough for the baseline builds
// that use local sockets (test harnesses, build daemons). DetTrace does not
// support sockets at all (§5.9) — its policy aborts the container before any
// of this code runs.
type socket struct {
	listening bool
	path      string
	backlog   []*socket // completed connections waiting for accept
	in, out   *fs.Pipe
	k         *Kernel
}

func (s *socket) readable() bool {
	return s.in != nil && (s.in.Buffered() > 0 || !s.in.HasWriters())
}

func (s *socket) writable() bool {
	return s.out != nil && (s.out.Space() > 0 || !s.out.HasReaders())
}

func (s *socket) acceptable() bool { return len(s.backlog) > 0 }

func (s *socket) close() {
	if s.in != nil {
		s.in.CloseReader()
	}
	if s.out != nil {
		s.out.CloseWriter()
	}
	if s.listening && s.k != nil {
		delete(s.k.unixListeners, s.path)
	}
}

// connectPair wires two endpoints together with a pipe per direction.
func connectPair(a, b *socket) {
	ab := fs.NewPipe(fs.DefaultPipeCapacity)
	ba := fs.NewPipe(fs.DefaultPipeCapacity)
	ab.AddWriter()
	ab.AddReader()
	ba.AddWriter()
	ba.AddReader()
	a.out, a.in = ab, ba
	b.out, b.in = ba, ab
}

func (k *Kernel) sysSocketCall(t *Thread, sc *abi.Syscall) bool {
	p := t.Proc
	switch sc.Num {
	case abi.SysSocket:
		s := &socket{k: k}
		sc.Ret = int64(p.FDs.alloc(k.newFD(FD{kind: fdSocket, sock: s})))
	case abi.SysSocketpair:
		a, b := &socket{k: k}, &socket{k: k}
		connectPair(a, b)
		fa := p.FDs.alloc(k.newFD(FD{kind: fdSocket, sock: a}))
		fb := p.FDs.alloc(k.newFD(FD{kind: fdSocket, sock: b}))
		if out, ok := sc.Obj.(*[2]int); ok {
			out[0], out[1] = fa, fb
		}
		sc.Ret = 0
	case abi.SysBind:
		f, err := p.FDs.get(int(sc.Arg[0]))
		if err != abi.OK || f.kind != fdSocket {
			sc.SetErrno(abi.EBADF)
			return false
		}
		f.sock.path = normPath(p.CwdPath, sc.Path)
		sc.Ret = 0
	case abi.SysListen:
		f, err := p.FDs.get(int(sc.Arg[0]))
		if err != abi.OK || f.kind != fdSocket {
			sc.SetErrno(abi.EBADF)
			return false
		}
		if f.sock.path == "" {
			sc.SetErrno(abi.EINVAL)
			return false
		}
		f.sock.listening = true
		if k.unixListeners == nil {
			k.unixListeners = make(map[string]*socket)
		}
		k.unixListeners[f.sock.path] = f.sock
		sc.Ret = 0
	case abi.SysConnect:
		f, err := p.FDs.get(int(sc.Arg[0]))
		if err != abi.OK || f.kind != fdSocket {
			sc.SetErrno(abi.EBADF)
			return false
		}
		listener := k.unixListeners[normPath(p.CwdPath, sc.Path)]
		if listener == nil {
			sc.SetErrno(abi.ECONNREFUSE)
			return false
		}
		server := &socket{k: k}
		connectPair(f.sock, server)
		listener.backlog = append(listener.backlog, server)
		// Wake anyone blocked in accept.
		for _, bt := range k.kblocked {
			if bt.act != nil && bt.act.sc != nil &&
				(bt.act.sc.Num == abi.SysAccept || bt.act.sc.Num == abi.SysAccept4) {
				bt.wakeReady = true
			}
		}
		sc.Ret = 0
	case abi.SysAccept, abi.SysAccept4:
		f, err := p.FDs.get(int(sc.Arg[0]))
		if err != abi.OK || f.kind != fdSocket {
			sc.SetErrno(abi.EBADF)
			return false
		}
		if !f.sock.listening {
			sc.SetErrno(abi.EINVAL)
			return false
		}
		if len(f.sock.backlog) == 0 {
			return true
		}
		conn := f.sock.backlog[0]
		f.sock.backlog = f.sock.backlog[1:]
		sc.Ret = int64(p.FDs.alloc(k.newFD(FD{kind: fdSocket, sock: conn})))
	case abi.SysSendto:
		f, err := p.FDs.get(int(sc.Arg[0]))
		if err != abi.OK || f.kind != fdSocket {
			sc.SetErrno(abi.EBADF)
			return false
		}
		return k.sockWrite(t, sc, f)
	case abi.SysRecvfrom:
		f, err := p.FDs.get(int(sc.Arg[0]))
		if err != abi.OK || f.kind != fdSocket {
			sc.SetErrno(abi.EBADF)
			return false
		}
		return k.sockRead(t, sc, f)
	}
	return false
}

func (k *Kernel) sockRead(t *Thread, sc *abi.Syscall, f *FD) bool {
	if f.sock.in == nil {
		sc.SetErrno(abi.ENOTCONN)
		return false
	}
	n, eof := f.sock.in.Read(sc.Buf)
	if n == 0 && !eof {
		return true
	}
	sc.Ret = int64(n)
	return false
}

func (k *Kernel) sockWrite(t *Thread, sc *abi.Syscall, f *FD) bool {
	if f.sock.out == nil {
		sc.SetErrno(abi.ENOTCONN)
		return false
	}
	n, broken := f.sock.out.Write(sc.Buf)
	if broken {
		sc.SetErrno(abi.ECONNRESET)
		return false
	}
	if n == 0 {
		return true
	}
	sc.Ret = int64(n)
	return false
}
