package porting

import (
	"bytes"

	"hotcalls/internal/osapi"
	"hotcalls/internal/sdk"
)

// landing is an untrusted landing function: the generated untrusted half of
// an ocall, which makes the real API call against the kernel.
type landing func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64

// landings holds the framework's landing function for every ocall a port
// declares; New binds each declared ocall found here.  Buffer calls follow
// the EDL shape (fd, buf, len) and name their system call after the ocall.
var landings = map[string]landing{
	"ocall_socket": func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { return uint64(k.Socket(ctx.Clk)) },
	"ocall_listen": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		must(k.Listen(ctx.Clk, int(args[0].Scalar)))
		return 0
	},
	"ocall_accept": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		fd, err := k.Accept(ctx.Clk, int(args[0].Scalar))
		must(err)
		return uint64(fd)
	},
	// Utility calls that format or parse the peer address: no OS
	// involvement (the paper notes they could live inside the enclave).
	"ocall_inet_ntop": func(_ *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		ctx.Clk.Advance(120)
		return uint64(copy(args[1].Buf.Data, "192.168.1.77"))
	},
	"ocall_inet_addr": func(_ *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 {
		ctx.Clk.Advance(110)
		return 0xC0A8014D
	},
	"ocall_setsockopt": func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { k.Setsockopt(ctx.Clk); return 0 },
	"ocall_ioctl":      func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { k.Ioctl(ctx.Clk); return 0 },
	"ocall_fcntl":      func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { k.Fcntl(ctx.Clk); return 0 },
	"ocall_epoll_ctl":  func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { k.EpollCtl(ctx.Clk); return 0 },
	// The EDL passes only nfds, and a poll costs the same whatever it
	// watches.
	"ocall_poll":     func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { return uint64(k.Poll(ctx.Clk)) },
	"ocall_time":     func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { return k.Time(ctx.Clk) },
	"ocall_getpid":   func(k *osapi.Kernel, ctx *sdk.Ctx, _ []sdk.Arg) uint64 { return uint64(k.GetPID(ctx.Clk)) },
	"ocall_read":     recv,
	"ocall_recvfrom": recv,
	"ocall_write":    send,
	"ocall_writev":   send,
	"ocall_sendmsg":  send,
	"ocall_sendto":   send,
	"ocall_fxstat64": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		size, err := k.Fstat(ctx.Clk, int(args[0].Scalar))
		must(err)
		return uint64(size)
	},
	"ocall_open64": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		path, _, _ := bytes.Cut(args[0].Buf.Data, []byte{0})
		fd, err := k.Open(ctx.Clk, string(path))
		if err != nil {
			return ^uint64(0) // ENOENT
		}
		return uint64(fd)
	},
	"ocall_sendfile64": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		n, err := k.Sendfile(ctx.Clk, int(args[0].Scalar), int(args[1].Scalar))
		must(err)
		return uint64(n)
	},
	"ocall_shutdown": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		must(k.Shutdown(ctx.Clk, int(args[0].Scalar)))
		return 0
	},
	"ocall_close": func(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		k.Close(ctx.Clk, int(args[0].Scalar))
		return 0
	},
}

// recv lands a receive into the ocall's [out] buffer; a read that would
// block returns 0, as on a non-blocking socket.
func recv(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
	buf := args[1].Buf
	n, err := k.Recv(ctx.Clk, int(args[0].Scalar), buf.Addr, buf.Data[:args[2].Scalar])
	if err == osapi.ErrWouldBlock {
		return 0
	}
	must(err)
	return uint64(n)
}

// send lands a transmit of the ocall's [in] buffer.
func send(k *osapi.Kernel, ctx *sdk.Ctx, args []sdk.Arg) uint64 {
	buf := args[1].Buf
	n, err := k.Send(ctx.Clk, int(args[0].Scalar), buf.Addr, buf.Data[:args[2].Scalar])
	must(err)
	return uint64(n)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// bindLandings binds every ocall the EDL declares that the framework has a
// landing function for; any other stays unbound, and calling it reports
// sdk.ErrNotBound.
func (a *App) bindLandings() {
	for _, f := range a.RT.EDL.Untrusted {
		if land := landings[f.Name]; land != nil {
			a.RT.MustBindOCall(f.Name, func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return land(a.Kernel, ctx, args) })
		}
	}
}
