// Package guest implements the simulated Linux guest kernel the Lupine
// reproduction boots and benchmarks. It is a deterministic discrete-event
// simulator: application models run as cooperatively scheduled goroutines
// issuing system calls against an in-memory kernel (processes, scheduler,
// virtual memory, VFS, pipes, sockets, futexes, epoll, signals), and every
// operation charges virtual nanoseconds from a single cost model derived
// from the kernel configuration. System call availability, security
// mitigation overheads, SMP locking, KML entry costs and KPTI penalties
// are all causal consequences of the image's configuration, so the
// paper's experiments run end-to-end through the same pipeline a user
// would.
package guest

import "fmt"

// Errno is a simulated Linux error number. The zero value means success.
type Errno int

// Errnos used by the simulated kernel (values match Linux on x86-64).
const (
	OK           Errno = 0
	EPERM        Errno = 1
	ENOENT       Errno = 2
	ESRCH        Errno = 3
	EINTR        Errno = 4
	EIO          Errno = 5
	EBADF        Errno = 9
	ECHILD       Errno = 10
	EAGAIN       Errno = 11
	ENOMEM       Errno = 12
	EACCES       Errno = 13
	EFAULT       Errno = 14
	EBUSY        Errno = 16
	EEXIST       Errno = 17
	ENOTDIR      Errno = 20
	EISDIR       Errno = 21
	EINVAL       Errno = 22
	ENFILE       Errno = 23
	EMFILE       Errno = 24
	ENOTTY       Errno = 25
	ENOSPC       Errno = 28
	ESPIPE       Errno = 29
	EROFS        Errno = 30
	EPIPE        Errno = 32
	ENOSYS       Errno = 38
	ENOTEMPTY    Errno = 39
	ENOTSOCK     Errno = 88
	EOPNOTSUPP   Errno = 95
	EAFNOSUPPORT Errno = 97
	EADDRINUSE   Errno = 98
	ECONNRESET   Errno = 104
	ENOTCONN     Errno = 107
	ETIMEDOUT    Errno = 110
	ECONNREFUSED Errno = 111
)

var errnoNames = map[Errno]string{
	OK: "OK", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH",
	EINTR: "EINTR", EIO: "EIO", EBADF: "EBADF", ECHILD: "ECHILD",
	EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EBUSY: "EBUSY", EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR",
	EINVAL: "EINVAL", ENFILE: "ENFILE", EMFILE: "EMFILE", ENOTTY: "ENOTTY",
	ENOSPC: "ENOSPC", ESPIPE: "ESPIPE", EROFS: "EROFS", EPIPE: "EPIPE",
	ENOSYS: "ENOSYS", ENOTEMPTY: "ENOTEMPTY", ENOTSOCK: "ENOTSOCK",
	EOPNOTSUPP: "EOPNOTSUPP", EAFNOSUPPORT: "EAFNOSUPPORT",
	EADDRINUSE: "EADDRINUSE", ECONNRESET: "ECONNRESET",
	ENOTCONN: "ENOTCONN", ETIMEDOUT: "ETIMEDOUT", ECONNREFUSED: "ECONNREFUSED",
}

// Error implements the error interface; OK must never be returned as an
// error, so it reads as a bug marker if it ever escapes.
func (e Errno) Error() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("Errno(%d)", int(e))
}
