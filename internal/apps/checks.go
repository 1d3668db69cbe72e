package apps

import "lupine/internal/guest"

// checkOrder fixes the order in which an app exercises its required
// kernel facilities at startup, mirroring how real applications fail on
// the first missing facility. The §4.1 configuration search discovers one
// option per boot in this order.
var checkOrder = []string{
	"FUTEX", "EPOLL", "EVENTFD", "AIO", "UNIX", "INOTIFY_USER", "SIGNALFD",
	"TIMERFD", "FILE_LOCKING", "ADVISE_SYSCALLS", "PROC_FS", "TMPFS",
	"SYSCTL", "SYSVIPC", "MEMBARRIER", "IPV6", "PACKET", "POSIX_MQUEUE",
	"KEYS",
}

// optionChecks exercises, per option, the real syscall a missing option
// would break. The guest prints the characteristic error message on
// ENOSYS/EAFNOSUPPORT, so the configuration search can key on console
// output exactly as the paper's authors did.
var optionChecks = map[string]func(p *guest.Proc) guest.Errno{
	"FUTEX": func(p *guest.Proc) guest.Errno {
		return p.SetRobustList()
	},
	"EPOLL": func(p *guest.Proc) guest.Errno {
		fd, e := p.EpollCreate()
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"EVENTFD": func(p *guest.Proc) guest.Errno {
		fd, e := p.EventFD()
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"AIO": func(p *guest.Proc) guest.Errno {
		return p.AioSetup()
	},
	"UNIX": func(p *guest.Proc) guest.Errno {
		fd, e := p.Socket(guest.AFUnix, guest.SockStream)
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"INOTIFY_USER": func(p *guest.Proc) guest.Errno {
		fd, e := p.InotifyInit()
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"SIGNALFD": func(p *guest.Proc) guest.Errno {
		fd, e := p.SignalFD()
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"TIMERFD": func(p *guest.Proc) guest.Errno {
		fd, e := p.TimerFD()
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"FILE_LOCKING": func(p *guest.Proc) guest.Errno {
		fd, e := p.Open("/data/.lock", guest.OWronly|guest.OCreat)
		if e != guest.OK {
			return e
		}
		defer p.Close(fd)
		if e := p.Flock(fd, true); e != guest.OK {
			return e
		}
		return p.Flock(fd, false)
	},
	"ADVISE_SYSCALLS": func(p *guest.Proc) guest.Errno {
		return p.Madvise()
	},
	"PROC_FS": func(p *guest.Proc) guest.Errno {
		// Real apps read /proc/sys/... at startup; if the init script
		// could not mount it, try ourselves so the failure is visible.
		if fd, e := p.Open("/proc/meminfo", guest.ORdonly); e == guest.OK {
			p.Close(fd)
			return guest.OK
		}
		return p.Mount("proc", "/proc")
	},
	"TMPFS": func(p *guest.Proc) guest.Errno {
		return p.Mount("tmpfs", "/tmp")
	},
	"SYSCTL": func(p *guest.Proc) guest.Errno {
		_, e := p.Sysctl("net.core.somaxconn")
		return e
	},
	"SYSVIPC": func(p *guest.Proc) guest.Errno {
		_, e := p.SemGet()
		return e
	},
	"MEMBARRIER": func(p *guest.Proc) guest.Errno {
		return p.Membarrier()
	},
	"IPV6": func(p *guest.Proc) guest.Errno {
		fd, e := p.Socket(guest.AFInet6, guest.SockStream)
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"PACKET": func(p *guest.Proc) guest.Errno {
		fd, e := p.Socket(guest.AFPacket, guest.SockDgram)
		if e == guest.OK {
			p.Close(fd)
		}
		return e
	},
	"POSIX_MQUEUE": func(p *guest.Proc) guest.Errno {
		return p.MqOpen("/startup")
	},
	"KEYS": func(p *guest.Proc) guest.Errno {
		return p.KeyctlAddKey("app-secret")
	},
}

// startupChecks exercises every required facility in canonical order,
// exiting 1 on the first failure (its error message is already on the
// console).
func (a *App) startupChecks(p *guest.Proc) int {
	need := make(map[string]bool, len(a.Options))
	for _, o := range a.Options {
		need[o] = true
	}
	for _, opt := range checkOrder {
		if !need[opt] {
			continue
		}
		check := optionChecks[opt]
		if check == nil {
			p.Printf("%s: internal error: no startup check for %s\n", a.Name, opt)
			return 1
		}
		if e := check(p); e != guest.OK {
			return 1
		}
	}
	return 0
}
