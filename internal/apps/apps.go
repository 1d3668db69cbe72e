// Package apps models the twenty most-downloaded Docker Hub applications
// of Table 3. Each model is honest about its kernel demands: at startup
// it exercises every facility its real counterpart needs through actual
// guest system calls, fails with the real-world error message when the
// kernel lacks the option (driving the §4.1 configuration search), prints
// its success criterion to the console, and — for the benchmarked servers
// — serves a realistic request loop.
package apps

import (
	"fmt"
	"maps"
	"sort"

	"lupine/internal/guest"
	"lupine/internal/manifest"
	"lupine/internal/rootfs"
	"lupine/internal/simclock"
)

// App describes one application model.
type App struct {
	Name              string
	DownloadsBillions float64
	Description       string

	// Options are the kernel configuration options the app needs beyond
	// lupine-base (Table 3's rightmost column).
	Options []string

	Entrypoint  []string
	Env         map[string]string
	BinaryKB    int
	Port        int    // listening port for servers, 0 otherwise
	SuccessText string // console marker proving the app came up (§4.1)

	// StartupBytes is the memory the app touches while starting, which
	// (plus the kernel) determines its footprint (Figure 8).
	StartupBytes int64

	// RequestWork is the user-CPU cost of serving one request, for the
	// benchmarked servers.
	RequestWork simclock.Duration

	// serve, when non-nil, runs the app's request loop after startup.
	serve func(a *App, p *guest.Proc) int
}

// ContainerImage returns the app's container image metadata (Figure 2's
// input artifact). Its Env is the caller's to change.
func (a *App) ContainerImage() *rootfs.Image {
	return &rootfs.Image{
		Name:       a.Name,
		Entrypoint: a.Entrypoint,
		Env:        maps.Clone(a.Env),
		BinaryKB:   a.BinaryKB,
	}
}

// Manifest returns the app's developer-supplied manifest.
func (a *App) Manifest() *manifest.Manifest {
	m := manifest.New(a.Name, a.Entrypoint, a.Options...)
	for k, v := range a.Env {
		m.Env[k] = v
	}
	m.NetworkPort = a.Port
	return m
}

// Main is the process body: startup checks, startup allocation, success
// line, then the serve loop if the app is a server. probeOnly skips the
// serve loop (used by the configuration search and footprint probes).
func (a *App) Main(p *guest.Proc, probeOnly bool) int {
	if code := a.startupChecks(p); code != 0 {
		return code
	}
	if a.StartupBytes > 0 {
		if e := p.Touch(a.StartupBytes); e != guest.OK {
			p.Println("fatal: out of memory during startup")
			return 1
		}
	}
	p.Println(a.SuccessText)
	if a.serve != nil && !probeOnly {
		return a.serve(a, p)
	}
	return 0
}

// Registry returns the top-20 applications in download order (Table 3).
func Registry() []*App { return registry }

// Lookup finds an app by name.
func Lookup(name string) (*App, error) {
	for _, a := range registry {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Names lists all registered app names, in download order.
func Names() []string {
	out := make([]string, len(registry))
	for i, a := range registry {
		out[i] = a.Name
	}
	return out
}

// UnionOptions returns the union of required options over the first n
// apps of the registry (Figure 5's growth curve; n <= 0 means all).
func UnionOptions(n int) []string {
	if n <= 0 || n > len(registry) {
		n = len(registry)
	}
	seen := make(map[string]bool)
	for _, a := range registry[:n] {
		for _, o := range a.Options {
			seen[o] = true
		}
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

func server(name string, port int, dl float64, desc, success string, binKB int,
	startupMB int64, reqWork simclock.Duration, serve func(*App, *guest.Proc) int,
	options ...string) *App {
	sort.Strings(options)
	return &App{
		Name: name, DownloadsBillions: dl, Description: desc,
		Options:    options,
		Entrypoint: []string{"/bin/" + name},
		Env:        map[string]string{"HOME": "/", "PATH": "/bin"},
		BinaryKB:   binKB, Port: port, SuccessText: success,
		StartupBytes: startupMB << 20,
		RequestWork:  reqWork,
		serve:        serve,
	}
}

func program(name string, dl float64, desc, success string, binKB int, startupMB int64, options ...string) *App {
	sort.Strings(options)
	return &App{
		Name: name, DownloadsBillions: dl, Description: desc,
		Options:    options,
		Entrypoint: []string{"/bin/" + name},
		Env:        map[string]string{"HOME": "/", "PATH": "/bin"},
		BinaryKB:   binKB, SuccessText: success,
		StartupBytes: startupMB << 20,
	}
}

var registry = []*App{
	server("nginx", 80, 1.7, "Web server",
		"start worker processes", 1200, 2, 5500*simclock.Nanosecond, serveHTTP,
		"FUTEX", "EPOLL", "EVENTFD", "AIO", "UNIX", "INOTIFY_USER", "SIGNALFD",
		"TIMERFD", "FILE_LOCKING", "ADVISE_SYSCALLS", "PROC_FS", "TMPFS", "SYSCTL"),
	server("postgres", 5432, 1.6, "Database",
		"database system is ready to accept connections", 7200, 18, 9000*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "SIGNALFD", "FILE_LOCKING", "ADVISE_SYSCALLS",
		"PROC_FS", "SYSCTL", "SYSVIPC", "TMPFS"),
	server("httpd", 80, 1.4, "Web server",
		"resuming normal operations", 2100, 4, 6000*simclock.Nanosecond, serveHTTP,
		"FUTEX", "EPOLL", "EVENTFD", "AIO", "UNIX", "SIGNALFD", "FILE_LOCKING",
		"ADVISE_SYSCALLS", "PROC_FS", "TMPFS", "SYSCTL", "MEMBARRIER", "INOTIFY_USER"),
	program("node", 1.2, "Language runtime",
		"hello from node", 35000, 12,
		"FUTEX", "EPOLL", "EVENTFD", "UNIX", "PROC_FS"),
	server("redis", 6379, 1.2, "Key-value store",
		"Ready to accept connections", 900, 3, 2000*simclock.Nanosecond, serveRedis,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "ADVISE_SYSCALLS",
		"FILE_LOCKING", "SIGNALFD", "TIMERFD"),
	server("mongo", 27017, 1.2, "NOSQL database",
		"waiting for connections", 40000, 24, 8000*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"ADVISE_SYSCALLS", "SIGNALFD", "TIMERFD", "IPV6"),
	server("mysql", 3306, 1.2, "Database",
		"ready for connections", 24000, 20, 8500*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"ADVISE_SYSCALLS", "AIO"),
	server("traefik", 8080, 1.1, "Edge router",
		"Server configuration reloaded", 28000, 9, 2500*simclock.Nanosecond, serveHTTP,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "SYSCTL", "IPV6", "PACKET", "TIMERFD"),
	server("memcached", 11211, 0.9, "Key-value store",
		"server listening", 300, 2, 900*simclock.Nanosecond, serveRedis,
		"FUTEX", "EPOLL", "EVENTFD", "UNIX", "PROC_FS", "TMPFS", "SYSCTL",
		"FILE_LOCKING", "SIGNALFD", "TIMERFD"),
	program("hello-world", 0.9, "C program \"hello\"",
		"Hello from Docker!", 12, 1),
	server("mariadb", 3306, 0.8, "Database",
		"ready for connections", 21000, 18, 8500*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"ADVISE_SYSCALLS", "AIO", "SIGNALFD", "TIMERFD", "SYSVIPC", "POSIX_MQUEUE"),
	program("golang", 0.6, "Language runtime", "hello from golang", 110000, 10),
	program("python", 0.5, "Language runtime", "hello from python", 5200, 8),
	program("openjdk", 0.5, "Language runtime", "hello from openjdk", 200000, 40),
	server("rabbitmq", 5672, 0.5, "Message broker",
		"Server startup complete", 12000, 40, 5000*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"SIGNALFD", "TIMERFD", "IPV6", "MEMBARRIER", "KEYS"),
	program("php", 0.4, "Language runtime", "hello from php", 11000, 6),
	server("wordpress", 80, 0.4, "PHP/mysql blog tool",
		"WordPress ready", 9000, 14, 6000*simclock.Nanosecond, serveHTTP,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"SIGNALFD", "ADVISE_SYSCALLS"),
	server("haproxy", 8080, 0.4, "Load balancer",
		"Proxy started", 2800, 4, 1800*simclock.Nanosecond, serveHTTP,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "SYSCTL", "TIMERFD", "IPV6", "PACKET"),
	server("influxdb", 8086, 0.3, "Time series database",
		"Listening for signals", 32000, 16, 5500*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"SIGNALFD", "TIMERFD", "IPV6", "MEMBARRIER"),
	server("elasticsearch", 9200, 0.3, "Search engine",
		"started", 350000, 64, 12000*simclock.Nanosecond, nil,
		"FUTEX", "EPOLL", "UNIX", "PROC_FS", "TMPFS", "SYSCTL", "FILE_LOCKING",
		"SIGNALFD", "TIMERFD", "ADVISE_SYSCALLS", "IPV6", "MEMBARRIER"),
}
