package core

import (
	"fmt"
	"strings"

	"lupine/internal/kerneldb"
	"lupine/internal/manifest"
)

// errorHints maps the characteristic console error messages to the kernel
// option that fixes them — the knowledge base a researcher accumulates
// while specializing kernels by hand (§4.1: "an error message like 'the
// futex facility returned an unexpected error code' indicated that we
// should add CONFIG_FUTEX").
var errorHints = []struct {
	Pattern string
	Option  string
}{
	{"the futex facility returned an unexpected error code", "FUTEX"},
	{"epoll_create1 failed: function not implemented", "EPOLL"},
	{"eventfd failed: function not implemented", "EVENTFD"},
	{"io_setup failed: function not implemented", "AIO"},
	{"can't create UNIX socket", "UNIX"},
	{"inotify_init failed: function not implemented", "INOTIFY_USER"},
	{"signalfd failed: function not implemented", "SIGNALFD"},
	{"timerfd_create failed: function not implemented", "TIMERFD"},
	{"flock failed: function not implemented", "FILE_LOCKING"},
	{"madvise failed: function not implemented", "ADVISE_SYSCALLS"},
	{"unknown filesystem type 'proc'", "PROC_FS"},
	{"unknown filesystem type 'tmpfs'", "TMPFS"},
	{"sysctl failed: function not implemented", "SYSCTL"},
	{"could not create semaphores", "SYSVIPC"},
	{"membarrier failed: function not implemented", "MEMBARRIER"},
	{"socket: address family 10 not supported", "IPV6"},
	{"socket: address family 17 not supported", "PACKET"},
	{"mq_open failed: function not implemented", "POSIX_MQUEUE"},
	{"add_key failed: function not implemented", "KEYS"},
}

// matchError finds the option suggested by the newest failure on the
// console, scanning from the end so the most recent failure wins.
func matchError(console string) string {
	bestIdx := -1
	bestOpt := ""
	for _, h := range errorHints {
		if i := strings.LastIndex(console, h.Pattern); i > bestIdx {
			bestIdx = i
			bestOpt = h.Option
		}
	}
	return bestOpt
}

// SearchInput describes an application for the automatic
// minimal-configuration derivation.
type SearchInput struct {
	Spec        Spec   // Spec.Manifest's options are ignored: we derive them
	SuccessText string // console marker proving the app works
}

// searchMaxIters is the derivation's safety bound on boot-test cycles.
const searchMaxIters = 32

// SearchResult reports the derived manifest and the trail of boots.
type SearchResult struct {
	Manifest *manifest.Manifest
	Boots    int      // how many boot-test cycles were needed
	Added    []string // options in discovery order
}

// DeriveManifest reproduces the paper's §4.1 process automatically:
// start from lupine-base with no application options, boot, run the app,
// read the console, map the error message to a configuration option, add
// it, and repeat until the success criterion appears.
func DeriveManifest(db *kerneldb.DB, in SearchInput) (*SearchResult, error) {
	if in.SuccessText == "" {
		return nil, fmt.Errorf("core: search needs a success criterion")
	}
	src := in.Spec.Manifest
	m := manifest.New(src.App, src.Entrypoint)
	for k, v := range src.Env {
		m.Env[k] = v
	}
	m.NetworkPort = src.NetworkPort

	res := &SearchResult{Manifest: m}
	for iter := 0; iter < searchMaxIters; iter++ {
		spec := in.Spec
		spec.Manifest = m
		u, err := Build(db, spec, BuildOpts{Name: fmt.Sprintf("search-%s-%d", m.App, iter)})
		if err != nil {
			return nil, err
		}
		res.Boots++
		ok, console, err := u.RunAndCheck(BootOpts{}, in.SuccessText)
		if err != nil {
			return nil, fmt.Errorf("core: search boot %d: %w", iter, err)
		}
		if ok {
			return res, nil
		}
		opt := matchError(console)
		if opt == "" {
			return nil, fmt.Errorf("core: search stuck after %d boots: no known error on console:\n%s",
				res.Boots, tail(console, 400))
		}
		if m.HasOption(opt) {
			return nil, fmt.Errorf("core: search stuck: %s already enabled but %q persists", opt, opt)
		}
		m.AddOptions(opt)
		res.Added = append(res.Added, opt)
	}
	return nil, fmt.Errorf("core: search did not converge in %d boots", searchMaxIters)
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}
