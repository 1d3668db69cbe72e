package core

import (
	"fmt"
	"strings"

	"lupine/internal/boot"
	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/simclock"
	"lupine/internal/vmm"
)

// BootOpts configures how a unikernel is launched. The guest always
// gets one VCPU (pinned, like the paper's evaluation) and the guest
// kernel's default virtual-time bound.
type BootOpts struct {
	Monitor *vmm.Monitor // default: Firecracker
	Memory  int64        // guest RAM (default 512 MiB, the paper's setup)

	// ProbeOnly runs the application's startup path but skips server
	// request loops, for success-criteria and footprint probes.
	ProbeOnly bool

	// Trace enables syscall tracing in the guest (dynamic-analysis
	// manifest generation; see DeriveManifestByTrace).
	Trace bool

	// Faults arms every fault-injection site along the launch path —
	// device probe (boot), block reads (rootfs mount) and the guest
	// kernel's own sites. Nil boots fault-free.
	Faults *faults.Injector
}

// BootError wraps a launch failure with the partial boot timeline, so a
// supervisor can both classify the cause (errors.Is/As through Err) and
// account for the virtual time the failed attempt consumed.
type BootError struct {
	Report boot.Report
	Err    error
}

// Error describes the failure.
func (e *BootError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause for errors.Is/As.
func (e *BootError) Unwrap() error { return e.Err }

// VM is a booted unikernel: the boot timeline plus the running guest.
type VM struct {
	Unikernel *Unikernel
	Guest     *guest.Kernel
	Boot      boot.Report
	AppProc   *guest.Proc
}

// Boot launches the unikernel: the monitor loads the kernel, the boot
// timeline is simulated, the ext2 rootfs is mounted (real bytes parsed),
// and PID 1 interprets the generated init script, finally exec'ing the
// application entrypoint.
func (u *Unikernel) Boot(opts BootOpts) (*VM, error) {
	mon := opts.Monitor
	if mon == nil {
		mon = vmm.Firecracker()
	}
	report, err := boot.SimulateInjected(u.Kernel, mon, u.RootFS.Size(), opts.Faults)
	if err != nil {
		return nil, &BootError{Report: report, Err: err}
	}
	tree, err := u.RootFS.Read(opts.Faults)
	if err != nil {
		return nil, &BootError{Report: report, Err: fmt.Errorf("core: mounting rootfs: %w", err)}
	}
	g, err := guest.NewKernel(guest.Params{
		Image:  u.Kernel,
		Memory: opts.Memory,
		RootFS: tree,
		Faults: opts.Faults,
	})
	if err != nil {
		return nil, &BootError{Report: report, Err: err}
	}
	if opts.Trace {
		g.EnableTracing()
	}
	// Narrate the boot timeline on the console, dmesg-style.
	var at simclock.Duration
	g.KernelLog(0, fmt.Sprintf("Linux version 4.0.0-lupine (%s) %s", u.Kernel.Name, u.Kernel.Opt))
	for _, ph := range report.Phases {
		at += ph.Cost
		g.KernelLog(at, ph.Name+" done")
	}
	g.KernelLog(at, fmt.Sprintf("VFS: Mounted root (ext2 filesystem) readonly on device 254:0 (%d bytes)", u.RootFS.Size()))
	g.KernelLog(at, "Run /init as init process")
	vm := &VM{Unikernel: u, Guest: g, Boot: report}
	vm.AppProc = g.Spawn("init", func(p *guest.Proc) int {
		return vm.runInit(p, opts.ProbeOnly)
	})
	return vm, nil
}

// Run executes the guest until completion or shutdown.
func (vm *VM) Run() error { return vm.Guest.Run() }

// ExitReason returns the structured kernel-panic reason if the guest died
// of a modeled panic, nil otherwise.
func (vm *VM) ExitReason() *guest.PanicError { return vm.Guest.PanicReason() }

// Console returns the guest console output.
func (vm *VM) Console() string { return vm.Guest.Console() }

// Succeeded reports whether the app's success criterion appeared on the
// console (§4.1 methodology).
func (vm *VM) Succeeded(successText string) bool {
	return vm.Guest.ConsoleContains(successText)
}

// runInit interprets the generated init script: environment exports,
// configuration-gated mounts, network bring-up, and the final exec of the
// application entrypoint. Mount failures are reported but non-fatal, as
// with a real busybox init — the application's own startup checks decide.
func (vm *VM) runInit(p *guest.Proc, probeOnly bool) int {
	script := vm.readInit(p)
	execed := false
	for _, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "export":
			if kv := strings.SplitN(strings.Join(fields[1:], " "), "=", 2); len(kv) == 2 {
				p.Setenv(kv[0], kv[1])
			}
		case "mount":
			// mount -t TYPE SRC DIR
			if len(fields) >= 5 {
				p.Mount(fields[2], fields[4])
			}
		case "ip", "ulimit":
			p.Work(20 * simclock.Microsecond) // small setup cost
		case "exec":
			if len(fields) < 2 {
				p.Println("init: exec with no program")
				return 1
			}
			if e := p.Execve(fields[1]); e != guest.OK {
				p.Printf("init: exec %s: %v\n", fields[1], e)
				return 1
			}
			execed = true
		default:
			p.Printf("init: unknown command %q\n", fields[0])
		}
		if execed {
			break
		}
	}
	if !execed {
		p.Println("init: no exec line in /init")
		return 1
	}
	return vm.Unikernel.Spec.Program(p, probeOnly)
}

// readInit loads /init from the mounted rootfs through real file
// syscalls, so a broken rootfs image fails the boot like it would on
// hardware.
func (vm *VM) readInit(p *guest.Proc) string {
	fd, e := p.Open("/init", guest.ORdonly)
	if e != guest.OK {
		p.Printf("init: cannot open /init: %v\n", e)
		return ""
	}
	defer p.Close(fd)
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, e := p.Read(fd, buf)
		if e != guest.OK || n == 0 {
			break
		}
		sb.Write(buf[:n])
	}
	return sb.String()
}

// RunAndCheck boots a fresh instance, runs it to completion (probe mode)
// and reports whether the success text appeared. Convenience for the
// configuration and footprint searches.
func (u *Unikernel) RunAndCheck(opts BootOpts, successText string) (bool, string, error) {
	opts.ProbeOnly = true
	vm, err := u.Boot(opts)
	if err != nil {
		return false, "", err
	}
	if err := vm.Run(); err != nil {
		return false, vm.Console(), err
	}
	return vm.Succeeded(successText), vm.Console(), nil
}
