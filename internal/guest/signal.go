package guest

// Signals are modeled for their cost profile (lmbench's sig inst / sig
// hndl rows); SIGKILL is the OOM killer's (panic.go). Delivery to other
// processes is out of scope for the benchmarks the paper runs.

// Signal numbers the models use.
const (
	SIGKILL = 9
	SIGUSR1 = 10
)

// Sigaction installs a handler for sig (lmbench "sig inst").
func (p *Proc) Sigaction(sig int) Errno {
	p.sysEnterFree("rt_sigaction")
	p.charge(p.k.cost.SignalInst)
	if sig == SIGKILL {
		return EINVAL
	}
	p.sigHandlers[sig] = true
	return OK
}

// RaiseSignal delivers sig to the caller itself, running the installed
// handler (lmbench "sig hndl": kill(getpid(), n) with a handler).
func (p *Proc) RaiseSignal(sig int) Errno {
	p.sysEnterFree("kill")
	if !p.sigHandlers[sig] {
		return EINVAL
	}
	p.charge(p.netCost(p.k.cost.SignalHndl))
	return OK
}

// reapKilled resumes a killed process goroutine once so it unwinds.
func (k *Kernel) reapKilled(target *Proc) {
	// Remove from the run queue if present.
	for i, q := range k.runq {
		if q == target {
			k.runq = append(k.runq[:i], k.runq[i+1:]...)
			break
		}
	}
	target.resume <- struct{}{}
	<-k.unwindAck
}
