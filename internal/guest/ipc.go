package guest

// System V IPC: the semaphores postgres creates at start-up (§4.1
// classifies CONFIG_SYSVIPC as multi-process-related; Lupine runs such
// applications anyway).

// SemGet creates a System V semaphore and returns its id (gated on
// CONFIG_SYSVIPC).
func (p *Proc) SemGet() (int, Errno) {
	if e := p.sysEnter("semget"); e != OK {
		p.k.consolePrint("could not create semaphores: Function not implemented\n")
		return -1, e
	}
	p.k.semIDs++
	return p.k.semIDs, OK
}

// MqOpen opens a POSIX message queue (gated on CONFIG_POSIX_MQUEUE).
func (p *Proc) MqOpen(name string) Errno {
	if e := p.sysEnter("mq_open"); e != OK {
		p.k.consolePrint("mq_open failed: function not implemented\n")
		return e
	}
	return OK
}
