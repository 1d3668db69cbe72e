package snapshot

import (
	"lupine/internal/simclock"
)

// Cross-region snapshot replication. A region that captured a warm
// snapshot ships it to peer regions' stores ahead of need, so that when
// a whole region dies its survivors evacuate by restoring local replicas
// in microseconds instead of cold-booting in milliseconds — the paper's
// warm-boot economics applied as a disaster-recovery primitive. The
// Replicator prices each copy at the inter-region trunk's bandwidth and
// keeps the copy and byte ledger the regionfail table reports; the caller
// owns scheduling (the replica becomes visible when it Puts the snapshot
// into the destination store at the transfer's completion instant).

// Replicator accounts snapshot copies between region stores.
type Replicator struct {
	// Bandwidth is the replication path's throughput in bytes per
	// virtual second; 0 means the copy is instantaneous.
	Bandwidth int64

	copies int
	bytes  int64
}

// ReplStats is the replication ledger.
type ReplStats struct {
	Copies int   // snapshot transfers completed or in flight
	Bytes  int64 // artifact bytes shipped across regions
}

// NewReplicator returns a replicator pricing copies at bw bytes per
// virtual second (0 = instant).
func NewReplicator(bw int64) *Replicator { return &Replicator{Bandwidth: bw} }

// Cost prices shipping s without accounting it.
func (r *Replicator) Cost(s *Snapshot) simclock.Duration {
	if r.Bandwidth <= 0 || s.BaseRSS <= 0 {
		return 0
	}
	return simclock.Duration(s.BaseRSS * int64(simclock.Second) / r.Bandwidth)
}

// Replicate accounts one copy of s and returns the transfer duration;
// the caller schedules the destination store's Put(s) at now+duration,
// at which point the replica is restorable in that region.
func (r *Replicator) Replicate(s *Snapshot) simclock.Duration {
	r.copies++
	r.bytes += s.BaseRSS
	return r.Cost(s)
}

// Stats reports the replication ledger.
func (r *Replicator) Stats() ReplStats {
	return ReplStats{Copies: r.copies, Bytes: r.bytes}
}
