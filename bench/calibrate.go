package main

// Host-speed calibration. On a shared machine the same iteration's wall
// time drifts by 10-30% over seconds, in wall and CPU time alike, as
// neighbours load the machine. The drift follows the cost of allocating
// and faulting in memory, which is what the simulator spends its time
// on. So right before every iteration (after its runtime.GC()) a round
// times calibrate, a fixed allocation-heavy workload, and each
// iteration's time is multiplied by calibRef / that calibration: it
// reads as seconds on a host where calibrate takes calibRef.
//
// Measured on a 2-vCPU host over 24-second windows, this cut the spread
// of the median iteration time from 13-20% to 1.5-3% (README.md, "Noise
// control"). calibrate uses only the standard library; its time moved
// by under 3% between the heap states the four workloads leave behind.

import (
	"math/rand"
	"time"
)

// calibRef is calibrate's median time on the reference host (Intel
// Xeon, 2 vCPUs, Go 1.24), which makes scaled times read close to raw
// seconds there.
const calibRef = 0.0035

type calNode struct {
	key     int
	next    *calNode
	payload []byte
}

// calSink keeps calibrate's result live.
var calSink int

// calibrate builds and walks a linked list of 30000 small nodes with
// byte payloads, indexed by a map: about 3 MiB of allocation.
func calibrate() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	byKey := make(map[int]*calNode)
	var head *calNode
	for i := 0; i < 30000; i++ {
		n := &calNode{key: r.Int(), next: head, payload: make([]byte, 32+r.Intn(64))}
		head = n
		byKey[n.key&8191] = n
	}
	sum := len(byKey)
	for n := head; n != nil; n = n.next {
		sum += n.key & 7
	}
	calSink += sum
	return time.Since(t0).Seconds()
}
