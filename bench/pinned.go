package main

import "fmt"

// pinnedSeed is the seed whose outputs are pinned.
const pinnedSeed = 42

// pin is a workload's simulated output at pinnedSeed: the digest of its
// canonical lines, its simulated events and its hero behaviour fields.
type pin struct {
	digest   string
	events   int
	hero     map[string]float64
	seedFree bool // the workload ignores the seed, so the pin holds at every seed
}

var pinned = map[string]pin{
	"netsplit": {digest: "b4b6759b397291019ea2104068a21938", events: 108650,
		hero: map[string]float64{"availability": 0.9815, "p99_us": 5573.852}},
	"regionfail": {digest: "cb4e8e523d365ce3899a8dae5aa5aef1", events: 371502,
		hero: map[string]float64{"availability": 1, "detect_p99_us": 1600}},
	"catalog": {digest: "8094582eabe11734dba988c8efc4f908", events: 378857,
		hero: map[string]float64{"availability": 1, "hit_rate": 0.9}},
	"paper": {digest: "3a7a6e42610ec86fbb3e186c88c53c85", events: 304908, seedFree: true},
}

// checkOutput checks an iteration's output: the invariants at every
// seed, and the pinned digest where a pin applies.
func checkOutput(name string, seed uint64, o *output) error {
	if err := o.invariants(); err != nil {
		return fmt.Errorf("%s at seed %d: %w", name, seed, err)
	}
	p, ok := pinned[name]
	if !ok || (seed != pinnedSeed && !p.seedFree) {
		return nil
	}
	if d := o.digest(); d != p.digest {
		return fmt.Errorf("%s at seed %d: output digest %s, pinned %s (events %d, pinned %d)",
			name, seed, d, p.digest, o.events, p.events)
	}
	return nil
}
