package experiments

import (
	"fmt"

	"lupine/internal/core"
	"lupine/internal/metrics"
)

func init() {
	register("fleet", "Kernel-image sharing across the top-20 fleet (MultiK, §7)", runFleet)
}

// runFleet builds every top-20 application through one kernel cache and
// reports how few distinct kernels the fleet needs — the observation
// behind MultiK-style orchestration the paper cites, and the practical
// consequence of Figure 5's flattening union: option sets repeat.
func runFleet(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "Kernel-image sharing across the top-20 applications",
		Columns: []string{"application", "kernel", "options", "image MB", "shared"},
	}
	cache := core.NewKernelCache(db())
	seen := make(map[interface{}]string)
	for _, name := range appsRegistry() {
		spec, _, err := appSpec(name)
		if err != nil {
			return nil, err
		}
		u, _, err := cache.Build(spec, core.BuildOpts{})
		if err != nil {
			return nil, err
		}
		shared := "-"
		if first, ok := seen[u.Kernel]; ok {
			shared = "= " + first
		} else {
			seen[u.Kernel] = name
		}
		t.AddRow(name, u.Kernel.Name, u.Kernel.Config.Len(), u.Kernel.MegabytesMB(), shared)
	}
	st := cache.CacheStats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d distinct kernels serve %d applications (%d cache hits)", st.Builds, st.Builds+st.Hits, st.Hits),
		"a lupine-general alternative serves all 20 from ONE kernel at ~2 ms boot and <=4% throughput cost (§4)")
	return t, nil
}
