package kerneldb

import (
	"hash/fnv"
	"sync"
)

// Synthetic CVE dataset, modeled on the study the paper cites in §7
// (Alharthi et al.: of 1530 Linux kernel vulnerabilities, 89% can be
// nullified by compile-time configuration). Each CVE is attributed to the
// configuration option compiling the vulnerable code; disabling the
// option nullifies the CVE. The per-class weights are calibrated so a
// lupine-base build nullifies ~89% of the corpus, reproducing the cited
// result: core (base) code carries a disproportionate share of
// vulnerabilities per option, but the sheer mass of optional code
// (drivers above all) holds most of the total.
var (
	cveOnce  sync.Once
	cveTable map[string]int
	cveTotal int
)

// TotalCVEs reports the corpus size (~1530).
func (db *DB) TotalCVEs() int {
	db.buildCVEs()
	return cveTotal
}

// NullifiedCVEs counts corpus entries whose option is NOT in the enabled
// set — the vulnerabilities configuration alone removes.
func (db *DB) NullifiedCVEs(enabled func(option string) bool) int {
	db.buildCVEs()
	n := 0
	for opt, count := range cveTable {
		if !enabled(opt) {
			n += count
		}
	}
	return n
}

func (db *DB) buildCVEs() {
	cveOnce.Do(func() {
		cveTable = make(map[string]int)
		for _, o := range db.Kconfig.Options() {
			h := fnv.New32a()
			h.Write([]byte("cve:" + o.Name))
			v := h.Sum32() % 1000
			var count int
			if db.Class(o.Name) == ClassBase {
				// Hot, always-resident code: ~0.59 CVEs per option.
				if v < 530 {
					count = 1
				}
				if v < 60 {
					count = 2
				}
			} else {
				// Optional code: ~0.087 CVEs per option.
				if v < 87 {
					count = 1
				}
			}
			if count > 0 {
				cveTable[o.Name] = count
			}
			cveTotal += count
		}
	})
}
