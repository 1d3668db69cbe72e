package kconfig

import "errors"

// Minimize computes a minimal request that resolves to exactly cfg — the
// `make savedefconfig` operation: every symbol that the rest of the
// request already turns on, through its `default y` or as its choice
// group's default, is dropped from the request. The result is what a
// kernel developer would commit as a defconfig.
//
// The algorithm is greedy elimination in reverse declaration order
// (later symbols tend to be consequences of earlier ones, so removing
// them first exposes more removals): drop a symbol, re-resolve, keep the
// drop if the fixpoint is unchanged.
func Minimize(db *Database, cfg *Config) (*Request, error) {
	// Verify the starting point reproduces cfg at all.
	base, err := Resolve(db, RequestFromConfig(cfg))
	if err != nil {
		return nil, err
	}
	if !base.Config.Equal(cfg) {
		// cfg wasn't produced by this database's rules (e.g. hand-edited
		// .config); minimizing it would silently change it.
		return nil, errNotReproducible
	}

	kept := cfg.Clone()
	opts := db.Options()
	for i := len(opts) - 1; i >= 0; i-- {
		n := opts[i].Name
		if !kept.Enabled(n) {
			continue
		}
		kept.Disable(n)
		res, err := Resolve(db, RequestFromConfig(kept))
		if err != nil || !res.Config.Equal(cfg) {
			kept.Enable(n) // needed after all
		}
	}
	return RequestFromConfig(kept), nil
}

// errNotReproducible is returned when a config cannot be regenerated from
// its own values under the database's rules.
var errNotReproducible = errors.New("kconfig: configuration is not reproducible from its own values; cannot minimize")
