// Package manifest defines the application manifest of Figure 2: the
// artifact that informs the application-specific kernel configuration and
// the generated init script. The paper leaves manifest *generation* to
// future work and uses developer-supplied manifests; cmd/manifestgen
// derives one automatically by iterative configuration search (§4.1).
package manifest

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Manifest captures everything Lupine needs to specialize a kernel for
// one application and generate its startup script.
type Manifest struct {
	App        string            `json:"app"`
	Options    []string          `json:"options"` // kernel options atop lupine-base
	Entrypoint []string          `json:"entrypoint"`
	Env        map[string]string `json:"env,omitempty"`

	// NetworkPort is the port the init script will report the service on
	// (0 for non-server applications).
	NetworkPort int `json:"network_port,omitempty"`
}

// New returns a manifest with normalized (sorted, deduplicated) options.
func New(app string, entrypoint []string, options ...string) *Manifest {
	m := &Manifest{App: app, Entrypoint: entrypoint, Env: make(map[string]string)}
	m.AddOptions(options...)
	return m
}

// AddOptions merges options into the manifest, keeping them sorted and
// unique.
func (m *Manifest) AddOptions(options ...string) {
	seen := make(map[string]bool, len(m.Options)+len(options))
	for _, o := range m.Options {
		seen[o] = true
	}
	for _, o := range options {
		if o != "" && !seen[o] {
			seen[o] = true
			m.Options = append(m.Options, o)
		}
	}
	sort.Strings(m.Options)
}

// HasOption reports whether the manifest requires the option.
func (m *Manifest) HasOption(name string) bool {
	for _, o := range m.Options {
		if o == name {
			return true
		}
	}
	return false
}

// Validate checks structural invariants.
func (m *Manifest) Validate() error {
	if m.App == "" {
		return fmt.Errorf("manifest: empty app name")
	}
	if len(m.Entrypoint) == 0 {
		return fmt.Errorf("manifest: %s: empty entrypoint", m.App)
	}
	for i := 1; i < len(m.Options); i++ {
		if m.Options[i] == m.Options[i-1] {
			return fmt.Errorf("manifest: %s: duplicate option %s", m.App, m.Options[i])
		}
		if m.Options[i] < m.Options[i-1] {
			return fmt.Errorf("manifest: %s: options not sorted", m.App)
		}
	}
	return nil
}

// Marshal renders the manifest as deterministic JSON.
func (m *Manifest) Marshal() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}
