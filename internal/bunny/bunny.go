// Package bunny is the declarative build pipeline over the paper's
// Figure 2: a spec names an application, a monitor, a configuration
// profile, extra kernel options and a hardening level, and the compiler
// turns it into a Lupine unikernel image through the real
// kconfig→kbuild→rootfs pipeline. Specs normalize deterministically
// (sorted, deduplicated options — the manifest.New discipline) and are
// content-addressed: the spec digest plus the kernel tree version key a
// digest-addressed image cache, so the same spec never builds twice and
// two specs that resolve to the same kernel identity share the kernel
// image even when their root filesystems differ. The "functor driven
// development" idea (PAPERS.md) applied to Lupine: declare once, compile
// into as many specialized images as the fleet needs.
package bunny

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"

	"lupine/internal/attack"
)

// Profiles select the Lupine variant of §4.
const (
	ProfileNoKML = "nokml" // the default: PARAVIRT kept, no KML patch
	ProfileKML   = "kml"   // KML patch + patched musl
	ProfileTiny  = "tiny"  // -Os plus the 9 flipped size options
)

// DefaultMonitor is the monitor a spec omits: the paper's Firecracker.
const DefaultMonitor = "firecracker"

// validMonitors are the monitors the build pipeline can target.
var validMonitors = map[string]bool{
	"firecracker": true,
	"qemu":        true,
	"solo5-hvt":   true,
	"uhyve":       true,
}

// validProfiles are the recognized configuration profiles.
var validProfiles = map[string]bool{
	ProfileNoKML: true,
	ProfileKML:   true,
	ProfileTiny:  true,
}

// Spec is the declarative build request: everything that determines the
// produced image, and nothing else.
type Spec struct {
	App     string   // registry application name
	Monitor string   // default firecracker
	Profile string   // nokml (default), kml, tiny
	Options []string // kernel options atop the app manifest

	// Hardening selects a mitigation level — off (default), aslr or
	// full — mapping to priced kconfig options (attack.HardeningOptions),
	// so a hardened build pays its boot-time and image-size costs through
	// the same pipeline as every other option.
	Hardening string
}

// New returns a normalized spec for app with the given extra options.
// It normalizes a copy of options, so a caller may pass a slice that
// other goroutines read.
func New(app string, options ...string) *Spec {
	s := &Spec{App: app, Options: slices.Clone(options)}
	s.Normalize()
	return s
}

// Normalize puts the spec in canonical form: defaults filled in, options
// sorted and deduplicated. Two specs meaning the same build render
// identically (and therefore digest identically) after Normalize.
func (s *Spec) Normalize() {
	if s.Monitor == "" {
		s.Monitor = DefaultMonitor
	}
	if s.Profile == "" {
		s.Profile = ProfileNoKML
	}
	if s.Hardening == "" {
		s.Hardening = attack.HardeningOff
	}
	seen := make(map[string]bool, len(s.Options))
	opts := s.Options[:0]
	for _, o := range s.Options {
		if o != "" && !seen[o] {
			seen[o] = true
			opts = append(opts, o)
		}
	}
	sort.Strings(opts)
	s.Options = opts
}

// Validate checks structural invariants. It does not resolve the app
// against the registry — that is the compiler's job.
func (s *Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("bunny: spec with empty app")
	}
	if !validMonitors[s.Monitor] {
		return fmt.Errorf("bunny: %s: unknown monitor %q", s.App, s.Monitor)
	}
	if !validProfiles[s.Profile] {
		return fmt.Errorf("bunny: %s: unknown profile %q (nokml, kml or tiny)", s.App, s.Profile)
	}
	if _, err := attack.HardeningOptions(s.Hardening); err != nil {
		return fmt.Errorf("bunny: %s: %w", s.App, err)
	}
	for i := 1; i < len(s.Options); i++ {
		if s.Options[i] == s.Options[i-1] {
			return fmt.Errorf("bunny: %s: duplicate option %s", s.App, s.Options[i])
		}
		if s.Options[i] < s.Options[i-1] {
			return fmt.Errorf("bunny: %s: options not sorted (call Normalize)", s.App)
		}
	}
	return nil
}

// canonical renders the spec as a deterministic one-line string — the
// digest input.
func (s *Spec) canonical() string {
	// The trailing empty env= and rootfs= sections stay in the digest
	// input: bench's catalog digest and the farm's trace carry these
	// digests, and dropping the sections would move every one of them.
	return fmt.Sprintf("app=%s|monitor=%s|profile=%s|hardening=%s|options=%s|env=|rootfs=",
		s.App, s.Monitor, s.Profile, s.Hardening, strings.Join(s.Options, ","))
}

// Digest content-addresses the spec: equal specs (after Normalize) have
// equal digests, and any semantic difference changes it.
func (s *Spec) Digest() string {
	h := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(h[:])[:16]
}
