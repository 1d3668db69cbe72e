// Package bunny is the declarative build pipeline over the paper's
// Figure 2: a spec names an application, a monitor, a
// configuration profile and extra root filesystem entries, and the
// compiler turns it into a Lupine unikernel image through the real
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

// Entry is one extra root filesystem file the spec ships alongside the
// application (configs, seed data).
type Entry struct {
	Path string
	Mode uint32 // 0 means 0644
	Data string
}

// Spec is the declarative build request: everything that determines the
// produced image, and nothing else.
type Spec struct {
	App     string            // registry application name
	Monitor string            // default firecracker
	Profile string            // nokml (default), kml, tiny
	Options []string          // kernel options atop the app manifest
	Env     map[string]string // extra environment entries
	RootFS  []Entry           // extra rootfs files

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
// sorted and deduplicated, rootfs entries sorted by path, empty Env
// dropped to nil. Two specs meaning the same build render identically
// (and therefore digest identically) after Normalize.
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
	sort.SliceStable(s.RootFS, func(i, j int) bool { return s.RootFS[i].Path < s.RootFS[j].Path })
	if len(s.Env) == 0 {
		s.Env = nil
	}
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
	for i, e := range s.RootFS {
		if e.Path == "" || !strings.HasPrefix(e.Path, "/") {
			return fmt.Errorf("bunny: %s: rootfs entry %d: path %q must be absolute", s.App, i, e.Path)
		}
		if i > 0 && e.Path == s.RootFS[i-1].Path {
			return fmt.Errorf("bunny: %s: duplicate rootfs entry %s", s.App, e.Path)
		}
	}
	return nil
}

// canonical renders the spec as a deterministic one-line string — the
// digest input. Env keys are emitted in sorted order, so digests never
// depend on map iteration.
func (s *Spec) canonical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "app=%s|monitor=%s|profile=%s|hardening=%s|", s.App, s.Monitor, s.Profile, s.Hardening)
	sb.WriteString("options=")
	sb.WriteString(strings.Join(s.Options, ","))
	sb.WriteString("|env=")
	keys := make([]string, 0, len(s.Env))
	for k := range s.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, s.Env[k])
	}
	sb.WriteString("|rootfs=")
	for _, e := range s.RootFS {
		fmt.Fprintf(&sb, "%s:%o:%x;", e.Path, e.Mode, sha256.Sum256([]byte(e.Data)))
	}
	return sb.String()
}

// Digest content-addresses the spec: equal specs (after Normalize) have
// equal digests, and any semantic difference changes it.
func (s *Spec) Digest() string {
	h := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(h[:])[:16]
}
