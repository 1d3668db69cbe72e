package bunny

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lupine/internal/attack"
)

// Validate rejects every structurally invalid spec, each for its own
// reason, and accepts the normalized baseline.
func TestValidateRejects(t *testing.T) {
	ok := func() Spec {
		return Spec{App: "x", Monitor: DefaultMonitor, Profile: ProfileNoKML, Hardening: attack.HardeningOff,
			Options: []string{"EPOLL", "FUTEX"}}
	}
	base := ok()
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"empty app", func(s *Spec) { s.App = "" }, "empty app"},
		{"unknown monitor", func(s *Spec) { s.Monitor = "vmware" }, "unknown monitor"},
		{"unknown profile", func(s *Spec) { s.Profile = "massive" }, "unknown profile"},
		{"unknown hardening", func(s *Spec) { s.Hardening = "paranoid" }, "paranoid"},
		{"unsorted options", func(s *Spec) { s.Options = []string{"FUTEX", "EPOLL"} }, "not sorted"},
		{"duplicate options", func(s *Spec) { s.Options = []string{"EPOLL", "EPOLL"} }, "duplicate option"},
	} {
		s := ok()
		c.edit(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// Duplicate, empty and unsorted options normalize away.
func TestDuplicateOptionNormalization(t *testing.T) {
	s := &Spec{App: "redis", Options: []string{"FUTEX", "EPOLL", "FUTEX", "", "EPOLL"}}
	s.Normalize()
	if want := []string{"EPOLL", "FUTEX"}; !reflect.DeepEqual(s.Options, want) {
		t.Errorf("options = %v, want %v", s.Options, want)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("normalized spec fails validation: %v", err)
	}
	// New normalizes a copy: the caller's slice, which concurrent
	// callers may share, keeps its contents and order.
	opts := []string{"FUTEX", "EPOLL", "FUTEX"}
	if got, want := New("redis", opts...).Options, []string{"EPOLL", "FUTEX"}; !reflect.DeepEqual(got, want) {
		t.Errorf("New options = %v, want %v", got, want)
	}
	if want := []string{"FUTEX", "EPOLL", "FUTEX"}; !reflect.DeepEqual(opts, want) {
		t.Errorf("New rewrote its caller's options to %v", opts)
	}
}

// Quick-check over seeded permutations: specs that mean the same build —
// whatever order their options arrived in, duplicates included — always
// produce equal digests, and any semantic difference changes the digest.
func TestEqualSpecsEqualDigests(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	baseOpts := []string{"EPOLL", "FUTEX", "MULTIPROCESS", "SYSVIPC", "UNIX"}
	want := New("redis", baseOpts...).Digest()
	for i := 0; i < 50; i++ {
		opts := append([]string(nil), baseOpts...)
		rng.Shuffle(len(opts), func(a, b int) { opts[a], opts[b] = opts[b], opts[a] })
		// Duplicate a random option: normalization must erase it.
		opts = append(opts, opts[rng.Intn(len(opts))])
		if got := New("redis", opts...).Digest(); got != want {
			t.Fatalf("permutation %d: digest %s != %s", i, got, want)
		}
	}

	// Each semantic change must move the digest.
	kml := New("redis", baseOpts...)
	kml.Profile = ProfileKML
	variants := []*Spec{
		New("redis", baseOpts[:4]...), // option removed
		kml,
	}
	seen := map[string]bool{want: true}
	for i, v := range variants {
		d := v.Digest()
		if seen[d] {
			t.Errorf("variant %d: digest collision with a different spec", i)
		}
		seen[d] = true
	}
}
