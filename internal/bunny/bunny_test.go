package bunny

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

func TestParseTextBunnyfile(t *testing.T) {
	s, err := Parse([]byte(`
# redis, specialized for the fleet
app: redis
profile: nokml
options: MULTIPROCESS FUTEX
options: EPOLL
env: TZ=UTC
rootfs: /etc/redis.conf=maxmemory 128mb
`))
	if err != nil {
		t.Fatal(err)
	}
	if s.App != "redis" || s.Monitor != DefaultMonitor || s.Profile != ProfileNoKML {
		t.Errorf("parsed %+v", s)
	}
	if want := []string{"EPOLL", "FUTEX", "MULTIPROCESS"}; !reflect.DeepEqual(s.Options, want) {
		t.Errorf("options = %v, want %v (sorted, accumulated)", s.Options, want)
	}
	if s.Env["TZ"] != "UTC" {
		t.Errorf("env = %v", s.Env)
	}
	if len(s.RootFS) != 1 || s.RootFS[0].Path != "/etc/redis.conf" || s.RootFS[0].Data != "maxmemory 128mb" {
		t.Errorf("rootfs = %+v", s.RootFS)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"options: FUTEX\n",             // no app
		"app: x\nmonitor: vmware\n",    // unknown monitor
		"app: x\nprofile: massive\n",   // unknown profile
		"app: x\nwhat: ever\n",         // unknown key
		"app: x\nrootfs: noequals\n",   // malformed rootfs entry
		"app: x\nrootfs: rel/path=d\n", // relative path
		"app: x\nenv: novalue\n",       // malformed env entry
		"just some words\n",            // not key: value
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// JSON round-trip: Marshal is deterministic (Env map keys sort), and
// parsing the output reproduces the spec and its digest exactly.
func TestJSONRoundTripDeterminism(t *testing.T) {
	s := New("nginx", "EPOLL", "FUTEX")
	s.Env = map[string]string{"B": "2", "A": "1", "C": "3"}
	s.RootFS = []Entry{{Path: "/etc/nginx.conf", Data: "worker_processes 1;"}}
	s.Normalize()

	blob, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(blob) {
			t.Fatal("Marshal is not deterministic across calls")
		}
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", back, s)
	}
	if back.Digest() != s.Digest() {
		t.Error("round trip changed the digest")
	}
}

// Duplicate and unsorted options normalize away, in JSON and text form
// alike.
func TestDuplicateOptionNormalization(t *testing.T) {
	s, err := ParseJSON([]byte(`{"app":"redis","options":["FUTEX","EPOLL","FUTEX","","EPOLL"]}`))
	if err != nil {
		t.Fatal(err)
	}
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
// whatever order their options, env entries, or rootfs files arrived in
// — always produce equal digests, and any semantic difference changes
// the digest.
func TestEqualSpecsEqualDigests(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	baseOpts := []string{"EPOLL", "FUTEX", "MULTIPROCESS", "SYSVIPC", "UNIX"}
	baseEnv := [][2]string{{"A", "1"}, {"B", "2"}, {"C", "3"}}
	baseFS := []Entry{{Path: "/a", Data: "x"}, {Path: "/b", Data: "y"}}

	mk := func(opts []string, env [][2]string, fs []Entry) *Spec {
		s := New("redis", opts...)
		s.Env = map[string]string{}
		for _, kv := range env {
			s.Env[kv[0]] = kv[1]
		}
		s.RootFS = append([]Entry(nil), fs...)
		s.Normalize()
		return s
	}
	want := mk(baseOpts, baseEnv, baseFS).Digest()
	for i := 0; i < 50; i++ {
		opts := append([]string(nil), baseOpts...)
		rng.Shuffle(len(opts), func(a, b int) { opts[a], opts[b] = opts[b], opts[a] })
		// Duplicate a random option: normalization must erase it.
		opts = append(opts, opts[rng.Intn(len(opts))])
		env := append([][2]string(nil), baseEnv...)
		rng.Shuffle(len(env), func(a, b int) { env[a], env[b] = env[b], env[a] })
		fs := append([]Entry(nil), baseFS...)
		rng.Shuffle(len(fs), func(a, b int) { fs[a], fs[b] = fs[b], fs[a] })
		if got := mk(opts, env, fs).Digest(); got != want {
			t.Fatalf("permutation %d: digest %s != %s", i, got, want)
		}
	}

	// Each semantic change must move the digest.
	variants := []*Spec{
		mk(baseOpts[:4], baseEnv, baseFS),                                  // option removed
		mk(baseOpts, baseEnv[:2], baseFS),                                  // env entry removed
		mk(baseOpts, baseEnv, baseFS[:1]),                                  // rootfs entry removed
		mk(baseOpts, baseEnv, []Entry{{Path: "/a", Data: "z"}, baseFS[1]}), // contents changed
	}
	kml := mk(baseOpts, baseEnv, baseFS)
	kml.Profile = ProfileKML
	variants = append(variants, kml)
	seen := map[string]bool{want: true}
	for i, v := range variants {
		d := v.Digest()
		if seen[d] {
			t.Errorf("variant %d: digest collision with a different spec", i)
		}
		seen[d] = true
	}
}

func TestJSONAutodetect(t *testing.T) {
	s, err := Parse([]byte(`  {"app":"redis"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.App != "redis" || s.Monitor != DefaultMonitor {
		t.Errorf("parsed %+v", s)
	}
	// Marshal output of a valid spec is itself valid JSON.
	blob, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(blob) {
		t.Error("Marshal produced invalid JSON")
	}
}
