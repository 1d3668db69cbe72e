package manifest

import (
	"testing"
	"testing/quick"
)

func TestNewNormalizesOptions(t *testing.T) {
	m := New("redis", []string{"/bin/redis-server"}, "FUTEX", "EPOLL", "FUTEX")
	if len(m.Options) != 2 || m.Options[0] != "EPOLL" || m.Options[1] != "FUTEX" {
		t.Fatalf("Options = %v", m.Options)
	}
	m.AddOptions("AIO", "EPOLL")
	if len(m.Options) != 3 || m.Options[0] != "AIO" {
		t.Fatalf("Options after add = %v", m.Options)
	}
	if !m.HasOption("FUTEX") || m.HasOption("SMP") {
		t.Error("HasOption wrong")
	}
}

// TestMarshalGolden pins the JSON form the rootfs image embeds as
// /manifest.json: every field, options sorted, env and port present.
func TestMarshalGolden(t *testing.T) {
	m := New("nginx", []string{"/bin/nginx", "-g", "daemon off;"},
		"EPOLL", "AIO", "EVENTFD")
	m.Env["NGINX_PORT"] = "80"
	m.NetworkPort = 80
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "app": "nginx",
  "options": [
    "AIO",
    "EPOLL",
    "EVENTFD"
  ],
  "entrypoint": [
    "/bin/nginx",
    "-g",
    "daemon off;"
  ],
  "env": {
    "NGINX_PORT": "80"
  },
  "network_port": 80
}`
	if string(data) != want {
		t.Errorf("Marshal =\n%s\nwant\n%s", data, want)
	}
	if _, err := (&Manifest{App: "x"}).Marshal(); err == nil {
		t.Error("Marshal of an invalid manifest succeeded")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Manifest{}).Validate(); err == nil {
		t.Error("empty manifest validated")
	}
	if err := (&Manifest{App: "x"}).Validate(); err == nil {
		t.Error("no-entrypoint manifest validated")
	}
	bad := &Manifest{App: "x", Entrypoint: []string{"/bin/x"}, Options: []string{"B", "A"}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted options validated")
	}
	dup := &Manifest{App: "x", Entrypoint: []string{"/bin/x"}, Options: []string{"A", "A"}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate options validated")
	}
}

// Property: AddOptions keeps the option list sorted and duplicate-free
// for arbitrary inputs.
func TestAddOptionsProperty(t *testing.T) {
	f := func(batches [][]byte) bool {
		m := New("app", []string{"/bin/app"})
		for _, b := range batches {
			var opts []string
			for _, c := range b {
				opts = append(opts, string('A'+c%20))
			}
			m.AddOptions(opts...)
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Marshal must be byte-deterministic regardless of Env insertion order:
// the bunny pipeline hashes manifests into content addresses, so two
// identical manifests built in different orders must serialize alike.
func TestMarshalEnvOrderDeterminism(t *testing.T) {
	build := func(keys []string) []byte {
		m := New("node", []string{"/bin/node"}, "EPOLL", "FUTEX")
		for _, k := range keys {
			m.Env[k] = "v-" + k
		}
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := build([]string{"NODE_ENV", "PATH", "HOME", "LANG"})
	b := build([]string{"LANG", "HOME", "PATH", "NODE_ENV"})
	if string(a) != string(b) {
		t.Errorf("Env insertion order changed the serialization:\n%s\n---\n%s", a, b)
	}
}
