package apps

import (
	"strings"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kerneldb"
)

// serverKernel builds a guest kernel carrying the named app's options and
// spawns its server.
func serverKernel(t *testing.T, appName string) (*guest.Kernel, *App) {
	t.Helper()
	img, a := serverImage(t, appName)
	return bootServer(t, img, a), a
}

// serverImage builds a kernel image carrying the named app's options.
func serverImage(t *testing.T, appName string) (*kbuild.Image, *App) {
	t.Helper()
	a, err := Lookup(appName)
	if err != nil {
		t.Fatal(err)
	}
	db := kerneldb.MustLoad()
	req := db.LupineBaseRequest().Enable(a.Options...)
	cfg, err := db.ResolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	img, err := kbuild.Build(db, "test-"+a.Name, cfg, kbuild.O2)
	if err != nil {
		t.Fatal(err)
	}
	return img, a
}

// bootServer starts a guest kernel on img and spawns a's server.
func bootServer(t *testing.T, img *kbuild.Image, a *App) *guest.Kernel {
	t.Helper()
	k, err := guest.NewKernel(guest.Params{Image: img, RootFS: serverFS()})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn(a.Name, func(p *guest.Proc) int {
		p.Mount("proc", "/proc")
		p.Mount("tmpfs", "/tmp")
		return a.Main(p, false)
	})
	return k
}

// TestRedisGetAllocations pins one redis GET at zero allocations: the
// client's write, the server's epoll wake, read and constant reply, and
// the client's read, with a context switch each way. The marginal cost
// is the difference between runs of two sizes, so booting the kernel
// and the server drops out.
func TestRedisGetAllocations(t *testing.T) {
	img, a := serverImage(t, "redis")
	gets := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := bootServer(t, img, a)
			var res BenchResult
			SpawnRedisBenchmark(k, a.Port, n, "get", &res)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if res.Requests != n || res.Errors != 0 {
				t.Fatalf("redis-benchmark: %v, want %d requests", res, n)
			}
		})
	}
	const small, large = 100, 1100
	x, y := gets(small), gets(large)
	if per := (y - x) / (large - small); per > 0.01 {
		t.Fatalf("%.3f allocations per GET (%v for %d requests, %v for %d), want 0",
			per, x, small, y, large)
	}
}

func serverFS() *ext2.File {
	return ext2.NewDir("",
		ext2.NewDir("data"),
		ext2.NewDir("proc"),
		ext2.NewDir("tmp"),
	)
}

func TestRedisProtocol(t *testing.T) {
	k, a := serverKernel(t, "redis")
	k.SpawnExternal("client", func(p *guest.Proc) int {
		defer p.Poweroff()
		fd, _ := p.Socket(guest.AFInet, guest.SockStream)
		if e := p.Connect(fd, a.Port, ""); e != guest.OK {
			t.Errorf("connect: %v", e)
			return 1
		}
		buf := make([]byte, 128)
		p.Write(fd, []byte("GET key:1\r\n"))
		n, _ := p.Read(fd, buf)
		if !strings.HasPrefix(string(buf[:n]), "$5\r\n") {
			t.Errorf("GET reply = %q", buf[:n])
		}
		p.Write(fd, []byte("SET key:1 v\r\n"))
		n, _ = p.Read(fd, buf)
		if string(buf[:n]) != "+OK\r\n" {
			t.Errorf("SET reply = %q", buf[:n])
		}
		p.Write(fd, []byte("FLUSHALL\r\n"))
		n, _ = p.Read(fd, buf)
		if !strings.HasPrefix(string(buf[:n]), "-ERR") {
			t.Errorf("unknown command reply = %q", buf[:n])
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.ConsoleContains(a.SuccessText) {
		t.Errorf("console = %q", k.Console())
	}
}

func TestHTTPProtocol(t *testing.T) {
	k, a := serverKernel(t, "nginx")
	k.SpawnExternal("client", func(p *guest.Proc) int {
		defer p.Poweroff()
		fd, _ := p.Socket(guest.AFInet, guest.SockStream)
		if e := p.Connect(fd, a.Port, ""); e != guest.OK {
			t.Errorf("connect: %v", e)
			return 1
		}
		buf := make([]byte, 4096)
		// Keep-alive: two requests on one connection.
		for i := 0; i < 2; i++ {
			p.Write(fd, []byte("GET / HTTP/1.1\r\n\r\n"))
			n, _ := p.Read(fd, buf)
			if !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 200 OK") {
				t.Errorf("request %d reply = %q", i, buf[:n])
			}
		}
		p.Close(fd)
		// The server survives the close and serves a fresh connection.
		fd2, _ := p.Socket(guest.AFInet, guest.SockStream)
		if e := p.Connect(fd2, a.Port, ""); e != guest.OK {
			t.Errorf("reconnect: %v", e)
			return 1
		}
		p.Write(fd2, []byte("GET / HTTP/1.1\r\n\r\n"))
		n, _ := p.Read(fd2, buf)
		if !strings.Contains(string(buf[:n]), "Content-Length") {
			t.Errorf("fresh connection reply = %q", buf[:n])
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchResultArithmetic(t *testing.T) {
	r := BenchResult{Requests: 100, Elapsed: 1e6} // 1 ms virtual
	r.finish()
	if r.Throughput != 1e5 {
		t.Errorf("Throughput = %v, want 100000", r.Throughput)
	}
	if !strings.Contains(r.String(), "100 requests") {
		t.Errorf("String = %q", r.String())
	}
	zero := BenchResult{}
	zero.finish()
	if zero.Throughput != 0 {
		t.Error("zero-elapsed result produced throughput")
	}
}

func TestBenchmarkClientsAreExternal(t *testing.T) {
	// Clients must pay constant costs: the same benchmark on microVM and
	// lupine kernels must issue the same client-side syscall count.
	k, a := serverKernel(t, "redis")
	var res BenchResult
	SpawnRedisBenchmark(k, a.Port, 50, "get", &res)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Requests != 50 {
		t.Fatalf("bench result = %+v", res)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput computed")
	}
}

func TestMainProbeSkipsServeLoop(t *testing.T) {
	k, a := serverKernel(t, "memcached")
	_ = a
	done := false
	k.Spawn("probe", func(p *guest.Proc) int {
		app, _ := Lookup("memcached")
		code := app.Main(p, true) // probeOnly: must return, not serve
		done = code == 0
		p.Poweroff()
		return code
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("probe main did not complete cleanly")
	}
}

func TestApacheBenchScenarios(t *testing.T) {
	// Both ab modes against the in-package nginx server: conn (1 req per
	// connection) and sess (keep-alive).
	for _, tc := range []struct {
		name        string
		conns, reqs int
	}{
		{"conn", 20, 1},
		{"sess", 2, 50},
	} {
		k, a := serverKernel(t, "nginx")
		var res BenchResult
		SpawnAB(k, a.Port, tc.conns, tc.reqs, &res)
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.conns * tc.reqs
		if res.Requests != want || res.Errors != 0 {
			t.Errorf("%s: result = %+v, want %d requests, 0 errors", tc.name, res, want)
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: no throughput", tc.name)
		}
	}
	// ab against a dead port records connection errors, not a hang.
	k, _ := serverKernel(t, "nginx")
	var res BenchResult
	SpawnAB(k, 9999, 3, 2, &res)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Errors != 6 {
		t.Errorf("dead-port errors = %d, want 6", res.Errors)
	}
}

func TestRedisBenchmarkDeadPort(t *testing.T) {
	k, _ := serverKernel(t, "redis")
	var res BenchResult
	SpawnRedisBenchmark(k, 9999, 25, "get", &res)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Errors != 25 {
		t.Errorf("dead-port errors = %d, want 25", res.Errors)
	}
}

func TestMainOOMDuringStartup(t *testing.T) {
	// elasticsearch touches 64 MiB at startup; a 32 MiB guest cannot
	// hold it and Main must fail cleanly with the OOM console message.
	a, err := Lookup("elasticsearch")
	if err != nil {
		t.Fatal(err)
	}
	db := kerneldb.MustLoad()
	cfg, err := db.ResolveProfile(db.LupineBaseRequest().Enable(a.Options...))
	if err != nil {
		t.Fatal(err)
	}
	img, err := kbuild.Build(db, "es", cfg, kbuild.O2)
	if err != nil {
		t.Fatal(err)
	}
	k, err := guest.NewKernel(guest.Params{Image: img, Memory: 32 << 20, RootFS: serverFS()})
	if err != nil {
		t.Fatal(err)
	}
	var code int
	k.Spawn("es", func(p *guest.Proc) int {
		p.Mount("proc", "/proc")
		p.Mount("tmpfs", "/tmp")
		code = a.Main(p, true)
		return code
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Error("elasticsearch started in 32 MiB")
	}
	if !k.ConsoleContains("out of memory during startup") {
		t.Errorf("console = %q", k.Console())
	}
	if k.ConsoleContains(a.SuccessText) {
		t.Error("success text printed despite OOM")
	}
}
