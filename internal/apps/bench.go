package apps

import (
	"bytes"
	"fmt"

	"lupine/internal/guest"
	"lupine/internal/simclock"
)

// Server request loops. Both benchmarked servers follow the single
// process, epoll-driven, non-forking architecture of their real
// counterparts on a 1-VCPU guest (§4.6).

// Redis replies, shared by every request like httpResponse: Write copies
// them.
var (
	redisValue = []byte("$5\r\nvalue\r\n")
	redisOK    = []byte("+OK\r\n")
	redisErr   = []byte("-ERR unknown command\r\n")
)

// serveRedis answers a redis-like text protocol: "GET key" and
// "SET key value" lines, one reply per request.
func serveRedis(a *App, p *guest.Proc) int {
	return epollServe(a, p, func(p *guest.Proc, req []byte) []byte {
		p.Work(a.RequestWork)
		switch {
		case bytes.HasPrefix(req, []byte("GET")):
			return redisValue
		case bytes.HasPrefix(req, []byte("SET")):
			// Writes dirty memory: the value lands in the keyspace.
			p.Touch(4096)
			return redisOK
		default:
			return redisErr
		}
	})
}

// httpResponse is a typical small static response (headers + body).
var httpResponse = append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 512\r\n\r\n"),
	bytes.Repeat([]byte("lupine! "), 64)...)

// serveHTTP answers HTTP requests; keep-alive connections issue many
// requests per connection (the nginx-sess scenario).
func serveHTTP(a *App, p *guest.Proc) int {
	return epollServe(a, p, func(p *guest.Proc, req []byte) []byte {
		p.Work(a.RequestWork)
		return httpResponse
	})
}

// epollServe is the shared event loop: accept on the listening socket,
// read a request, produce a reply, tear down closed connections.
func epollServe(a *App, p *guest.Proc, handle func(p *guest.Proc, req []byte) []byte) int {
	lfd, e := p.Socket(guest.AFInet, guest.SockStream)
	if e != guest.OK {
		return 1
	}
	if e := p.Bind(lfd, a.Port, ""); e != guest.OK {
		p.Printf("%s: bind: %v\n", a.Name, e)
		return 1
	}
	if e := p.Listen(lfd); e != guest.OK {
		return 1
	}
	epfd, e := p.EpollCreate()
	if e != guest.OK {
		return 1
	}
	p.EpollCtl(epfd, lfd, true)
	buf := make([]byte, 4096)
	var ready []int
	for {
		ready, e = p.EpollWait(epfd, ready)
		if e != guest.OK {
			return 1
		}
		for _, fd := range ready {
			if fd == lfd {
				conn, e := p.Accept(lfd)
				if e != guest.OK {
					continue
				}
				p.EpollCtl(epfd, conn, true)
				continue
			}
			n, e := p.Read(fd, buf)
			if e != guest.OK || n == 0 {
				p.EpollCtl(epfd, fd, false)
				p.Close(fd)
				continue
			}
			p.Write(fd, handle(p, buf[:n]))
		}
	}
}

// BenchResult is the outcome of a client workload run.
type BenchResult struct {
	Requests   int
	Elapsed    simclock.Duration
	Throughput float64 // requests per virtual second
	Errors     int
}

func (r BenchResult) String() string {
	return fmt.Sprintf("%d requests in %v (%.0f req/s, %d errors)",
		r.Requests, r.Elapsed, r.Throughput, r.Errors)
}

func (r *BenchResult) finish() {
	if r.Elapsed > 0 {
		r.Throughput = float64(r.Requests-r.Errors) / r.Elapsed.Seconds()
	}
}

// SpawnRedisBenchmark models redis-benchmark: an external client issuing
// n pipelined requests of the given op ("get" or "set") over one
// connection, then powering the guest off. Read res after Kernel.Run.
func SpawnRedisBenchmark(k *guest.Kernel, port, n int, op string, res *BenchResult) {
	k.SpawnExternal("redis-benchmark", func(p *guest.Proc) int {
		defer p.Poweroff()
		fd, e := p.Socket(guest.AFInet, guest.SockStream)
		if e != guest.OK {
			res.Errors = n
			return 1
		}
		if e := p.Connect(fd, port, ""); e != guest.OK {
			res.Errors = n
			return 1
		}
		req := []byte("GET key:000000000042\r\n")
		if op == "set" {
			req = []byte("SET key:000000000042 xxxxxxxxxxxxxxxxxxxx\r\n")
		}
		buf := make([]byte, 256)
		start := p.Kernel().Now()
		for i := 0; i < n; i++ {
			if _, e := p.Write(fd, req); e != guest.OK {
				res.Errors++
				continue
			}
			if _, e := p.Read(fd, buf); e != guest.OK {
				res.Errors++
			}
		}
		res.Requests = n
		res.Elapsed = p.Kernel().Now().Sub(start)
		res.finish()
		return 0
	})
}

// SpawnAB models ab (ApacheBench): conns connections each issuing
// reqsPerConn HTTP requests (reqsPerConn=1 is the nginx-conn scenario,
// 100 the keep-alive nginx-sess scenario).
func SpawnAB(k *guest.Kernel, port, conns, reqsPerConn int, res *BenchResult) {
	k.SpawnExternal("ab", func(p *guest.Proc) int {
		defer p.Poweroff()
		req := []byte("GET /index.html HTTP/1.1\r\nHost: guest\r\nConnection: keep-alive\r\n\r\n")
		buf := make([]byte, 4096)
		start := p.Kernel().Now()
		for c := 0; c < conns; c++ {
			fd, e := p.Socket(guest.AFInet, guest.SockStream)
			if e != guest.OK {
				res.Errors += reqsPerConn
				continue
			}
			if e := p.Connect(fd, port, ""); e != guest.OK {
				res.Errors += reqsPerConn
				continue
			}
			for i := 0; i < reqsPerConn; i++ {
				res.Requests++
				if _, e := p.Write(fd, req); e != guest.OK {
					res.Errors++
					continue
				}
				if _, e := p.Read(fd, buf); e != guest.OK {
					res.Errors++
				}
			}
			p.Close(fd)
		}
		res.Elapsed = p.Kernel().Now().Sub(start)
		res.finish()
		return 0
	})
}
