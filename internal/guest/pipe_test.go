package guest

import (
	"bytes"
	"fmt"
	"testing"
)

// A pipe reuses its buffer as it drains. Over a standing backlog, a
// thousand cycles of one 4 KiB write and one 4 KiB read keep the bytes
// in order and the buffer's array within the pipe's capacity: consumed
// bytes are reclaimed by sliding the unread ones down, never by growing.
func TestPipeBufferStaysWithinCapacity(t *testing.T) {
	k := newTestKernel(t, "lupine-base")
	var failure string
	k.Spawn("pipe", func(p *Proc) int {
		r, w, _ := p.Pipe()
		pi := p.fds.get(r).pipe
		const chunk = 4096
		wrote, read := 0, 0
		write := func() {
			p.Write(w, bytes.Repeat([]byte{byte(wrote)}, chunk))
			wrote++
		}
		for wrote < pipeCapacity/chunk-1 {
			write()
		}
		buf := make([]byte, chunk)
		for i := 0; i < 1000 && failure == ""; i++ {
			write()
			if n, e := p.Read(r, buf); e != OK || n != chunk || buf[0] != byte(read) || buf[chunk-1] != byte(read) {
				failure = fmt.Sprintf("cycle %d: read %d bytes (%v) starting %d, want chunk %d", i, n, e, buf[0], byte(read))
			}
			read++
			if c := cap(pi.buf); c > pipeCapacity {
				failure = fmt.Sprintf("cycle %d: buffer array grew to %d bytes, capacity is %d", i, c, pipeCapacity)
			}
		}
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if failure != "" {
		t.Fatal(failure)
	}
}
