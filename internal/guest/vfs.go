package guest

import (
	"fmt"
	"slices"
	"strings"

	"lupine/internal/ext2"
)

// Open flags (subset of fcntl.h).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

type deviceKind int

const (
	devNone deviceKind = iota
	devNull
	devZero
	devConsole
)

// vnode is an in-memory inode. The root filesystem is materialized from a
// real ext2 image at mount time, its files sharing the tree's bytes until
// first written; /proc, /tmp and /dev are synthetic filesystems gated on
// their configuration options.
type vnode struct {
	name     string
	dir      bool
	symlink  bool
	mode     uint16
	data     []byte
	shared   bool // data is the mounted tree's File.Data: copy before writing
	children map[string]*vnode
	dev      deviceKind
	fsType   string

	// procGen generates dynamic content (procfs) at open time.
	procGen func(k *Kernel) []byte

	flocked bool
	flockBy int
}

func newDirNode(name, fsType string) *vnode {
	return &vnode{name: name, dir: true, mode: 0o755, fsType: fsType, children: make(map[string]*vnode)}
}

type vfs struct {
	root *vnode
}

// newVFS mounts the root filesystem from the ext2 tree (an empty root if
// nil) and populates /dev. /proc and /tmp are mounted by the init script
// via Mount, which enforces configuration gating.
func newVFS(rootfs *ext2.File) *vfs {
	v := &vfs{root: newDirNode("", "ext2")}
	if rootfs != nil {
		v.root = importExt2(rootfs, "ext2")
	}
	// /dev is devtmpfs, present on every configuration.
	dev := newDirNode("dev", "devtmpfs")
	dev.children["null"] = &vnode{name: "null", mode: 0o666, dev: devNull, fsType: "devtmpfs"}
	dev.children["zero"] = &vnode{name: "zero", mode: 0o666, dev: devZero, fsType: "devtmpfs"}
	dev.children["console"] = &vnode{name: "console", mode: 0o600, dev: devConsole, fsType: "devtmpfs"}
	v.root.children["dev"] = dev
	return v
}

func importExt2(f *ext2.File, fsType string) *vnode {
	n := &vnode{
		name:    f.Name,
		dir:     f.Dir,
		symlink: f.Symlink,
		mode:    f.Mode,
		fsType:  fsType,
	}
	if f.Dir {
		n.children = make(map[string]*vnode, len(f.Children))
		for _, c := range f.Children {
			n.children[c.Name] = importExt2(c, fsType)
		}
	} else {
		n.data, n.shared = f.Data, true
	}
	return n
}

// grow gives the file a private array of at least size bytes: bytes
// shared with the mounted tree are copied before they can change, and
// growth is zero-filled.
func (n *vnode) grow(size int64) {
	if size <= int64(len(n.data)) && !n.shared {
		return
	}
	grown := make([]byte, max(size, int64(len(n.data))))
	copy(grown, n.data)
	n.data, n.shared = grown, false
}

// resolve walks a path, following symlinks (depth-limited).
func (v *vfs) resolve(path string) (*vnode, Errno) {
	return v.resolveDepth(path, 0)
}

func (v *vfs) resolveDepth(path string, depth int) (*vnode, Errno) {
	if depth > 8 {
		return nil, EINVAL // ELOOP stand-in
	}
	cur := v.root
	parts := splitPath(path)
	for i, part := range parts {
		if !cur.dir {
			return nil, ENOTDIR
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, ENOENT
		}
		if next.symlink {
			target := string(next.data)
			rest := strings.Join(parts[i+1:], "/")
			full := target
			if rest != "" {
				full = target + "/" + rest
			}
			if !strings.HasPrefix(full, "/") {
				// Relative symlink: resolve against the parent directory.
				full = strings.Join(parts[:i], "/") + "/" + full
			}
			return v.resolveDepth(full, depth+1)
		}
		cur = next
	}
	return cur, OK
}

// resolveParent returns the directory containing path and the base name.
func (v *vfs) resolveParent(path string) (*vnode, string, Errno) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", EINVAL
	}
	dirNode, errno := v.resolve("/" + strings.Join(parts[:len(parts)-1], "/"))
	if errno != OK {
		return nil, "", errno
	}
	if !dirNode.dir {
		return nil, "", ENOTDIR
	}
	return dirNode, parts[len(parts)-1], OK
}

func splitPath(path string) []string {
	var out []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return out
}

// --- fd table ---

type fdKind int

const (
	fdFile fdKind = iota
	fdPipeR
	fdPipeW
	fdSocket
	fdEpoll
	fdEventFD
	fdTimerFD
	fdSignalFD
	fdInotify
)

// FD is an open file description. Descriptors inherited across fork share
// one FD via refcounting.
type FD struct {
	refs   int
	kind   fdKind
	node   *vnode
	offset int64

	pipe *pipe
	sock *socket
	ep   *epollInst
}

type fdTable struct {
	refs int
	fds  []*FD // indexed by descriptor number; nil marks a free slot
}

func newFDTable() *fdTable {
	console := &vnode{name: "console", mode: 0o600, dev: devConsole, fsType: "devtmpfs"}
	stdin := &FD{refs: 1, kind: fdFile, node: console}
	stdout := &FD{refs: 1, kind: fdFile, node: console}
	stderr := &FD{refs: 1, kind: fdFile, node: console}
	return &fdTable{refs: 1, fds: []*FD{stdin, stdout, stderr}}
}

// clone copies the table for fork: numbers are private, descriptions
// shared.
func (t *fdTable) clone() *fdTable {
	nt := &fdTable{refs: 1, fds: slices.Clone(t.fds)}
	for _, fd := range nt.fds {
		if fd != nil {
			fd.refs++
		}
	}
	return nt
}

// share bumps the refcount for threads (CLONE_FILES).
func (t *fdTable) share() *fdTable {
	t.refs++
	return t
}

// alloc installs fd at the lowest free number, open(2)'s rule.
func (t *fdTable) alloc(fd *FD) int {
	n := 0
	for n < len(t.fds) && t.fds[n] != nil {
		n++
	}
	if n == len(t.fds) {
		t.fds = append(t.fds, fd)
	} else {
		t.fds[n] = fd
	}
	return n
}

func (t *fdTable) get(n int) *FD {
	if uint(n) >= uint(len(t.fds)) {
		return nil
	}
	return t.fds[n]
}

// release drops the table (process exit), closing what it owned in
// ascending descriptor order.
func (t *fdTable) release(p *Proc) {
	t.refs--
	if t.refs > 0 {
		return
	}
	for n := range t.fds {
		t.closeFD(p, n)
	}
}

func (t *fdTable) closeFD(p *Proc, n int) Errno {
	fd := t.get(n)
	if fd == nil {
		return EBADF
	}
	t.fds[n] = nil
	fd.refs--
	if fd.refs == 0 {
		fd.lastClose(p)
	}
	return OK
}

// lastClose tears down the underlying object when the final reference
// drops.
func (fd *FD) lastClose(p *Proc) {
	switch fd.kind {
	case fdPipeR:
		fd.pipe.closeRead(p.k)
	case fdPipeW:
		fd.pipe.closeWrite(p.k)
	case fdSocket:
		fd.sock.close(p.k)
	case fdFile:
		if fd.node != nil && fd.node.flocked && fd.node.flockBy == p.pid {
			fd.node.flocked = false
		}
	}
}

// --- file syscalls ---

// Open opens a path, optionally creating it, like open(2).
func (p *Proc) Open(path string, flags int) (int, Errno) {
	p.sysEnterFree("open")
	p.charge(p.netCost(p.k.cost.OpenWork))
	node, errno := p.k.vfs.resolve(path)
	if errno == ENOENT && flags&OCreat != 0 {
		parent, base, e2 := p.k.vfs.resolveParent(path)
		if e2 != OK {
			return -1, e2
		}
		if parent.fsType == "proc" {
			return -1, EACCES
		}
		p.charge(p.netCost(p.k.cost.FileCreateWork))
		node = &vnode{name: base, mode: 0o644, fsType: parent.fsType}
		parent.children[base] = node
		errno = OK
	}
	if errno != OK {
		return -1, errno
	}
	if node.dir && flags&(OWronly|ORdwr) != 0 {
		return -1, EISDIR
	}
	if node.procGen != nil {
		node = &vnode{name: node.name, mode: node.mode, fsType: "proc", data: node.procGen(p.k)}
	}
	if flags&OTrunc != 0 && !node.dir && node.dev == devNone {
		node.data, node.shared = nil, false
	}
	fd := &FD{refs: 1, kind: fdFile, node: node}
	if flags&OAppend != 0 {
		fd.offset = int64(len(node.data))
	}
	return p.fds.alloc(fd), OK
}

// Close closes a descriptor, like close(2).
func (p *Proc) Close(fd int) Errno {
	p.sysEnterFree("close")
	p.charge(p.netCost(p.k.cost.CloseWork))
	return p.fds.closeFD(p, fd)
}

// Read reads from a descriptor into buf, like read(2). It dispatches on
// the descriptor kind (file, device, pipe, socket).
func (p *Proc) Read(fd int, buf []byte) (int, Errno) {
	p.sysEnterFree("read")
	if !p.external {
		p.chargeRaw(p.k.cost.UsercopyRead)
	}
	f := p.fds.get(fd)
	if f == nil {
		return 0, EBADF
	}
	if e := p.transientFault(); e != OK {
		return 0, e
	}
	switch f.kind {
	case fdFile:
		return p.readFile(f, buf)
	case fdPipeR:
		return f.pipe.read(p, buf)
	case fdPipeW:
		return 0, EBADF
	case fdSocket:
		return f.sock.recv(p, buf)
	default:
		return 0, EINVAL
	}
}

func (p *Proc) readFile(f *FD, buf []byte) (int, Errno) {
	p.charge(p.k.cost.ReadWork)
	switch f.node.dev {
	case devZero:
		for i := range buf {
			buf[i] = 0
		}
		p.charge(chargeBytes(p.k.cost.FileBytePerKB/4, len(buf)))
		return len(buf), OK
	case devNull:
		return 0, OK // immediate EOF
	case devConsole:
		return 0, OK // no interactive input in a unikernel
	}
	if f.node.dir {
		return 0, EISDIR
	}
	n := copy(buf, f.node.data[min64(f.offset, int64(len(f.node.data))):])
	f.offset += int64(n)
	p.charge(p.netCost(chargeBytes(p.k.cost.FileBytePerKB, n))) // page-cache copy
	return n, OK
}

// Write writes buf to a descriptor, like write(2).
func (p *Proc) Write(fd int, buf []byte) (int, Errno) {
	p.sysEnterFree("write")
	if !p.external {
		p.chargeRaw(p.k.cost.UsercopyWrite)
	}
	f := p.fds.get(fd)
	if f == nil {
		return 0, EBADF
	}
	if e := p.transientFault(); e != OK {
		return 0, e
	}
	switch f.kind {
	case fdFile:
		return p.writeFile(f, buf)
	case fdPipeW:
		return f.pipe.write(p, buf)
	case fdPipeR:
		return 0, EBADF
	case fdSocket:
		return f.sock.send(p, buf)
	default:
		return 0, EINVAL
	}
}

func (p *Proc) writeFile(f *FD, buf []byte) (int, Errno) {
	p.charge(p.k.cost.WriteWork)
	switch f.node.dev {
	case devNull:
		return len(buf), OK
	case devZero:
		return len(buf), OK
	case devConsole:
		p.k.consolePrint(string(buf))
		return len(buf), OK
	}
	if f.node.dir {
		return 0, EISDIR
	}
	if f.node.fsType == "proc" {
		return 0, EACCES
	}
	end := f.offset + int64(len(buf))
	f.node.grow(end)
	copy(f.node.data[f.offset:], buf)
	f.offset = end
	p.charge(p.netCost(chargeBytes(p.k.cost.FileBytePerKB, len(buf))))
	return len(buf), OK
}

// Stat returns metadata for a path, like stat(2).
type StatInfo struct {
	Size int64
	Dir  bool
}

// Stat is the stat system call.
func (p *Proc) Stat(path string) (StatInfo, Errno) {
	p.sysEnterFree("stat")
	p.charge(p.netCost(p.k.cost.StatWork))
	node, errno := p.k.vfs.resolve(path)
	if errno != OK {
		return StatInfo{}, errno
	}
	return StatInfo{Size: int64(len(node.data)), Dir: node.dir}, OK
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string) Errno {
	p.sysEnterFree("mkdir")
	parent, base, errno := p.k.vfs.resolveParent(path)
	if errno != OK {
		return errno
	}
	if _, exists := parent.children[base]; exists {
		return EEXIST
	}
	p.charge(p.netCost(p.k.cost.FileCreateWork))
	d := newDirNode(base, parent.fsType)
	parent.children[base] = d
	return OK
}

// Unlink removes a file, like unlink(2).
func (p *Proc) Unlink(path string) Errno {
	p.sysEnterFree("unlink")
	p.charge(p.netCost(p.k.cost.FileDeleteWork))
	parent, base, errno := p.k.vfs.resolveParent(path)
	if errno != OK {
		return errno
	}
	node, ok := parent.children[base]
	if !ok {
		return ENOENT
	}
	if node.dir {
		if len(node.children) > 0 {
			return ENOTEMPTY
		}
	}
	delete(parent.children, base)
	return OK
}

// Flock acquires or releases an exclusive advisory lock (flock(2), gated
// on CONFIG_FILE_LOCKING).
func (p *Proc) Flock(fd int, lock bool) Errno {
	if e := p.sysEnter("flock"); e != OK {
		p.k.consolePrint("flock failed: function not implemented\n")
		return e
	}
	f := p.fds.get(fd)
	if f == nil || f.kind != fdFile {
		return EBADF
	}
	if lock {
		if f.node.flocked && f.node.flockBy != p.pid {
			return EAGAIN
		}
		f.node.flocked = true
		f.node.flockBy = p.pid
	} else {
		f.node.flocked = false
	}
	return OK
}

// Madvise is the madvise syscall (gated on CONFIG_ADVISE_SYSCALLS).
func (p *Proc) Madvise() Errno {
	if e := p.sysEnter("madvise"); e != OK {
		p.k.consolePrint("madvise failed: function not implemented\n")
		return e
	}
	return OK
}

// Mount mounts a filesystem at path; fstype availability is gated on the
// kernel configuration (proc -> PROC_FS, tmpfs -> TMPFS, ext2 -> EXT2_FS).
func (p *Proc) Mount(fstype, path string) Errno {
	p.sysEnterFree("mount")
	p.k.trace(p, "mount:"+fstype)
	var opt string
	switch fstype {
	case "proc":
		opt = "PROC_FS"
	case "tmpfs":
		opt = "TMPFS"
	case "ext2":
		opt = "EXT2_FS"
	case "devtmpfs":
		opt = ""
	default:
		return ENOSYS
	}
	if opt != "" && !p.k.img.Enabled(opt) {
		p.k.consolePrint(fmt.Sprintf("mount: unknown filesystem type '%s'\n", fstype))
		return ENOSYS // ENODEV in Linux; ENOSYS keeps the config search uniform
	}
	parent, base, errno := p.k.vfs.resolveParent(path)
	if errno != OK {
		return errno
	}
	mnt := newDirNode(base, fstype)
	if fstype == "proc" {
		populateProcfs(mnt)
	}
	parent.children[base] = mnt
	return OK
}

// Sysctl reads a kernel parameter (gated on CONFIG_SYSCTL).
func (p *Proc) Sysctl(name string) (string, Errno) {
	if e := p.sysEnter("sysctl"); e != OK {
		p.k.consolePrint("sysctl failed: function not implemented\n")
		return "", e
	}
	switch name {
	case "kernel.ostype":
		return "Linux", OK
	case "kernel.osrelease":
		return "4.0.0-lupine", OK
	case "vm.overcommit_memory":
		return "0", OK
	case "net.core.somaxconn":
		return "128", OK
	default:
		return "", ENOENT
	}
}

// populateProcfs installs the dynamic files applications read.
func populateProcfs(mnt *vnode) {
	addGen := func(name string, gen func(k *Kernel) []byte) {
		mnt.children[name] = &vnode{name: name, mode: 0o444, fsType: "proc", procGen: gen}
	}
	addGen("meminfo", func(k *Kernel) []byte {
		return []byte(fmt.Sprintf("MemTotal: %8d kB\nMemFree:  %8d kB\n",
			k.memLimit/1024, (k.memLimit-k.memUsed)/1024))
	})
	addGen("cpuinfo", func(k *Kernel) []byte {
		var sb strings.Builder
		for i := 0; i < k.NumCPU(); i++ {
			fmt.Fprintf(&sb, "processor\t: %d\nmodel name\t: Lupine vCPU\n\n", i)
		}
		return []byte(sb.String())
	})
	addGen("uptime", func(k *Kernel) []byte {
		return []byte(fmt.Sprintf("%.2f %.2f\n", k.Now().Sub(0).Seconds(), 0.0))
	})
	addGen("stat", func(k *Kernel) []byte {
		s := k.Stats()
		return []byte(fmt.Sprintf("cpu  0 0 0 0 0 0 0 0 0 0\nctxt %d\nprocesses %d\nsyscalls %d\n",
			s.ContextSwitch, s.ProcsCreated, s.Syscalls))
	})
	mnt.children["sys"] = newDirNode("sys", "proc")
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
