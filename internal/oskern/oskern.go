// Package oskern models the operating-system side of the workloads: a
// kernel with its own code footprint and data structures that workload
// threads enter through syscalls. The paper attributes execution cycles,
// instruction misses, sharing and bandwidth to OS vs application
// (Figures 1, 2, 6, 7); this model is what generates the OS share.
//
// The model concentrates on what the paper observes matters: the network
// subsystem. Sending and receiving data traverses a realistic call chain
// (syscall entry, socket lookup, TCP segmentation, IP, device xmit) with
// per-packet touches of connection control blocks, a shared socket-buffer
// pool, per-device rings, and global statistics — the kernel-side shared
// read-write lines that dominate OS sharing in Figure 6. A page-cache
// file-read path and a scheduler tick are provided for the disk-flavoured
// workloads.
package oskern

import (
	"sync/atomic"

	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
)

// Kernel is one simulated operating-system instance, shared by all the
// threads of a workload. The emission helpers are safe for concurrent
// use by multiple emitter goroutines: mutable cursors are atomics and
// all other state is read-only after construction.
type Kernel struct {
	heap *addrspace.Heap

	// Code regions (functions) of the modelled kernel paths.
	fnSyscall   *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnSysRet    *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnSockLook  *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnTCPSend   *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnTCPRecv   *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnIPOut     *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnIPIn      *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnDevXmit   *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnSoftirq   *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnCopy      *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnSkbAlloc  *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnVFSRead   *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnPageCache *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnSched     *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnPageFault *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnSelect    *trace.Func //simlint:ok checkpointcov construction-time code layout
	fnLockPath  *trace.Func //simlint:ok checkpointcov construction-time code layout

	// Shared kernel data.
	skbPool  addrspace.Array //simlint:ok checkpointcov socket-buffer pool geometry, fixed at construction
	skbNext  atomic.Uint64
	rings    []addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	ringCur  []atomic.Uint64
	stats    uint64          //simlint:ok checkpointcov construction-time allocation address
	nicTail  []uint64        //simlint:ok checkpointcov construction-time allocation addresses
	sockHash addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	runq     addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	pgCache  addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	pcpu     addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	connSeq  atomic.Uint64
}

// SaveState serializes the kernel's mutable cursors and its heap cursor.
// Code layout and the shared data arrays are construction-time state that
// New rebuilds identically (the kernel's construction is deterministic in
// its Config), so only the moving parts are written.
func (k *Kernel) SaveState(w *checkpoint.Writer) {
	w.Tag("oskern")
	w.U64(k.connSeq.Load())
	w.U64(k.skbNext.Load())
	w.U32(uint32(len(k.ringCur)))
	for i := range k.ringCur {
		w.U64(k.ringCur[i].Load())
	}
	k.heap.SaveState(w)
}

// LoadState restores cursors written by SaveState onto a freshly
// constructed kernel with the same Config.
func (k *Kernel) LoadState(rd *checkpoint.Reader) {
	rd.Expect("oskern")
	connSeq := rd.U64()
	skbNext := rd.U64()
	n := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	if n != len(k.ringCur) {
		rd.Failf("oskern: snapshot has %d NIC rings, kernel has %d", n, len(k.ringCur))
		return
	}
	cur := make([]uint64, n)
	for i := range cur {
		cur[i] = rd.U64()
	}
	k.heap.LoadState(rd)
	if rd.Err() != nil {
		return
	}
	k.connSeq.Store(connSeq)
	k.skbNext.Store(skbNext)
	for i := range cur {
		k.ringCur[i].Store(cur[i])
	}
}

// Config scales the kernel model.
type Config struct {
	// NICs is the number of network devices (the measured machine used
	// two gigabit NICs for bandwidth-heavy workloads).
	NICs int
	// PageCacheMB sizes the page cache backing file reads.
	PageCacheMB int
	// ExtraCodeKB adds additional kernel text exercised per syscall,
	// modelling workloads that use wider kernel functionality
	// (traditional databases exercise more of the kernel than scale-out
	// network paths; Section 4.1).
	ExtraCodeKB int
}

// DefaultConfig returns a kernel scaled for the scale-out workloads.
func DefaultConfig() Config { return Config{NICs: 2, PageCacheMB: 16} }

// Conn is one network connection's kernel state.
type Conn struct {
	tcb    uint64 //simlint:ok checkpointcov TCP control block address, construction-time allocation
	sock   uint64 //simlint:ok checkpointcov socket struct address, construction-time allocation
	bucket uint64 //simlint:ok checkpointcov hash bucket the lookup chases through, construction-time allocation
	skbLo  uint64 //simlint:ok checkpointcov private skb-pool window (per-CPU-cache-like), construction-time placement
	skbN   uint64 //simlint:ok checkpointcov construction-time window size
	skbCur uint64
	pcpu   uint64 //simlint:ok checkpointcov per-CPU statistics lines (flushed to globals rarely), construction-time allocation
	calls  uint64
}

// SaveState serializes the connection's moving cursors. The control-block
// addresses are construction-time allocations that OpenConnOn reproduces
// when the owning thread is rebuilt in the same order.
func (c *Conn) SaveState(w *checkpoint.Writer) {
	w.Tag("conn")
	w.U64(c.skbCur)
	w.U64(c.calls)
}

// LoadState restores cursors written by SaveState.
func (c *Conn) LoadState(rd *checkpoint.Reader) {
	rd.Expect("conn")
	c.skbCur = rd.U64()
	c.calls = rd.U64()
}

// New builds a kernel instance.
func New(cfg Config) *Kernel {
	if cfg.NICs <= 0 {
		cfg.NICs = 2
	}
	if cfg.PageCacheMB <= 0 {
		cfg.PageCacheMB = 16
	}
	code := trace.NewCodeLayout(addrspace.KernelCodeBase, addrspace.KernelCodeSize)
	k := &Kernel{heap: addrspace.NewKernelHeap()}

	k.fnSyscall = code.Func("syscall_entry", 160)
	k.fnSysRet = code.Func("syscall_return", 110)
	k.fnSockLook = code.Func("sock_lookup", 220)
	k.fnTCPSend = code.Func("tcp_sendmsg", 900)
	k.fnTCPRecv = code.Func("tcp_recvmsg", 850)
	k.fnIPOut = code.Func("ip_output", 450)
	k.fnIPIn = code.Func("ip_input", 420)
	k.fnDevXmit = code.Func("dev_queue_xmit", 380)
	k.fnSoftirq = code.Func("net_rx_softirq", 700)
	k.fnCopy = code.Func("copy_user_generic", 90)
	k.fnSkbAlloc = code.Func("skb_alloc", 240)
	k.fnVFSRead = code.Func("vfs_read", 600)
	k.fnPageCache = code.Func("page_cache_lookup", 300)
	k.fnSched = code.Func("schedule_tick", 500)
	k.fnPageFault = code.Func("handle_page_fault", 450)
	k.fnSelect = code.Func("sys_epoll_wait", 420)
	k.fnLockPath = code.Func("futex_path", 260)
	if cfg.ExtraCodeKB > 0 {
		// Extra kernel surface is modelled as a wider syscall-entry
		// dispatch region that fetch walks through.
		k.fnSyscall = code.Func("syscall_entry_wide", cfg.ExtraCodeKB*1024/trace.InstBytes)
	}

	k.skbPool = addrspace.NewArray(k.heap, 1024, 2048) // per-CPU slab windows
	k.pcpu = addrspace.NewArray(k.heap, 64, 512)
	k.sockHash = addrspace.NewArray(k.heap, 16384, 64)          // hash buckets
	k.runq = addrspace.NewArray(k.heap, 64, 512)                // per-core runqueues (padded)
	k.stats = k.heap.AllocLines(256)                            // global stats lines
	pages := uint64(cfg.PageCacheMB) << 20 / addrspace.PageSize // page cache
	k.pgCache = addrspace.NewArray(k.heap, pages, addrspace.PageSize)
	k.rings = make([]addrspace.Array, cfg.NICs)
	k.ringCur = make([]atomic.Uint64, cfg.NICs)
	k.nicTail = make([]uint64, cfg.NICs)
	for i := range k.rings {
		k.rings[i] = addrspace.NewArray(k.heap, 512, 16)
		k.nicTail[i] = k.heap.AllocLines(64)
	}
	return k
}

// OpenConn allocates kernel state for one connection, recycling socket
// buffers from CPU pool 0. Prefer OpenConnOn for multi-threaded
// workloads.
func (k *Kernel) OpenConn() *Conn { return k.OpenConnOn(0) }

// OpenConnOn allocates kernel state for one connection whose syscalls
// run on the given CPU (software thread). Socket buffers recycle from a
// small per-CPU slab window, like the kernel's per-CPU caches: the hot
// set stays cache-resident and buffers never migrate between cores.
func (k *Kernel) OpenConnOn(cpu int) *Conn {
	id := k.connSeq.Add(1)
	const win = 16
	lo := (uint64(cpu) * win) % k.skbPool.Len
	return &Conn{
		// Control blocks are padded to cover the span the generic kernel
		// work walks (6 lines), so adjacent connections never overlap.
		tcb:    k.heap.AllocLines(512),
		sock:   k.heap.AllocLines(512),
		bucket: k.sockHash.At(id % k.sockHash.Len),
		skbLo:  lo,
		skbN:   win,
		pcpu:   k.pcpuStats(cpu),
	}
}

// pcpuStats returns the per-CPU statistics block for cpu.
func (k *Kernel) pcpuStats(cpu int) uint64 {
	return k.pcpu.At(uint64(cpu) % k.pcpu.Len)
}

// nextSkb returns the next socket buffer of the connection's private
// window. Real kernels recycle buffers from per-CPU caches, so cross-
// core skb sharing is rare; modelling it that way keeps the kernel's
// read-write sharing dominated by rings and statistics, as observed.
func (c *Conn) nextSkb(k *Kernel) uint64 {
	c.skbCur++
	return k.skbPool.At(c.skbLo + c.skbCur%c.skbN)
}

// work emits n instructions of generic kernel compute: dependent ALU
// work sprinkled with stack and control-structure accesses.
func (k *Kernel) work(e *trace.Emitter, n int, hot uint64) trace.Val {
	v := trace.NoVal
	for n > 0 {
		step := 12
		if step > n {
			step = n
		}
		v = e.ALUChain(step-2, v)
		v = e.Load(hot+uint64(n%6)*64, 8, v, false)
		n -= step
	}
	return v
}

// copyLines emits a line-granular memory copy of n bytes from src to
// dst, the kernel's copy_user path.
func (k *Kernel) copyLines(e *trace.Emitter, src, dst uint64, n int) {
	e.InFunc(k.fnCopy, func() {
		lines := (n + 63) / 64
		for i := 0; i < lines; i++ {
			off := uint64(i) * 64
			v := e.Load(src+off, 64, trace.NoVal, false)
			e.Store(dst+off, 64, v, trace.NoVal)
		}
	})
}

// Send emits the kernel path of sending n bytes on conn from the user
// buffer at userBuf: syscall entry, socket lookup, TCP/IP processing,
// skb allocation from the shared pool, the data copy, device-ring
// insertion and global statistics updates.
func (k *Kernel) Send(e *trace.Emitter, c *Conn, userBuf uint64, n int) {
	e.InKernel(k.fnSyscall, func() {
		k.work(e, 120, c.sock)
		e.InFunc(k.fnSockLook, func() {
			b := e.Load(c.bucket, 8, trace.NoVal, false)
			s := e.Load(c.sock, 8, b, true) // pointer chase to socket
			e.ALUChain(8, s)
		})
		e.InFunc(k.fnTCPSend, func() {
			t := e.Load(c.tcb, 8, trace.NoVal, false)
			k.work(e, 350, c.tcb)
			e.Store(c.tcb+64, 8, t, trace.NoVal) // advance send seq

			for seg := 0; seg < (n+1459)/1460; seg++ {
				segBytes := n - seg*1460
				if segBytes > 1460 {
					segBytes = 1460
				}
				var skb uint64
				e.InFunc(k.fnSkbAlloc, func() {
					skb = c.nextSkb(k)
					h := e.Load(skb, 8, trace.NoVal, false)
					e.Store(skb+8, 8, h, trace.NoVal)
					e.ALUChain(10, h)
				})
				k.copyLines(e, userBuf+uint64(seg)*1460, skb+64, segBytes)
				e.InFunc(k.fnIPOut, func() {
					k.work(e, 160, skb)
					e.Store(skb+16, 8, trace.NoVal, trace.NoVal)
				})
				e.InFunc(k.fnDevXmit, func() {
					// Multi-queue NIC: each connection hashes to a TX queue
					// region, so descriptor lines rarely bounce between
					// cores (receive-side scaling, Section 3).
					nic := int(c.tcb>>6) % len(k.rings)
					slot := ((c.tcb*0x9e3779b97f4a7c15)>>40 + c.skbCur*4) % k.rings[nic].Len
					d := e.Load(k.rings[nic].At(slot), 8, trace.NoVal, false)
					e.Store(k.rings[nic].At(slot), 16, d, trace.NoVal)
					k.work(e, 90, skb)
				})
			}
		})
		e.InFunc(k.fnSysRet, func() { k.work(e, 70, c.sock) })
	})
}

// Recv emits the kernel path of receiving n bytes on conn into userBuf:
// softirq protocol processing on the device ring, socket demux, and the
// copy to user space.
func (k *Kernel) Recv(e *trace.Emitter, c *Conn, userBuf uint64, n int) {
	e.InKernel(k.fnSoftirq, func() {
		nic := int(c.tcb>>6) % len(k.rings)
		slot := ((c.tcb*0x9e3779b97f4a7c15)>>40 + c.skbCur*4) % k.rings[nic].Len
		d := e.Load(k.rings[nic].At(slot), 16, trace.NoVal, false)
		e.ALUChain(12, d)
		e.InFunc(k.fnIPIn, func() { k.work(e, 150, c.sock) })
		e.InFunc(k.fnSockLook, func() {
			b := e.Load(c.bucket, 8, trace.NoVal, false)
			s := e.Load(c.sock, 8, b, true)
			e.ALUChain(8, s)
		})
	})
	e.InKernel(k.fnSyscall, func() {
		k.work(e, 110, c.sock)
		e.InFunc(k.fnTCPRecv, func() {
			t := e.Load(c.tcb, 8, trace.NoVal, false)
			k.work(e, 300, c.tcb)
			e.Store(c.tcb+128, 8, t, trace.NoVal)
			for seg := 0; seg < (n+1459)/1460; seg++ {
				segBytes := n - seg*1460
				if segBytes > 1460 {
					segBytes = 1460
				}
				skb := c.nextSkb(k)
				k.copyLines(e, skb+64, userBuf+uint64(seg)*1460, segBytes)
			}
			c.calls++
			pv := e.Load(c.pcpu+64, 8, trace.NoVal, false)
			e.Store(c.pcpu+64, 8, pv, trace.NoVal)
			if c.calls%24 == 0 {
				sv := e.Load(k.stats+128, 8, trace.NoVal, false)
				e.Store(k.stats+128, 8, sv, trace.NoVal)
			}
		})
		e.InFunc(k.fnSysRet, func() { k.work(e, 70, c.sock) })
	})
}

// Poll emits an epoll_wait-style readiness check.
func (k *Kernel) Poll(e *trace.Emitter, c *Conn) {
	e.InKernel(k.fnSelect, func() {
		k.work(e, 180, c.sock)
		v := e.Load(c.sock+64, 8, trace.NoVal, false)
		e.ALUChain(6, v)
	})
}

// FileRead emits the page-cache read path for n bytes at offset off of
// a file, copying into userBuf. The experimental setup backs storage
// with remote RAM disks (Section 3.4), so reads always hit the page
// cache; cache lines still miss if the page fell out of the CPU caches.
func (k *Kernel) FileRead(e *trace.Emitter, fileID uint64, off uint64, userBuf uint64, n int) {
	e.InKernel(k.fnSyscall, func() {
		inode := k.sockHash.At(fileID % k.sockHash.Len)
		k.work(e, 100, inode)
		e.InFunc(k.fnVFSRead, func() {
			k.work(e, 220, inode)
			read := 0
			for read < n {
				pageIdx := (fileID*131 + (off+uint64(read))/addrspace.PageSize) % k.pgCache.Len
				page := k.pgCache.At(pageIdx)
				e.InFunc(k.fnPageCache, func() {
					r := e.Load(page, 8, trace.NoVal, false)
					e.ALUChain(12, r)
				})
				chunk := n - read
				if int(addrspace.PageSize) < chunk {
					chunk = int(addrspace.PageSize)
				}
				k.copyLines(e, page+(off+uint64(read))%addrspace.PageSize, userBuf+uint64(read), chunk)
				read += chunk
			}
		})
		e.InFunc(k.fnSysRet, func() { k.work(e, 70, inode) })
	})
}

// SchedTick emits one timer-interrupt/scheduler pass on core's runqueue.
func (k *Kernel) SchedTick(e *trace.Emitter, core int) {
	e.InKernel(k.fnSched, func() {
		rq := k.runq.At(uint64(core) % k.runq.Len)
		v := e.Load(rq, 8, trace.NoVal, false)
		k.work(e, 260, rq)
		e.Store(rq+8, 8, v, trace.NoVal)
	})
}

// Futex emits a contended-lock kernel path on the given lock address,
// used by the lock-heavy traditional database workloads.
func (k *Kernel) Futex(e *trace.Emitter, lockAddr uint64) {
	e.InKernel(k.fnLockPath, func() {
		v := e.Load(lockAddr, 8, trace.NoVal, false)
		e.Store(lockAddr, 8, v, trace.NoVal)
		k.work(e, 140, lockAddr)
	})
}

// PageFault emits a minor page-fault handling path.
func (k *Kernel) PageFault(e *trace.Emitter, addr uint64) {
	e.InKernel(k.fnPageFault, func() {
		k.work(e, 320, addrspace.PageOf(addr))
	})
}
