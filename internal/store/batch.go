package store

import (
	"sync"

	"dpstore/internal/block"
)

// WriteOp is one element of a WriteBatch: store Block at Addr. Ops apply in
// order, so a batch containing the same address twice leaves the later
// block behind — exactly as the equivalent Upload sequence would.
type WriteOp struct {
	Addr  int
	Block block.Block
}

// BatchServer extends Server with multi-block operations. A batch is
// transcript-equivalent to issuing its operations one by one — the same
// multiset of (op, address) pairs reaches the server, so the paper's DP and
// obliviousness arguments are unaffected — but it crosses the client–server
// boundary once instead of N times. Over the wire (Remote) that collapses N
// round trips into one; locally it amortizes lock acquisitions (Mem) and
// coalesces disk I/O (File).
//
// Addresses may repeat within a batch. ReadBatch returns independent copies
// in request order. On error, WriteBatch may have applied a prefix of its
// ops (mirroring the per-op equivalent, which also stops at the failure).
type BatchServer interface {
	Server
	// ReadBatch returns copies of the blocks at addrs, in order.
	ReadBatch(addrs []int) ([]block.Block, error)
	// WriteBatch applies ops in order.
	WriteBatch(ops []WriteOp) error
}

// AsBatch returns s as a BatchServer: s itself when it implements the
// interface natively, otherwise a loop adapter. The adapter issues the
// batch's operations one by one in order, so metering and transcript
// recording wrappers that only implement Server observe the exact
// per-operation view the paper's model is stated in.
func AsBatch(s Server) BatchServer {
	if b, ok := s.(BatchServer); ok {
		return b
	}
	return &loopBatch{s}
}

// PerBlock hides any native batch support of s, forcing AsBatch back onto
// the one-op-per-call path. Benchmarks and tests use it to compare batched
// and per-block execution of the same construction against the same server.
func PerBlock(s Server) Server { return perBlockOnly{s} }

type perBlockOnly struct{ Server }

func (p perBlockOnly) Flush() error { return Flush(p.Server) }

type loopBatch struct{ Server }

func (l *loopBatch) Flush() error { return Flush(l.Server) }

func (l *loopBatch) ReadBatch(addrs []int) ([]block.Block, error) {
	out := make([]block.Block, len(addrs))
	for i, a := range addrs {
		b, err := l.Download(a)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (l *loopBatch) WriteBatch(ops []WriteOp) error {
	for _, op := range ops {
		if err := l.Upload(op.Addr, op.Block); err != nil {
			return err
		}
	}
	return nil
}

// ScanWindow bounds how many blocks the window helpers below materialize
// client-side at once: a full scan or bulk setup issues ⌈n/ScanWindow⌉
// batch calls and folds each window before the next, keeping client memory
// O(window) at any database size while preserving the batched-I/O win.
const ScanWindow = 4096

// ReadWindows fetches addrs through s in ScanWindow-bounded batches,
// calling fn(start, blocks) per window with start the window's offset into
// addrs. Used by constructions whose per-query address set can be large
// (linear scans, low-ε DP-IR decoy sets).
func ReadWindows(s BatchServer, addrs []int, fn func(start int, blocks []block.Block) error) error {
	for start := 0; start < len(addrs); start += ScanWindow {
		end := start + ScanWindow
		if end > len(addrs) {
			end = len(addrs)
		}
		blocks, err := s.ReadBatch(addrs[start:end])
		if err != nil {
			return err
		}
		if err := fn(start, blocks); err != nil {
			return err
		}
	}
	return nil
}

// ScanRange runs the full scan 0..n-1 through ReadWindows-style windows
// without ever materializing the O(n) address set; fn receives each
// window's base address and blocks.
func ScanRange(s BatchServer, n int, fn func(base int, blocks []block.Block) error) error {
	buf := make([]int, 0, ScanWindow)
	for base := 0; base < n; base += ScanWindow {
		end := base + ScanWindow
		if end > n {
			end = n
		}
		buf = buf[:0]
		for a := base; a < end; a++ {
			buf = append(buf, a)
		}
		blocks, err := s.ReadBatch(buf)
		if err != nil {
			return err
		}
		if err := fn(base, blocks); err != nil {
			return err
		}
	}
	return nil
}

// Concurrently runs f(0), …, f(n−1) in parallel goroutines, waits for all
// of them, and returns the lowest-index error. Multi-server constructions
// use it to fan one request out across independent, non-colluding servers:
// latency becomes one round trip to the slowest server instead of the sum
// of n sequential trips. Callers must flip any client coins before calling
// so the coin-draw order stays deterministic.
func Concurrently(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flusher is implemented by servers whose WriteBatch/Upload may return
// before the write is known to have landed (a Remote posts its writes; a
// proxy.Pipeline queues them). Flush blocks until every write accepted so
// far has been applied by the store underneath, or returns why one was not.
type Flusher interface {
	Flush() error
}

// Flush is the write barrier for any Server: s.Flush() when s is a
// Flusher, a no-op for servers whose writes are already applied when they
// return. The wrappers in this package forward it to what they wrap.
func Flush(s Server) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// BatchWriter accumulates WriteOps and flushes a WriteBatch every
// ScanWindow ops — the bounded-memory bulk-upload path the constructions'
// setup routines share. Callers must Flush at the end; once that returns
// nil the server has everything that was added.
type BatchWriter struct {
	s   BatchServer
	ops []WriteOp
}

// NewBatchWriter returns a writer buffering onto s. Its window is never
// larger than the store: a setup uploads each slot once, so a small store
// never fills a ScanWindow.
func NewBatchWriter(s BatchServer) *BatchWriter {
	return &BatchWriter{s: s, ops: make([]WriteOp, 0, min(ScanWindow, s.Size()))}
}

// Add buffers one op, flushing if the window is full.
func (w *BatchWriter) Add(addr int, b block.Block) error {
	w.ops = append(w.ops, WriteOp{Addr: addr, Block: b})
	if len(w.ops) == ScanWindow {
		return w.write()
	}
	return nil
}

// Flush writes the buffered ops, if any, and waits for the server to have
// applied them and every earlier window (see Flusher).
func (w *BatchWriter) Flush() error {
	if err := w.write(); err != nil {
		return err
	}
	return Flush(w.s)
}

// write hands the buffered window to the server.
func (w *BatchWriter) write() error {
	if len(w.ops) == 0 {
		return nil
	}
	err := w.s.WriteBatch(w.ops)
	w.ops = w.ops[:0]
	return err
}
