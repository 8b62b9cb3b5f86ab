package store

import (
	"fmt"

	"dpstore/internal/block"
)

// Pool is a BatchServer that multiplexes operations over N independent
// connections to one block server, so many goroutine clients — for
// example, the DP-RAM or DP-IR instances of distinct users sharing a
// daemon — issue requests concurrently instead of serializing on a single
// Remote's request/response lock. An idle connection is claimed per call
// and returned when the call completes; with C concurrent callers and N
// connections, min(C, N) requests are in flight at once and the rest queue
// fairly on the pool instead of head-of-line blocking behind one socket.
//
// All connections speak to the same namespace, so a Pool is shape-stable:
// Size and BlockSize are pinned at construction. A Pool is safe for
// concurrent use; Close it only after all operations have returned.
type Pool struct {
	idle      chan *Remote
	all       []*Remote
	size      int
	blockSize int
	epoch     uint64

	// retry, when set via SetRetryPolicy, re-runs busy-shed operations
	// (see retry.go). Each attempt claims a fresh connection, so a client
	// backing off releases its pool slot while it sleeps.
	retry *retrier
}

// run executes op on a claimed connection under the pool's retry policy.
// The connection is claimed per attempt, not per operation: between busy
// retries the slot goes back to the idle set for other callers.
func (p *Pool) run(op func(r *Remote) error) error {
	attempt := func() error {
		r := p.get()
		defer p.put(r)
		return op(r)
	}
	if p.retry == nil {
		return attempt()
	}
	return p.retry.do(attempt)
}

// NewPool builds a pool of conns connections, each produced by dial. Use
// it to pool namespace-opened connections:
//
//	NewPool(8, func() (*Remote, error) {
//		return DialNamespace(addr, "tenant-42", slots, blockSize)
//	})
//
// All dialed connections must report one shape (they are expected to
// target the same store). On any dial error the already-opened connections
// are closed and the error returned.
func NewPool(conns int, dial func() (*Remote, error)) (*Pool, error) {
	if conns <= 0 {
		return nil, fmt.Errorf("store: pool needs at least one connection, got %d", conns)
	}
	p := &Pool{idle: make(chan *Remote, conns), all: make([]*Remote, 0, conns)}
	for i := 0; i < conns; i++ {
		r, err := dial()
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("store: dialing pool connection %d: %w", i, err)
		}
		if i == 0 {
			p.size, p.blockSize, p.epoch = r.Size(), r.BlockSize(), r.Epoch()
		} else if r.Size() != p.size || r.BlockSize() != p.blockSize {
			r.Close()
			p.Close()
			return nil, fmt.Errorf("store: pool connection %d has shape %d × %d, want %d × %d",
				i, r.Size(), r.BlockSize(), p.size, p.blockSize)
		} else if r.Epoch() != p.epoch {
			// The server restarted between two of our dials: the pool would
			// straddle a recovery boundary, with some connections' written
			// state possibly rolled back under the others. Refuse; the
			// caller re-dials against the (now stable) new epoch.
			r.Close()
			p.Close()
			return nil, fmt.Errorf("store: pool connection %d reports epoch %d, connection 0 saw %d (server restarted mid-dial)",
				i, r.Epoch(), p.epoch)
		}
		p.all = append(p.all, r)
		p.idle <- r
	}
	return p, nil
}

// DialPool connects a pool of conns connections to the default namespace
// of the block server at addr.
func DialPool(addr string, conns int) (*Pool, error) {
	return NewPool(conns, func() (*Remote, error) { return Dial(addr) })
}

// DialNamespacePool connects a pool of conns connections, all opened onto
// the named namespace (see DialNamespace for the slots/blockSize
// semantics).
func DialNamespacePool(addr, name string, slots, blockSize, conns int) (*Pool, error) {
	return NewPool(conns, func() (*Remote, error) {
		return DialNamespace(addr, name, slots, blockSize)
	})
}

// get claims an idle connection, blocking until one frees up.
func (p *Pool) get() *Remote { return <-p.idle }

// put returns a connection to the idle set.
func (p *Pool) put(r *Remote) { p.idle <- r }

// Download implements Server.
func (p *Pool) Download(addr int) (block.Block, error) {
	var out block.Block
	err := p.run(func(r *Remote) error {
		var err error
		out, err = r.Download(addr)
		return err
	})
	return out, err
}

// Upload implements Server. Like WriteBatch it returns only once the
// server has acknowledged the write.
func (p *Pool) Upload(addr int, b block.Block) error {
	return p.run(func(r *Remote) error { return r.upload(addr, b, true) })
}

// ReadBatch implements BatchServer; the whole batch rides one connection
// (one round trip up to the frame ceiling, like Remote).
func (p *Pool) ReadBatch(addrs []int) ([]block.Block, error) {
	var out []block.Block
	err := p.run(func(r *Remote) error {
		var err error
		out, err = r.ReadBatch(addrs)
		return err
	})
	return out, err
}

// WriteBatch implements BatchServer. The ack is awaited before the
// connection goes back to the idle set — a Remote's posted writes are
// ordered only against later calls on the same connection, and the pool's
// next call may ride any of them — so nil means the server has applied the
// batch, and a rejected or shed write fails this call, not a later one.
func (p *Pool) WriteBatch(ops []WriteOp) error {
	return p.run(func(r *Remote) error { return r.writeBatch(ops, true) })
}

// Size implements Server.
func (p *Pool) Size() int { return p.size }

// BlockSize implements Server.
func (p *Pool) BlockSize() int { return p.blockSize }

// Conns returns the pool width N.
func (p *Pool) Conns() int { return len(p.all) }

// Epoch returns the server recovery epoch every pooled connection
// handshook against (NewPool rejects a mid-dial epoch change).
func (p *Pool) Epoch() uint64 { return p.epoch }

// RoundTrips sums the round trips of every pooled connection (including
// handshakes).
func (p *Pool) RoundTrips() int64 {
	var total int64
	for _, r := range p.all {
		total += r.RoundTrips()
	}
	return total
}

// Close closes every pooled connection. In-flight operations on other
// goroutines will fail; callers should quiesce first.
func (p *Pool) Close() error {
	var first error
	for _, r := range p.all {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
