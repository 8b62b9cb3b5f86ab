// Package store implements the passive storage server of the paper's model.
//
// Definition 3.1 restricts client–server interaction to two moves: download
// the ball at a server address, and upload a ball to a server address. The
// Server interface is exactly that. The package ships four implementations:
//
//   - Mem: an in-memory array, the workhorse for experiments;
//   - File: a disk-backed array (one fixed-size slot per record);
//   - Counting: a wrapper that meters operations and bytes, giving the
//     "overhead" columns of every experiment table;
//   - Remote: a TCP client speaking the wire protocol of package wire,
//     paired with Serve, so the constructions run unchanged against a real
//     networked server (cmd/blockstored).
//
// Because the server is passive, any Server implementation is automatically
// consistent with the balls-and-bins lower bounds: the transcript of an
// execution is precisely the sequence of Download/Upload calls.
package store

import (
	"errors"
	"fmt"
	"sync"

	"dpstore/internal/block"
)

// ErrAddr reports an out-of-range server address.
var ErrAddr = errors.New("store: address out of range")

// Server is the passive storage party server_m of Definition 3.1. Addresses
// are zero-based. Implementations must be safe for concurrent use.
type Server interface {
	// Download returns a copy of the block at addr.
	Download(addr int) (block.Block, error)
	// Upload stores a copy of b at addr.
	Upload(addr int, b block.Block) error
	// Size returns the number of addressable slots m.
	Size() int
	// BlockSize returns the fixed slot size in bytes.
	BlockSize() int
}

// Mem is an in-memory Server.
type Mem struct {
	mu        sync.RWMutex
	blockSize int
	slots     []block.Block
}

// NewMem creates an in-memory server with n zeroed slots of blockSize bytes.
func NewMem(n, blockSize int) (*Mem, error) {
	if n <= 0 {
		return nil, fmt.Errorf("store: slot count %d must be positive", n)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("store: block size %d must be positive", blockSize)
	}
	m := &Mem{blockSize: blockSize, slots: make([]block.Block, n)}
	for i := range m.slots {
		m.slots[i] = block.New(blockSize)
	}
	return m, nil
}

// NewMemFrom creates an in-memory server initialized with the blocks of db.
// The server copies the database, so later mutation of db is invisible.
func NewMemFrom(db *block.Database) (*Mem, error) {
	m, err := NewMem(db.Len(), db.BlockSize())
	if err != nil {
		return nil, err
	}
	for i := 0; i < db.Len(); i++ {
		copy(m.slots[i], db.Get(i))
	}
	return m, nil
}

// Download implements Server.
func (m *Mem) Download(addr int) (block.Block, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if addr < 0 || addr >= len(m.slots) {
		return nil, fmt.Errorf("%w: %d (size %d)", ErrAddr, addr, len(m.slots))
	}
	return m.slots[addr].Copy(), nil
}

// Upload implements Server.
func (m *Mem) Upload(addr int, b block.Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr < 0 || addr >= len(m.slots) {
		return fmt.Errorf("%w: %d (size %d)", ErrAddr, addr, len(m.slots))
	}
	if len(b) != m.blockSize {
		return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(b), m.blockSize)
	}
	copy(m.slots[addr], b)
	return nil
}

// ReadBatch implements BatchServer under a single lock acquisition. The
// returned blocks are carved from one slab (two allocations per batch, not
// one per block); see slab.go for the ownership rules.
func (m *Mem) ReadBatch(addrs []int) ([]block.Block, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, a := range addrs {
		if a < 0 || a >= len(m.slots) {
			return nil, fmt.Errorf("%w: %d (size %d)", ErrAddr, a, len(m.slots))
		}
	}
	out := newSlab(len(addrs), m.blockSize)
	for i, a := range addrs {
		copy(out[i], m.slots[a])
	}
	return out, nil
}

// AppendReadBatch implements BatchAppender: the serve loop's zero-copy read
// path appends the requested slots directly onto the response buffer, under
// the same single lock acquisition as ReadBatch. All addresses are
// validated before any byte is appended, so dst is returned unchanged on
// error.
func (m *Mem) AppendReadBatch(dst []byte, addrs []int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, a := range addrs {
		if a < 0 || a >= len(m.slots) {
			return dst, fmt.Errorf("%w: %d (size %d)", ErrAddr, a, len(m.slots))
		}
	}
	for _, a := range addrs {
		dst = append(dst, m.slots[a]...)
	}
	return dst, nil
}

// WriteBatch implements BatchServer under a single lock acquisition. All
// ops are validated before any slot is written, so a failed batch leaves
// the store untouched.
func (m *Mem) WriteBatch(ops []WriteOp) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range ops {
		if op.Addr < 0 || op.Addr >= len(m.slots) {
			return fmt.Errorf("%w: %d (size %d)", ErrAddr, op.Addr, len(m.slots))
		}
		if len(op.Block) != m.blockSize {
			return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(op.Block), m.blockSize)
		}
	}
	for _, op := range ops {
		copy(m.slots[op.Addr], op.Block)
	}
	return nil
}

// Size implements Server.
func (m *Mem) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.slots)
}

// BlockSize implements Server.
func (m *Mem) BlockSize() int { return m.blockSize }

// Stats is a snapshot of the traffic a Counting server has seen.
type Stats struct {
	Downloads     int64
	Uploads       int64
	BytesDown     int64
	BytesUp       int64
	TouchedUnique int // distinct addresses operated on since the last Reset
}

// Ops returns total operations (downloads + uploads), the paper's unit of
// overhead.
func (s Stats) Ops() int64 { return s.Downloads + s.Uploads }

// Counting wraps a Server and meters its traffic. All experiment tables are
// produced by sandwiching a Counting server between a construction and its
// backing store.
type Counting struct {
	inner Server
	batch BatchServer // inner's batch view; the loop adapter when not native

	mu      sync.Mutex
	stats   Stats
	touched map[int]struct{}
}

// NewCounting wraps inner with a fresh meter.
func NewCounting(inner Server) *Counting {
	return &Counting{inner: inner, batch: AsBatch(inner), touched: make(map[int]struct{})}
}

// Download implements Server.
func (c *Counting) Download(addr int) (block.Block, error) {
	b, err := c.inner.Download(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Downloads++
	c.stats.BytesDown += int64(len(b))
	c.touched[addr] = struct{}{}
	c.mu.Unlock()
	return b, nil
}

// Upload implements Server.
func (c *Counting) Upload(addr int, b block.Block) error {
	if err := c.inner.Upload(addr, b); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Uploads++
	c.stats.BytesUp += int64(len(b))
	c.touched[addr] = struct{}{}
	c.mu.Unlock()
	return nil
}

// ReadBatch implements BatchServer, metering the batch as len(addrs)
// downloads — one block operation per address, the paper's unit of
// overhead — so batched and per-block executions of the same access
// pattern report identical Stats.
//
// A batch that fails is metered as zero operations, like a failed
// Download. (A per-block caller meters the successful prefix before the
// failing op; the batch layer cannot see how far the inner server got, so
// Stats diverge from the per-block equivalent only on failed batches —
// never on any completed access.)
func (c *Counting) ReadBatch(addrs []int) ([]block.Block, error) {
	blocks, err := c.batch.ReadBatch(addrs)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for i, a := range addrs {
		c.stats.Downloads++
		c.stats.BytesDown += int64(len(blocks[i]))
		c.touched[a] = struct{}{}
	}
	c.mu.Unlock()
	return blocks, nil
}

// WriteBatch implements BatchServer, metered as len(ops) uploads.
func (c *Counting) WriteBatch(ops []WriteOp) error {
	if err := c.batch.WriteBatch(ops); err != nil {
		return err
	}
	c.mu.Lock()
	for _, op := range ops {
		c.stats.Uploads++
		c.stats.BytesUp += int64(len(op.Block))
		c.touched[op.Addr] = struct{}{}
	}
	c.mu.Unlock()
	return nil
}

// Flush implements Flusher by forwarding to the inner store.
func (c *Counting) Flush() error { return Flush(c.inner) }

// Size implements Server.
func (c *Counting) Size() int { return c.inner.Size() }

// BlockSize implements Server.
func (c *Counting) BlockSize() int { return c.inner.BlockSize() }

// Stats returns a snapshot of the meter.
func (c *Counting) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.TouchedUnique = len(c.touched)
	return s
}

// Reset zeroes the meter.
func (c *Counting) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
	c.touched = make(map[int]struct{})
}
