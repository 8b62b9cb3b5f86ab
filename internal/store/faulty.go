package store

import (
	"errors"
	"sync"

	"dpstore/internal/block"
)

// ErrInjected is the default failure returned by a Faulty server.
var ErrInjected = errors.New("store: injected fault")

// Faulty wraps a Server and fails a chosen operation, for fault-injection
// tests: constructions must surface server failures as errors (never
// panic, never silently corrupt), and test suites use Faulty to prove it
// at every operation offset.
type Faulty struct {
	inner Server
	batch BatchServer // inner's batch view; the loop adapter when not native

	mu        sync.Mutex
	count     int64
	failAt    int64 // 1-based operation index to fail; 0 disables
	failEvery bool  // fail failAt and every operation after it
	err       error
}

// NewFaulty wraps inner; the returned server fails operation number failAt
// (1-based, counting downloads and uploads together) with err. A zero
// failAt never fails; a nil err uses ErrInjected.
func NewFaulty(inner Server, failAt int64, err error) *Faulty {
	if err == nil {
		err = ErrInjected
	}
	return &Faulty{inner: inner, batch: AsBatch(inner), failAt: failAt, err: err}
}

// FailFrom makes every operation at or after failAt fail (a crashed
// server rather than a transient blip).
func (f *Faulty) FailFrom() *Faulty {
	f.mu.Lock()
	f.failEvery = true
	f.mu.Unlock()
	return f
}

// Ops returns the number of operations attempted so far.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

func (f *Faulty) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.failAt == 0 {
		return nil
	}
	if f.count == f.failAt || (f.failEvery && f.count > f.failAt) {
		return f.err
	}
	return nil
}

// Download implements Server.
func (f *Faulty) Download(addr int) (block.Block, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.inner.Download(addr)
}

// Upload implements Server.
func (f *Faulty) Upload(addr int, b block.Block) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Upload(addr, b)
}

// ReadBatch implements BatchServer. Each address in the batch counts as
// one operation against the fault schedule, so a test tuned to "fail the
// k-th block operation" trips at the same point whether the construction
// runs batched or per-block.
func (f *Faulty) ReadBatch(addrs []int) ([]block.Block, error) {
	for range addrs {
		if err := f.tick(); err != nil {
			return nil, err
		}
	}
	return f.batch.ReadBatch(addrs)
}

// WriteBatch implements BatchServer, ticking once per op. When the fault
// fires at op k, the preceding k ops are still applied — matching the
// per-block equivalent, where uploads before the failure have already
// landed.
func (f *Faulty) WriteBatch(ops []WriteOp) error {
	for k := range ops {
		if err := f.tick(); err != nil {
			if k > 0 {
				if werr := f.batch.WriteBatch(ops[:k]); werr != nil {
					return werr
				}
			}
			return err
		}
	}
	return f.batch.WriteBatch(ops)
}

// Flush implements Flusher by forwarding to the inner store; a barrier is
// not an operation and never ticks the fault counter.
func (f *Faulty) Flush() error { return Flush(f.inner) }

// Size implements Server.
func (f *Faulty) Size() int { return f.inner.Size() }

// BlockSize implements Server.
func (f *Faulty) BlockSize() int { return f.inner.BlockSize() }
