package store

import (
	"fmt"

	"dpstore/internal/block"
)

// Offset is a BatchServer view of a contiguous sub-range of another
// store: addresses [0, n) map to [base, base+n) of the inner store. It is
// how P partitioned scheme instances share ONE physical backend (file,
// sharded, durable engine, or replica cluster) without seeing each
// other's slots: the daemon carves the total physical address space into
// per-partition windows and hands each scheme its own Offset view, so the
// file/sharded/replicated composition underneath applies once, not per
// partition.
//
// The view adds no locking of its own — the inner store's concurrency
// contract carries through unchanged, which is exactly what the
// partitioned proxy needs (per-partition schedulers issuing overlapping
// batches into one shard-locked or pooled backend).
type Offset struct {
	inner BatchServer
	base  int
	n     int
}

// NewOffset returns the [base, base+n) window of inner. The window must
// lie entirely inside the inner store.
func NewOffset(inner BatchServer, base, n int) (*Offset, error) {
	if base < 0 || n <= 0 || base+n > inner.Size() {
		return nil, fmt.Errorf("store: offset window [%d,%d) outside store of %d slots", base, base+n, inner.Size())
	}
	return &Offset{inner: inner, base: base, n: n}, nil
}

// check validates a window-local address.
func (o *Offset) check(addr int) error {
	if addr < 0 || addr >= o.n {
		return fmt.Errorf("store: address %d out of range [0,%d)", addr, o.n)
	}
	return nil
}

// Download implements Server.
func (o *Offset) Download(addr int) (block.Block, error) {
	if err := o.check(addr); err != nil {
		return nil, err
	}
	return o.inner.Download(o.base + addr)
}

// Upload implements Server.
func (o *Offset) Upload(addr int, b block.Block) error {
	if err := o.check(addr); err != nil {
		return err
	}
	return o.inner.Upload(o.base+addr, b)
}

// ReadBatch implements BatchServer. The translated address slice is a
// fresh allocation per call: the window is driven by at most a handful of
// long-lived goroutines (a partition's scheduler and pipeline writer),
// never a per-request hot path.
func (o *Offset) ReadBatch(addrs []int) ([]block.Block, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	shifted := make([]int, len(addrs))
	for i, a := range addrs {
		if err := o.check(a); err != nil {
			return nil, err
		}
		shifted[i] = o.base + a
	}
	return o.inner.ReadBatch(shifted)
}

// WriteBatch implements BatchServer. The caller's ops are never mutated:
// the translated batch is staged in a fresh slice.
func (o *Offset) WriteBatch(ops []WriteOp) error {
	if len(ops) == 0 {
		return nil
	}
	shifted := make([]WriteOp, len(ops))
	for i, op := range ops {
		if err := o.check(op.Addr); err != nil {
			return err
		}
		shifted[i] = WriteOp{Addr: o.base + op.Addr, Block: op.Block}
	}
	return o.inner.WriteBatch(shifted)
}

// Flush implements Flusher by forwarding to the inner store.
func (o *Offset) Flush() error { return Flush(o.inner) }

// Size implements Server: the window length, not the inner store's size.
func (o *Offset) Size() int { return o.n }

// BlockSize implements Server.
func (o *Offset) BlockSize() int { return o.inner.BlockSize() }

// Base returns the window's first inner-store address.
func (o *Offset) Base() int { return o.base }
