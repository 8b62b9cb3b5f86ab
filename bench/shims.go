package main

import (
	"net"
	"sync/atomic"

	"dpstore/internal/block"
	"dpstore/internal/proxy"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// The shims below bracket the seams the program already exposes. Each one
// forwards every call unchanged; with a tracer attached it records a span
// around the call, parented through cursors to the span of the layer above.
// None of them looks at addresses or data.

// seam records the spans of one layer boundary. Its methods are no-ops on
// a nil tracer, so a shim costs an untraced run a nil check.
type seam struct {
	tr    *tracer
	layer layerID
}

// enter opens a span under the context the layer above published in up and
// publishes the new span to the layer below through down (nil at the
// bottom). It returns -1 when the access is not being traced.
func (s seam) enter(op spanOp, up, down *cursor) int32 {
	if s.tr == nil {
		return -1
	}
	ctx := up.load()
	if ctx == 0 {
		return -1
	}
	idx, child := s.tr.begin(s.layer, op, ctx)
	if idx >= 0 && down != nil {
		down.store(child)
	}
	return idx
}

func (s seam) exit(idx int32, down *cursor) {
	if idx < 0 {
		return
	}
	if down != nil {
		down.store(0)
	}
	s.tr.end(idx)
}

// background opens an unparented span for work that serves no single
// access: a write-behind flush, a checkpoint's marshalling. End it with
// exit(idx, nil).
func (s seam) background(op spanOp) int32 {
	if s.tr == nil || !s.tr.on.Load() {
		return -1
	}
	idx, _ := s.tr.begin(s.layer, op, 0)
	return idx
}

// blockShim sits on a store.BatchServer seam. It always counts the blocks
// that cross it (that count is blocks_per_access, exact, and costs two
// atomic adds); spans are recorded only on a traced run, for sampled
// accesses.
type blockShim struct {
	seam
	inner store.BatchServer
	up    *cursor // context published by the layer above
	down  *cursor // context published to the layer below; nil at the bottom
	// bgWrites marks a seam whose WriteBatch calls arrive from a background
	// goroutine (the pipeline's write-behind flush): they belong to no
	// single access and are recorded unparented.
	bgWrites bool

	reads, writes atomic.Int64 // blocks
}

func (s *blockShim) ReadBatch(addrs []int) ([]block.Block, error) {
	s.reads.Add(int64(len(addrs)))
	idx := s.enter(spanReadBatch, s.up, s.down)
	out, err := s.inner.ReadBatch(addrs)
	s.exit(idx, s.down)
	return out, err
}

func (s *blockShim) WriteBatch(ops []store.WriteOp) error {
	s.writes.Add(int64(len(ops)))
	if s.bgWrites {
		idx := s.background(spanWriteBatch)
		err := s.inner.WriteBatch(ops)
		s.exit(idx, nil)
		return err
	}
	idx := s.enter(spanWriteBatch, s.up, s.down)
	err := s.inner.WriteBatch(ops)
	s.exit(idx, s.down)
	return err
}

func (s *blockShim) Download(addr int) (block.Block, error) {
	s.reads.Add(1)
	idx := s.enter(spanDownload, s.up, s.down)
	out, err := s.inner.Download(addr)
	s.exit(idx, s.down)
	return out, err
}

func (s *blockShim) Upload(addr int, b block.Block) error {
	s.writes.Add(1)
	idx := s.enter(spanUpload, s.up, s.down)
	err := s.inner.Upload(addr, b)
	s.exit(idx, s.down)
	return err
}

func (s *blockShim) Size() int      { return s.inner.Size() }
func (s *blockShim) BlockSize() int { return s.inner.BlockSize() }
func (s *blockShim) blocks() int64  { return s.reads.Load() + s.writes.Load() }

// appenderShim is a blockShim over a backing that also has the serve loop's
// zero-copy read path (store.Mem): it must offer the same path, or wrapping
// the backing would push the serve loop onto its slower fallback and the
// traced run would measure a different program.
type appenderShim struct {
	blockShim
	app store.BatchAppender
}

func (s *appenderShim) AppendReadBatch(dst []byte, addrs []int) ([]byte, error) {
	s.reads.Add(int64(len(addrs)))
	idx := s.enter(spanReadBatch, s.up, s.down)
	out, err := s.app.AppendReadBatch(dst, addrs)
	s.exit(idx, s.down)
	return out, err
}

// schemeShim sits on the proxy.DurableScheme seam around the DP-RAM or
// Path ORAM client. An access finds its context by the client that owns
// the index (index mod clients); MarshalState runs once per checkpoint, for
// a whole burst of accesses, and is recorded unparented.
type schemeShim struct {
	seam
	inner proxy.DurableScheme
	up    []*cursor // per client
	down  *cursor

	marshals, marshalBytes atomic.Int64
}

func (s *schemeShim) N() int          { return s.inner.N() }
func (s *schemeShim) RecordSize() int { return s.inner.RecordSize() }

func (s *schemeShim) Access(q workload.Query) (block.Block, error) {
	idx := s.enter(spanAccess, s.up[q.Index%len(s.up)], s.down)
	out, err := s.inner.Access(q)
	s.exit(idx, s.down)
	return out, err
}

func (s *schemeShim) MarshalState() ([]byte, error) {
	idx := s.background(spanMarshal)
	state, err := s.inner.MarshalState()
	s.exit(idx, nil)
	s.marshals.Add(1)
	s.marshalBytes.Add(int64(len(state)))
	return state, err
}

// StashSize keeps the proxy's stash gauge working through the shim.
func (s *schemeShim) StashSize() int {
	if sr, ok := s.inner.(interface{ StashSize() int }); ok {
		return sr.StashSize()
	}
	return 0
}

// accessorShim sits on the store.Accessor seam around the proxy: its span
// is the served access as the daemon's serve loop sees it, queue wait,
// checkpoint and ack included.
type accessorShim struct {
	seam
	inner store.Accessor
	up    []*cursor // per client
	down  []*cursor // per client: serve-loop goroutines call concurrently
}

func (s *accessorShim) Records() int    { return s.inner.Records() }
func (s *accessorShim) RecordSize() int { return s.inner.RecordSize() }

func (s *accessorShim) AccessRecord(index int, write bool, data block.Block) (block.Block, error) {
	c := index % len(s.up)
	idx := s.enter(spanAccess, s.up[c], s.down[c])
	out, err := s.inner.AccessRecord(index, write, data)
	s.exit(idx, s.down[c])
	return out, err
}

// countingListener counts the bytes every accepted connection reads (up:
// client to server) and writes (down).
type countingListener struct {
	net.Listener
	up, down atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.up.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.down.Add(int64(n))
	return n, err
}
