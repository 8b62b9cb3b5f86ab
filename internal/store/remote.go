package store

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/obs"
	"dpstore/internal/wire"
)

// Remote is a BatchServer backed by a networked block server speaking the
// wire protocol. It lets every construction in this repository run
// unmodified against a real remote store (see cmd/blockstored and
// examples/remotestore). A ReadBatch or WriteBatch crosses the network
// once regardless of batch size (up to the MaxFrame ceiling, beyond which
// it transparently splits), which is where the constructions' batched hot
// paths turn into real latency wins. Requests on one Remote are
// serialized; open several connections — or a Pool — for parallelism. On a
// multi-tenant daemon, Open (or DialNamespace) points the connection at a
// named namespace; a Remote that never opens one speaks to the daemon's
// default namespace, exactly as before namespaces existed.
//
// Writes are posted. WriteBatch and Upload encode their frame into the
// connection's write buffer and return nil without flushing it or waiting
// for the ack: nil means "queued on this connection", not "the server has
// it". The frame leaves with the next request's flush — upload i and the
// read batch of access i+1 share one write(2) — and the server executes a
// connection's frames strictly in order, so every later call on the SAME
// connection observes the write (read-your-writes needs no overlay). The
// next request that awaits a response first consumes the outstanding
// acks, which precede its own response on the stream. A posted write the
// server rejects or sheds, or whose ack never arrives, fails the next
// call with a *PostedWriteError and every call after it: the caller
// released state on the strength of the nil return, so the connection
// cannot pretend to be healthy. Whoever needs "the server has it" — before
// handing the data to another connection, counting a quorum ack, or
// dropping the only other copy — calls Flush. A connection armed with a
// RetryPolicy awaits each write's ack inside the call instead (a shed write
// must be seen to be retried), and so do a Pool's connections (FIFO does
// not span connections).
type Remote struct {
	mu         sync.Mutex
	conn       net.Conn
	r          *bufio.Reader
	w          *bufio.Writer
	info       wire.Info
	name       string // current namespace (DefaultNamespace until Open)
	roundTrips int64
	maxFrame   int // frame budget for batch splitting; wire.MaxFrame outside tests

	// Per-connection scratch for the batch hot path, guarded by mu like the
	// connection itself. encBuf holds the outgoing frame, readBuf the
	// incoming payload (ReadFrameInto grows it once to the steady-state
	// frame size, then reuses it); addrScratch/blockScratch stage WriteBatch
	// ops as the parallel slices the wire codec takes. Results returned to
	// callers never alias any of these — ReadBatch copies the payload into a
	// caller-owned slab before mu is released.
	encBuf       []byte
	readBuf      []byte
	addrScratch  []int
	blockScratch [][]byte

	// Posted-write state, guarded by mu. posted[:nPosted] is the response
	// type each outstanding ack must carry, oldest first. failed is the
	// connection's first transport, framing or posted-write error: once
	// set, the byte stream can no longer be trusted to line up with the
	// requests, so every later call fails fast with it.
	posted  [postedAckBound]byte
	nPosted int
	failed  error

	// retry, when set via SetRetryPolicy, re-runs busy-shed public
	// operations instead of surfacing wire.BusyError (see retry.go). Set
	// before sharing the connection; nil means busy errors surface.
	retry *retrier
}

// postedAckBound caps the acks a connection leaves unread. A write-only
// burst (BatchWriter during Setup) settles every postedAckBound writes, so
// unread acks can never fill the socket buffers and wedge both ends in
// write(2).
const postedAckBound = 32

// PostedWriteError reports that a write WriteBatch or Upload had already
// returned nil for did not land: the server answered it with an error or
// busy frame, or the connection broke before its ack arrived. Err is that
// answer. The connection is failed for good — see Remote.
type PostedWriteError struct{ Err error }

func (e *PostedWriteError) Error() string { return "store: posted write failed: " + e.Err.Error() }

func (e *PostedWriteError) Unwrap() error { return e.Err }

// run executes op under the connection's retry policy (or directly when
// none is armed).
func (rs *Remote) run(op func() error) error {
	if rs.retry == nil {
		return op()
	}
	return rs.retry.do(op)
}

// dialTimeout bounds connection establishment. An unbounded net.Dial
// against a black-holing address hangs for the kernel connect timeout
// (minutes) — unacceptable for interactive clients and fatal for a
// Replicated cluster's serial repair loop, which would stall every other
// replica's probe behind one unreachable host.
const dialTimeout = 10 * time.Second

// dialRaw opens the TCP connection without any handshake.
func dialRaw(addr string) (*Remote, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("store: dialing %s: %w", addr, err)
	}
	return newRemote(conn), nil
}

// newRemote wraps an established connection, handshake still to come.
func newRemote(conn net.Conn) *Remote {
	return &Remote{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), maxFrame: wire.MaxFrame}
}

// Dial connects to a block server at addr ("host:port") and performs the
// info handshake against the daemon's default namespace.
func Dial(addr string) (*Remote, error) {
	rs, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	if err := rs.hello(); err != nil {
		rs.conn.Close()
		return nil, err
	}
	return rs, nil
}

// hello performs the info handshake against the default namespace.
func (rs *Remote) hello() error {
	resp, err := rs.roundTrip(wire.Frame{Type: wire.MsgInfoReq}, wire.MsgInfoResp)
	if err != nil {
		return err
	}
	info, err := wire.DecodeInfo(resp.Payload)
	if err != nil {
		return err
	}
	// A hostile or broken server must not be able to poison later
	// arithmetic (batch chunk sizing divides by the block size).
	if info.BlockSize == 0 || info.Size == 0 {
		return fmt.Errorf("store: server reported invalid shape (%d slots × %d B)", info.Size, info.BlockSize)
	}
	rs.info = info
	return nil
}

// DialNamespace connects to a block server and opens the named namespace —
// the multi-tenant handshake. The open request is the handshake (no
// MsgInfoReq is sent), so it works against daemons that host no default
// namespace at all. Slots and blockSize are the shape a freshly created
// namespace should have; pass zeros to accept whatever shape the server
// already holds (or defaults to) for that name.
func DialNamespace(addr, name string, slots, blockSize int) (*Remote, error) {
	rs, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	if err := rs.Open(name, slots, blockSize); err != nil {
		rs.conn.Close()
		return nil, err
	}
	return rs, nil
}

// Open switches this connection to the named namespace, creating it
// server-side when the daemon permits. Zero slots/blockSize defer the
// shape to the server. Concurrent operations issued while an Open is in
// flight may land in either namespace; callers that share a Remote across
// goroutines should open before fanning out (Pool does).
func (rs *Remote) Open(name string, slots, blockSize int) error {
	if slots < 0 || blockSize < 0 {
		return fmt.Errorf("store: invalid namespace shape %d × %d", slots, blockSize)
	}
	req, err := wire.EncodeOpenReq(wire.OpenReq{Name: name, Slots: uint64(slots), BlockSize: uint32(blockSize)})
	if err != nil {
		return err
	}
	resp, err := rs.roundTrip(req, wire.MsgOpenResp)
	if err != nil {
		return err
	}
	info, err := wire.DecodeOpenResp(resp.Payload)
	if err != nil {
		return err
	}
	// Same hostile-shape guard as Dial: later batch chunk sizing divides
	// by the block size.
	if info.BlockSize == 0 || info.Size == 0 {
		return fmt.Errorf("store: server reported invalid shape for %q (%d slots × %d B)", name, info.Size, info.BlockSize)
	}
	rs.mu.Lock()
	rs.info = info
	rs.name = name
	rs.mu.Unlock()
	return nil
}

// Namespace returns the namespace this connection currently speaks to.
func (rs *Remote) Namespace() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.name
}

// Epoch returns the recovery epoch the server reported in the handshake
// (0 for servers without durable state). A client that remembers the
// epoch of an earlier connection and sees a larger one here knows the
// server restarted — and therefore recovered from its log — in between.
func (rs *Remote) Epoch() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.info.Epoch
}

// Partitions returns the scheme-partition count the server reported in
// the handshake: ≥ 1 for a proxy-backed namespace, 0 for block namespaces
// and pre-partition servers (no partitioning claim).
func (rs *Remote) Partitions() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return int(rs.info.Partitions)
}

// shape returns the current namespace's store shape.
func (rs *Remote) shape() wire.Info {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.info
}

// roundTrip is the cold-path exchange: encode req, await the response, and
// hand back a frame whose payload the caller owns.
func (rs *Remote) roundTrip(req wire.Frame, want byte) (wire.Frame, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.sendFrameLocked(req); err != nil {
		return wire.Frame{}, err
	}
	resp, err := rs.awaitLocked(want)
	if err != nil {
		return wire.Frame{}, err
	}
	resp.Payload = append([]byte(nil), resp.Payload...) // rs.readBuf is reused once mu is released
	return resp, nil
}

// failLocked records the connection's first fatal error and returns the
// error every call now fails with.
func (rs *Remote) failLocked(err error) error {
	if rs.failed == nil {
		rs.failed = err
	}
	return rs.failed
}

// sendLocked appends one encoded request to the write buffer — nothing
// reaches the socket until the buffer fills or a flush — and counts the
// exchange.
func (rs *Remote) sendLocked(frame []byte) error {
	if rs.failed != nil {
		return rs.failed
	}
	if _, err := rs.w.Write(frame); err != nil {
		return rs.failLocked(fmt.Errorf("store: writing request: %w", err))
	}
	rs.roundTrips++
	return nil
}

// sendFrameLocked is sendLocked for a cold-path frame.
func (rs *Remote) sendFrameLocked(req wire.Frame) error {
	var err error
	if rs.encBuf, err = wire.AppendFrame(rs.encBuf[:0], req); err != nil {
		return err
	}
	return rs.sendLocked(rs.encBuf)
}

// settleLocked flushes the write buffer and consumes the ack of every
// posted write, oldest first. Any failure here concerns a write whose
// caller was already told nil, so it is wrapped as a *PostedWriteError and
// fails the connection.
func (rs *Remote) settleLocked() error {
	if rs.failed != nil {
		return rs.failed
	}
	err := rs.w.Flush()
	if err != nil {
		err = fmt.Errorf("store: flushing request: %w", err)
	}
	for i := 0; err == nil && i < rs.nPosted; i++ {
		var ack wire.Frame
		if ack, err = rs.readLocked(); err == nil {
			err = wire.AsError(ack, rs.posted[i])
		}
	}
	if err == nil {
		rs.nPosted = 0
		return nil
	}
	if rs.nPosted > 0 {
		err = &PostedWriteError{Err: err}
	}
	return rs.failLocked(err)
}

// readLocked reads one frame into rs.readBuf.
func (rs *Remote) readLocked() (wire.Frame, error) {
	resp, buf, err := wire.ReadFrameInto(rs.r, rs.readBuf)
	rs.readBuf = buf
	if err != nil {
		return wire.Frame{}, fmt.Errorf("store: reading response: %w", err)
	}
	return resp, nil
}

// awaitLocked completes the exchange of the request just sent: flush it —
// together with any posted writes riding in front of it — consume their
// acks, then read its own response into rs.readBuf. Callers must finish
// with the returned frame, whose payload aliases rs.readBuf, before
// releasing mu. A well-formed error or busy answer leaves the connection
// usable (the stream is still in step); anything else fails it.
func (rs *Remote) awaitLocked(want byte) (wire.Frame, error) {
	if err := rs.settleLocked(); err != nil {
		return wire.Frame{}, err
	}
	resp, err := rs.readLocked()
	if err != nil {
		return wire.Frame{}, rs.failLocked(err)
	}
	if err := wire.AsError(resp, want); err != nil {
		switch err.(type) {
		case *wire.RemoteError, *wire.BusyError:
		default:
			rs.failLocked(err)
		}
		return wire.Frame{}, err
	}
	return resp, nil
}

// Flush is the posted-write barrier: it sends anything still buffered,
// collects every outstanding ack, and returns the first deferred error
// (nil: the server has applied every write this connection accepted).
func (rs *Remote) Flush() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.settleLocked()
}

// RoundTrips returns the number of request/response exchanges performed on
// this connection (including the handshake), counted when the request is
// sent — a posted write is an exchange whether or not anyone waited for it.
// Benchmarks use it to show the batch transport collapsing per-block
// chatter.
func (rs *Remote) RoundTrips() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.roundTrips
}

// Download implements Server.
func (rs *Remote) Download(addr int) (block.Block, error) {
	var out block.Block
	err := rs.run(func() error {
		resp, err := rs.roundTrip(wire.EncodeDownloadReq(uint64(addr)), wire.MsgDownloadResp)
		if err != nil {
			return err
		}
		out = block.Block(resp.Payload) // roundTrip's payload is already the caller's
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Upload implements Server as a posted write (see Remote).
func (rs *Remote) Upload(addr int, b block.Block) error { return rs.upload(addr, b, false) }

func (rs *Remote) upload(addr int, b block.Block, await bool) error {
	if err := checkWrite(rs.shape(), addr, b); err != nil {
		return err
	}
	req := wire.EncodeUploadReq(uint64(addr), b)
	await = await || rs.retry != nil // a shed write must be seen to be retried
	return rs.run(func() error { return rs.write(req, wire.MsgUploadResp, await) })
}

// checkWrite rejects a write the handshake shape already rules out, before
// any frame exists: a caller's argument error must fail its own call, not —
// posted — the next one and the connection with it. (For batches the frame
// layout also relies on uniform block sizes; a ragged op would silently
// mis-frame on the wire.)
func checkWrite(info wire.Info, addr int, b block.Block) error {
	if addr < 0 || uint64(addr) >= info.Size {
		return fmt.Errorf("%w: %d (size %d)", ErrAddr, addr, info.Size)
	}
	if len(b) != int(info.BlockSize) {
		return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(b), info.BlockSize)
	}
	return nil
}

// write sends one cold-path write frame, awaiting its ack or posting it.
func (rs *Remote) write(req wire.Frame, want byte, await bool) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.sendFrameLocked(req); err != nil {
		return err
	}
	return rs.ackLocked(want, await)
}

// ackLocked disposes of the ack (of type want) of the write frame just
// sent: awaited in this exchange, or posted for a later one to consume —
// settling now only when the bound on unread acks is reached.
func (rs *Remote) ackLocked(want byte, await bool) error {
	if await {
		_, err := rs.awaitLocked(want)
		return err
	}
	rs.posted[rs.nPosted] = want
	rs.nPosted++
	if rs.nPosted < postedAckBound {
		return nil
	}
	return rs.settleLocked()
}

// readChunk returns the largest address count whose MsgReadBatchReq and
// MsgReadBatchResp both still fit one frame (for tiny blocks the 8-byte
// request addresses, not the response blocks, are the binding constraint).
func (rs *Remote) readChunk(blockSize int) int {
	n := (rs.maxFrame - 4) / blockSize
	if req := (rs.maxFrame - 4) / 8; req < n {
		n = req
	}
	if n < 1 {
		n = 1
	}
	return n
}

// writeChunk returns the largest op count whose MsgWriteBatchReq still fits
// one frame.
func (rs *Remote) writeChunk(blockSize int) int {
	n := (rs.maxFrame - 4) / (8 + blockSize)
	if n < 1 {
		n = 1
	}
	return n
}

// ReadBatch implements BatchServer in one round trip (or ⌈N/chunk⌉ trips
// when the reply would overflow MaxFrame). The result is a caller-owned
// slab — two allocations per call regardless of batch size — filled
// straight from the response payload in the connection's reusable read
// buffer, which is why the whole batch runs under one mu acquisition.
func (rs *Remote) ReadBatch(addrs []int) ([]block.Block, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	if rs.retry != nil {
		// Retry the whole batch: a shed chunk never executed, and re-reading
		// already-delivered chunks is a pure (idempotent) cost.
		var out []block.Block
		err := rs.retry.do(func() error {
			var err error
			out, err = rs.readBatchOnce(addrs)
			return err
		})
		return out, err
	}
	return rs.readBatchOnce(addrs)
}

func (rs *Remote) readBatchOnce(addrs []int) ([]block.Block, error) {
	blockSize := int(rs.shape().BlockSize)
	chunk := rs.readChunk(blockSize)
	out := newSlab(len(addrs), blockSize)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for start := 0; start < len(addrs); start += chunk {
		end := start + chunk
		if end > len(addrs) {
			end = len(addrs)
		}
		rs.encBuf = wire.AppendReadBatchReq(rs.encBuf[:0], addrs[start:end])
		if err := rs.sendLocked(rs.encBuf); err != nil {
			return nil, err
		}
		resp, err := rs.awaitLocked(wire.MsgReadBatchResp)
		if err != nil {
			return nil, err
		}
		count, size, body, err := wire.ReadBatchRespShape(resp.Payload)
		if err != nil {
			return nil, err
		}
		if count != end-start {
			return nil, fmt.Errorf("store: read batch returned %d blocks, want %d", count, end-start)
		}
		// The shape check guarantees uniform sizes, so checking the common
		// size pins every block: a hostile server must not be able to hand
		// short blocks to callers that index to BlockSize().
		if size != blockSize {
			return nil, fmt.Errorf("store: read batch returned %d B blocks, want %d", size, blockSize)
		}
		// Copy out of the frame payload while still holding mu: body
		// aliases rs.readBuf, which the next round trip overwrites.
		for i := start; i < end; i++ {
			o := (i - start) * size
			copy(out[i], body[o:o+size])
		}
	}
	return out, nil
}

// WriteBatch implements BatchServer as one posted exchange (split as needed
// to respect MaxFrame; see Remote for what nil means), staging each chunk
// in the connection's reusable scratch. The ops' blocks are read before the
// call returns and never retained.
func (rs *Remote) WriteBatch(ops []WriteOp) error { return rs.writeBatch(ops, false) }

// writeBatch is WriteBatch with the ack awaited inside the call when await
// is set (Pool) or a RetryPolicy is armed.
func (rs *Remote) writeBatch(ops []WriteOp, await bool) error {
	if len(ops) == 0 {
		return nil
	}
	if rs.retry != nil {
		// Replaying a half-applied batch is safe: WriteBatch sets absolute
		// values, so a second application converges to the same state.
		return rs.retry.do(func() error { return rs.writeBatchOnce(ops, true) })
	}
	return rs.writeBatchOnce(ops, await)
}

func (rs *Remote) writeBatchOnce(ops []WriteOp, await bool) error {
	info := rs.shape()
	blockSize := int(info.BlockSize)
	for _, op := range ops {
		if err := checkWrite(info, op.Addr, op.Block); err != nil {
			return err
		}
	}
	chunk := rs.writeChunk(blockSize)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	defer func() {
		// Drop the staged views so the scratch never pins a caller's block
		// past the call.
		for i := range rs.blockScratch {
			rs.blockScratch[i] = nil
		}
		rs.blockScratch = rs.blockScratch[:0]
		rs.addrScratch = rs.addrScratch[:0]
	}()
	for start := 0; start < len(ops); start += chunk {
		end := start + chunk
		if end > len(ops) {
			end = len(ops)
		}
		addrs, blocks := rs.addrScratch[:0], rs.blockScratch[:0]
		for _, op := range ops[start:end] {
			addrs = append(addrs, op.Addr)
			blocks = append(blocks, op.Block)
		}
		rs.addrScratch, rs.blockScratch = addrs, blocks
		var err error
		rs.encBuf, err = wire.AppendWriteBatchReq(rs.encBuf[:0], addrs, blocks)
		if err != nil {
			return err
		}
		if err := rs.sendLocked(rs.encBuf); err != nil {
			return err
		}
		if err := rs.ackLocked(wire.MsgWriteBatchResp, await); err != nil {
			return err
		}
	}
	return nil
}

// ResyncCheck asks the server to confirm it still serves the given
// recovery epoch (one MsgResyncReq round trip). The repair loop of a
// Replicated cluster calls it right before streaming a resync, so a
// replica restarting between the redial and the stream is caught instead
// of receiving a backlog computed against its previous life.
func (rs *Remote) ResyncCheck(expect uint64) (epoch uint64, ok bool, err error) {
	resp, err := rs.roundTrip(wire.EncodeResyncReq(expect), wire.MsgResyncResp)
	if err != nil {
		return 0, false, err
	}
	ok, epoch, err = wire.DecodeResyncResp(resp.Payload)
	if err != nil {
		return 0, false, err
	}
	return epoch, ok, nil
}

// ReplicaStatus fetches the per-replica health of a replicated namespace
// (a daemon running with -replicate). Non-replicated namespaces answer
// with an error. The result uses the same ReplicaStatus type the
// in-process Replicated reports, so callers handle both identically
// (LastErr is in-process-only and stays empty over the wire).
func (rs *Remote) ReplicaStatus() ([]ReplicaStatus, error) {
	resp, err := rs.roundTrip(wire.Frame{Type: wire.MsgReplStatusReq}, wire.MsgReplStatusResp)
	if err != nil {
		return nil, err
	}
	wsts, err := wire.DecodeReplStatusResp(resp.Payload)
	if err != nil {
		return nil, err
	}
	out := make([]ReplicaStatus, len(wsts))
	for i, st := range wsts {
		out[i] = ReplicaStatus{
			Name:  st.Name,
			State: ReplicaState(st.State),
			Epoch: st.Epoch,
			Dirty: int(st.Dirty),
		}
	}
	return out, nil
}

// Stats fetches the daemon-wide namespace metrics snapshot (one
// MsgStatsReq round trip): admission counters, queue state, and backing
// gauges for every hosted namespace, regardless of which one this
// connection has open. Counters are cumulative since daemon start, so a
// monitor derives throughput from two snapshots. The request asks for
// the quantile-extended v2 frame; a pre-v2 daemon ignores the request
// payload and answers v1, in which case the extension fields come back
// zero (Requests == 0 is the tell).
func (rs *Remote) Stats() ([]wire.StatsEntry, error) {
	resp, err := rs.roundTrip(wire.EncodeStatsReq(wire.StatsVersionExt), wire.MsgStatsResp)
	if err != nil {
		return nil, err
	}
	return wire.DecodeStatsResp(resp.Payload)
}

// Size implements Server.
func (rs *Remote) Size() int { return int(rs.shape().Size) }

// BlockSize implements Server.
func (rs *Remote) BlockSize() int { return int(rs.shape().BlockSize) }

// Close flushes (see Flush) and closes the connection, returning the
// deferred error if there is one. A call still in flight holds mu, possibly
// wedged in a dead peer's socket, and closing is what unblocks it — so
// Close does not wait for the lock (a caller that has quiesced, as it
// must to have anything worth flushing, always gets it) and bounds the
// flush itself.
func (rs *Remote) Close() error {
	var err error
	if rs.mu.TryLock() {
		rs.conn.SetDeadline(time.Now().Add(dialTimeout)) //nolint:errcheck
		err = rs.settleLocked()
		rs.mu.Unlock()
	}
	if cerr := rs.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Serve accepts connections on ln and serves the wire protocol against
// backing until ln is closed. Each connection is handled on its own
// goroutine; backing must be safe for concurrent use (all Servers in this
// package are). Batch requests execute through backing's native
// BatchServer implementation when it has one, so a Mem-, File- or
// Sharded-backed daemon keeps its single-lock / coalesced-I/O /
// parallel-shard fast path end to end. Serve is the single-tenant form of
// ServeNamespaces: backing becomes the default namespace, so pre-namespace
// clients are served unchanged, and open requests for other names are
// rejected (no factory is installed). Serve returns the listener's accept
// error, which is net.ErrClosed after a clean shutdown.
func Serve(ln net.Listener, backing Server) error {
	ns := NewNamespaces()
	ns.Attach(DefaultNamespace, backing)
	return ServeNamespaces(ln, ns)
}

// connScratch is one connection's reusable hot-path memory: the frame read
// buffer, the response frame build buffer, and the decoded batch views. All
// of it lives exactly as long as the connection and is only ever touched by
// its serve goroutine, so no locking or pooling is needed.
type connScratch struct {
	readBuf []byte    // incoming frame payloads (ReadFrameInto target)
	resp    []byte    // outgoing frame bytes, header included
	addrs   []int     // decoded batch addresses
	blocks  [][]byte  // decoded write-batch block views (alias readBuf)
	ops     []WriteOp // staged write ops handed to the backing store
}

// errorFrame builds a complete MsgError frame into the response buffer.
func (cs *connScratch) errorFrame(msg string) []byte {
	buf, off := wire.BeginFrame(cs.resp[:0], wire.MsgError)
	buf = append(buf, msg...)
	buf, _ = wire.EndFrame(buf, off) // an error message can't exceed MaxFrame
	cs.resp = buf
	return buf
}

func serveConn(conn net.Conn, ns *Namespaces) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	cs := &connScratch{}
	// The connection's current namespace; the zero tenant until an open
	// succeeds when the daemon has no default.
	cur := ns.lookup(DefaultNamespace)
	curName := DefaultNamespace
	lim := ns.limiterFor(curName)
	epoch := ns.Epoch()
	sl := obs.DefaultSlowLog()
	for {
		req, buf, err := wire.ReadFrameInto(r, cs.readBuf)
		cs.readBuf = buf
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		// One clock read and one indexed atomic increment per request —
		// the serve loop's entire unconditional telemetry cost. arrival
		// doubles as the admission queue-wait origin and the slow-span
		// origin.
		arrival := time.Now()
		frameCounters[req.Type].Inc()
		// Admission runs here, on the frame TYPE alone — the payload (and
		// with it every address) is still opaque bytes, which is what makes
		// the shed/accept pattern provably address-independent. A shed
		// request is answered with a busy frame and never touches a
		// backend.
		var admitted bool
		var svcStart time.Time
		if admittable(req.Type) && !cur.none() {
			start, ok, retry, depth := lim.admit(arrival)
			if !ok {
				raw := wire.AppendBusy(cs.resp[:0], retry, depth)
				cs.resp = raw
				if _, err := w.Write(raw); err != nil {
					return
				}
				if err := flushIfDrained(r, w); err != nil {
					return
				}
				continue
			}
			admitted, svcStart = true, start
		}
		// The batch frames — the steady-state traffic — are served through
		// the per-connection scratch with zero per-request allocation;
		// everything else goes through the allocating cold path. Both
		// decode from cs.readBuf, which the next ReadFrameInto reuses, so
		// each request must be fully handled (response built or frame
		// encoded) before the next iteration — they are.
		if raw, handled := handleBatch(req, cur, cs); handled {
			_, err := w.Write(raw)
			if err == nil {
				err = flushIfDrained(r, w)
			}
			// The admission slot is released once the response is WRITTEN
			// into the connection's buffer, which is not always once it is
			// flushed: a pipelining client's response may wait in the buffer
			// for the next request's. That request is already here and is
			// admitted (or shed) on its own, so the slot is never held across
			// a wait for the client.
			if admitted {
				svc := lim.release(svcStart)
				if sl.Enabled() {
					observeSlow(sl, arrival, curName, req.Type, svc)
				}
			}
			if err != nil {
				return
			}
			continue
		}
		var resp wire.Frame
		switch {
		case req.Type == wire.MsgOpenReq:
			resp, cur = handleOpen(req, ns, cur, epoch)
			if cur.name != curName {
				curName = cur.name
				lim = ns.limiterFor(curName)
			}
		case req.Type == wire.MsgStatsReq:
			resp = handleStats(ns, req.Payload)
		case cur.none():
			resp = wire.EncodeError("no namespace selected (send an open request first)")
		case cur.acc != nil:
			resp = handleAccess(req, cur.acc, epoch)
		default:
			resp = handle(req, cur.batch, epoch)
		}
		err = wire.WriteFrame(w, resp)
		if err == nil {
			err = flushIfDrained(r, w)
		}
		if admitted {
			svc := lim.release(svcStart)
			if sl.Enabled() {
				observeSlow(sl, arrival, curName, req.Type, svc)
			}
		}
		if err != nil {
			return
		}
	}
}

// flushIfDrained flushes the connection's responses unless another request
// is already buffered, in which case they wait and leave together with that
// request's response: a client that pipelines (a posted write with the next
// read batch behind it) gets its acks and its answer in one write(2) and
// one read(2). A client that awaits every response never has a second
// request buffered and sees a flush per response, as before. Responses are
// only ever held while there is input to work on — a partly arrived request
// counts, since its sender is mid-write and needs nothing from us to finish
// it — so nothing is withheld from a client that is waiting.
func flushIfDrained(r *bufio.Reader, w *bufio.Writer) error {
	if r.Buffered() > 0 {
		return nil
	}
	return w.Flush()
}

// observeSlow builds and offers a slow-request span — called only when
// the slow log is armed, so the steady-state serve loop never pays for
// the second clock read or the span construction.
func observeSlow(sl *obs.SlowLog, arrival time.Time, nsName string, frameType byte, svc time.Duration) {
	total := time.Since(arrival)
	if total < sl.Threshold() {
		return
	}
	sl.Observe(obs.Span{
		NS:      nsName,
		Frame:   frameNames[frameType],
		Queue:   total - svc,
		Service: svc,
		Total:   total,
	})
}

// handleStats answers the daemon-wide metrics probe. Like the replica
// status frame it describes the whole daemon, not the connection's
// namespace, and is never subject to admission — a saturated daemon must
// stay observable. The request payload carries the stats protocol
// version the client wants (empty = v1, preserving old clients);
// unknown versions degrade to v1 rather than erroring.
func handleStats(ns *Namespaces, reqPayload []byte) wire.Frame {
	entries := ns.Stats()
	var resp wire.Frame
	var err error
	if wire.StatsReqVersion(reqPayload) >= wire.StatsVersionExt {
		resp, err = wire.EncodeStatsRespExt(entries)
	} else {
		resp, err = wire.EncodeStatsResp(entries)
	}
	if err != nil {
		return wire.EncodeError(err.Error())
	}
	return resp
}

// handleBatch serves the two batch frames against a block-backed namespace
// using the connection's scratch, returning the complete response frame
// bytes (which alias cs.resp) and true; any other frame — or a batch frame
// against a proxy-backed or unselected namespace, which must keep its
// existing rejection — reports false and falls to the cold path.
func handleBatch(req wire.Frame, cur tenant, cs *connScratch) ([]byte, bool) {
	if cur.none() || cur.acc != nil {
		return nil, false
	}
	backing := cur.batch
	switch req.Type {
	case wire.MsgReadBatchReq:
		var err error
		cs.addrs, err = wire.DecodeReadBatchReqInto(cs.addrs[:0], req.Payload)
		if err != nil {
			return cs.errorFrame(err.Error()), true
		}
		blockSize := backing.BlockSize()
		if 4+int64(len(cs.addrs))*int64(blockSize) > wire.MaxFrame {
			return cs.errorFrame(fmt.Sprintf(
				"read batch of %d × %d B blocks exceeds the %d B frame limit",
				len(cs.addrs), blockSize, wire.MaxFrame)), true
		}
		buf, off := wire.BeginFrame(cs.resp[:0], wire.MsgReadBatchResp)
		buf = wire.AppendBatchCount(buf, len(cs.addrs))
		cs.resp = buf
		if ab, ok := backing.(BatchAppender); ok {
			// Zero-copy: the store appends its slots straight into the
			// response frame.
			buf, err = ab.AppendReadBatch(buf, cs.addrs)
			cs.resp = buf
			if err != nil {
				return cs.errorFrame(err.Error()), true
			}
		} else {
			blocks, err := backing.ReadBatch(cs.addrs)
			if err != nil {
				return cs.errorFrame(err.Error()), true
			}
			for _, b := range blocks {
				buf = append(buf, b...)
			}
			cs.resp = buf
		}
		buf, err = wire.EndFrame(buf, off)
		cs.resp = buf
		if err != nil {
			return cs.errorFrame(err.Error()), true
		}
		return buf, true
	case wire.MsgWriteBatchReq:
		var err error
		cs.addrs, cs.blocks, err = wire.DecodeWriteBatchReqInto(cs.addrs[:0], cs.blocks[:0], req.Payload)
		if err != nil {
			return cs.errorFrame(err.Error()), true
		}
		if cap(cs.ops) < len(cs.addrs) {
			cs.ops = make([]WriteOp, len(cs.addrs))
		}
		ops := cs.ops[:len(cs.addrs)]
		for i := range ops {
			ops[i] = WriteOp{Addr: cs.addrs[i], Block: block.Block(cs.blocks[i])}
		}
		if err := backing.WriteBatch(ops); err != nil {
			return cs.errorFrame(err.Error()), true
		}
		buf, off := wire.BeginFrame(cs.resp[:0], wire.MsgWriteBatchResp)
		buf, _ = wire.EndFrame(buf, off) // empty payload can't exceed MaxFrame
		cs.resp = buf
		return buf, true
	}
	return nil, false
}

// handleOpen resolves an open request against the registry. On success the
// connection's current namespace switches to the opened one; on failure it
// stays where it was (the client's session is not torn down by a rejected
// open).
func handleOpen(req wire.Frame, ns *Namespaces, cur tenant, epoch uint64) (wire.Frame, tenant) {
	open, err := wire.DecodeOpenReq(req.Payload)
	if err != nil {
		return wire.EncodeError(err.Error()), cur
	}
	if open.Slots > uint64(int(^uint(0)>>1)) {
		return wire.EncodeError("requested slot count overflows the server"), cur
	}
	t, err := ns.openTenant(open.Name, int(open.Slots), int(open.BlockSize))
	if err != nil {
		return wire.EncodeError(err.Error()), cur
	}
	slots, blockSize := t.shape()
	info := wire.Info{
		Size:      uint64(slots),
		BlockSize: uint32(blockSize),
		Epoch:     epoch,
	}
	if t.acc != nil {
		info.Partitions = accessorPartitions(t.acc)
	}
	return wire.EncodeOpenResp(info), t
}

// handleAccess serves one frame against a proxy-backed namespace: only the
// info handshake and logical access frames exist there. Everything else —
// in particular every block frame — is rejected, because hiding the
// physical store from clients is the proxy deployment's trust boundary.
func handleAccess(req wire.Frame, acc Accessor, epoch uint64) wire.Frame {
	switch req.Type {
	case wire.MsgInfoReq:
		return wire.EncodeInfo(wire.Info{
			Size:       uint64(acc.Records()),
			BlockSize:  uint32(acc.RecordSize()),
			Epoch:      epoch,
			Partitions: accessorPartitions(acc),
		})
	case wire.MsgAccessReq:
		areq, err := wire.DecodeAccessReq(req.Payload)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		if areq.Index >= uint64(acc.Records()) {
			return wire.EncodeError(fmt.Sprintf(
				"record index %d out of range [0,%d)", areq.Index, acc.Records()))
		}
		if areq.Write && len(areq.Data) != acc.RecordSize() {
			return wire.EncodeError(fmt.Sprintf(
				"record is %d bytes, want %d", len(areq.Data), acc.RecordSize()))
		}
		val, err := acc.AccessRecord(int(areq.Index), areq.Write, block.Block(areq.Data))
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		return wire.EncodeAccessResp(val)
	default:
		return wire.EncodeError("namespace is proxy-backed: block frames are not served")
	}
}

func handle(req wire.Frame, backing BatchServer, epoch uint64) wire.Frame {
	switch req.Type {
	case wire.MsgInfoReq:
		return wire.EncodeInfo(wire.Info{
			Size:      uint64(backing.Size()),
			BlockSize: uint32(backing.BlockSize()),
			Epoch:     epoch,
		})
	case wire.MsgDownloadReq:
		addr, err := wire.DecodeDownloadReq(req.Payload)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		b, err := backing.Download(int(addr))
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		return wire.Frame{Type: wire.MsgDownloadResp, Payload: b}
	case wire.MsgUploadReq:
		addr, data, err := wire.DecodeUploadReq(req.Payload)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		if err := backing.Upload(int(addr), block.Block(data)); err != nil {
			return wire.EncodeError(err.Error())
		}
		return wire.Frame{Type: wire.MsgUploadResp}
	case wire.MsgReadBatchReq:
		addrs, err := wire.DecodeReadBatchReq(req.Payload)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		if 4+int64(len(addrs))*int64(backing.BlockSize()) > wire.MaxFrame {
			return wire.EncodeError(fmt.Sprintf(
				"read batch of %d × %d B blocks exceeds the %d B frame limit",
				len(addrs), backing.BlockSize(), wire.MaxFrame))
		}
		blocks, err := backing.ReadBatch(addrs)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		raw := make([][]byte, len(blocks))
		for i, b := range blocks {
			raw[i] = b
		}
		return wire.EncodeReadBatchResp(raw)
	case wire.MsgWriteBatchReq:
		addrs, blocks, err := wire.DecodeWriteBatchReq(req.Payload)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		ops := make([]WriteOp, len(addrs))
		for i := range addrs {
			ops[i] = WriteOp{Addr: addrs[i], Block: block.Block(blocks[i])}
		}
		if err := backing.WriteBatch(ops); err != nil {
			return wire.EncodeError(err.Error())
		}
		return wire.Frame{Type: wire.MsgWriteBatchResp}
	case wire.MsgResyncReq:
		expect, err := wire.DecodeResyncReq(req.Payload)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		return wire.EncodeResyncResp(expect == epoch, epoch)
	case wire.MsgReplStatusReq:
		rep, ok := backing.(replicaStatusReporter)
		if !ok {
			return wire.EncodeError("namespace is not replicated: no replica status to report")
		}
		sts := rep.ReplicaStatus()
		out := make([]wire.ReplicaStatus, len(sts))
		for i, st := range sts {
			out[i] = wire.ReplicaStatus{Name: st.Name, State: uint8(st.State), Epoch: st.Epoch, Dirty: uint64(st.Dirty)}
		}
		resp, err := wire.EncodeReplStatusResp(out)
		if err != nil {
			return wire.EncodeError(err.Error())
		}
		return resp
	case wire.MsgAccessReq:
		return wire.EncodeError("namespace is block-backed: logical access frames need a proxy-backed namespace")
	default:
		return wire.EncodeError(fmt.Sprintf("unknown message type %d", req.Type))
	}
}

// replicaStatusReporter is the serve loop's view of a replicated backing
// store (store.Replicated implements it); daemons hosting one export the
// cluster's health via MsgReplStatusReq.
type replicaStatusReporter interface {
	ReplicaStatus() []ReplicaStatus
}

// partitionReporter is the serve loop's view of an accessor that stripes
// its logical address space over P independent scheme instances
// (proxy.Partitioned implements it). Accessors without the method are one
// scheme instance, so the handshake reports 1.
type partitionReporter interface {
	Partitions() int
}

func accessorPartitions(acc Accessor) uint32 {
	if pr, ok := acc.(partitionReporter); ok {
		return uint32(pr.Partitions())
	}
	return 1
}
