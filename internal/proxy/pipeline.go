package proxy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

// pipelineDepth bounds how many write jobs may be queued behind the writer
// goroutine before WriteBatch applies backpressure.
const pipelineDepth = 64

// coalesceCap bounds how many ops one flush may merge into a single inner
// WriteBatch (the Remote transport re-chunks at MaxFrame anyway; this cap
// keeps a burst from building one enormous in-memory batch).
const coalesceCap = 1024

// writeRetries is how many times a failed flush is retried before the
// pipeline declares the store unreachable and poisons itself. Replaying a
// write batch is idempotent — the same ciphertexts go to the same slots —
// so retrying after a partially applied attempt is safe, the same argument
// Path ORAM's interrupted-path-write replay rests on.
const writeRetries = 8

// ErrPipelineClosed reports an operation on a closed Pipeline.
var ErrPipelineClosed = errors.New("proxy: pipeline closed")

// Pipeline is a write-behind store.BatchServer wrapper: WriteBatch
// enqueues the ops to a background writer goroutine and returns
// immediately, so the caller's next ReadBatch overlaps the write's round
// trip — over a store.Pool the two ride separate connections and the
// overlap is real wall-clock time. This is what lets the proxy scheduler
// pipeline scheme accesses: while access k's eviction/overwrite lands,
// access k+1's read phase is already on the wire, halving the round trips
// on the critical path without touching any scheme's code.
//
// Consistency: a read of an address with a write still in flight is served
// the pending data (the physical read is still issued — the access pattern
// a construction emits must reach the store unchanged, collisions
// included; only the returned bytes are overlaid). The overlay snapshot is
// taken before the physical read is issued, so a missing pending entry
// proves the write was fully acknowledged before the read went out.
//
// Failure: a flush that keeps failing after retries poisons the pipeline —
// every later operation returns the sticky error. Transient faults are
// absorbed by the retry loop and never reach the scheme, preserving the
// schemes' fault-atomicity invariants (they released state on the strength
// of our nil return; the pending buffer holds the only fresh copy until
// the write truly lands).
//
// A Pipeline is safe for concurrent use. Close only after the callers have
// quiesced (the Proxy does this: its scheduler is the sole caller and has
// exited before Close).
type Pipeline struct {
	inner store.BatchServer

	// sendMu serializes seq assignment with the channel send, so the
	// writer receives jobs in seq order even when WriteBatch callers
	// race. (It cannot be p.mu: a sender blocked on a full jobs channel
	// must not hold the lock the writer's flush needs to drain it.)
	sendMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[int]pendingBlock // addr → freshest not-yet-landed write
	seq     uint64
	// log[logHead:] holds (seq, addr) of every write not yet landed, in
	// seq order, beside some superseded by a later write to the same
	// address. The writer lands jobs strictly in seq order, so the
	// not-yet-landed writes are a suffix of it and flush and discard only
	// ever trim a prefix. PendingSnapshot walks it instead of ranging over
	// p.pending: ranging over a Go map costs what the map once held (a
	// setup upload through the pipeline leaves 2^16 slots behind), not
	// what it holds.
	log      []logEntry
	logHead  int
	inFlight int // enqueued-but-not-flushed ops
	sticky   error
	closed   bool

	// journaled mode: the writer may only flush ops whose seq is covered
	// by the release barrier — i.e. ops a durable checkpoint has recorded.
	// See NewJournaledPipeline.
	journaled bool
	released  uint64

	jobs chan job
	done chan struct{}
}

// pendingBlock is one not-yet-landed write; seq orders multiple in-flight
// writes to the same address so only the final landing clears the entry.
type pendingBlock struct {
	seq  uint64
	data block.Block
}

// logEntry is one write in the pipeline's sequence-ordered log.
type logEntry struct {
	seq  uint64
	addr int
}

// job is one enqueued WriteBatch, with per-op sequence numbers.
type job struct {
	ops  []store.WriteOp
	seqs []uint64
}

// NewPipeline wraps inner with a write-behind stage and starts its writer
// goroutine. inner must be safe for concurrent use (every Server in this
// module is); to overlap round trips over TCP, hand it a store.Pool of at
// least two connections.
func NewPipeline(inner store.BatchServer) *Pipeline {
	p := &Pipeline{
		inner:   inner,
		pending: make(map[int]pendingBlock),
		jobs:    make(chan job, pipelineDepth),
		done:    make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.writer()
	return p
}

// NewJournaledPipeline wraps inner with a write-behind stage already in
// journaled (write-hold) mode; see SetJournaled.
func NewJournaledPipeline(inner store.BatchServer) *Pipeline {
	p := NewPipeline(inner)
	p.SetJournaled()
	return p
}

// SetJournaled switches the pipeline into journaled (write-hold) mode: the
// writer goroutine flushes an op to the inner store only once Release has
// advanced past its sequence number. The durable proxy uses this to keep
// physical writes OFF the store until the checkpoint describing them —
// scheme state plus the pending ops themselves — is durable in the
// journal: a crash before the checkpoint then leaves the store exactly
// consistent with the previous checkpoint, and a crash after it is
// repaired by replaying the journal's pending ops. Reads still see the
// held writes through the pending overlay, so the scheme's
// read-your-writes view is unchanged.
//
// Call it at a quiescent point (after setup flush, before serving); it is
// not synchronized against in-flight WriteBatch calls.
func (p *Pipeline) SetJournaled() {
	p.mu.Lock()
	p.journaled = true
	p.mu.Unlock()
}

// Journaled reports whether the pipeline is in write-hold mode.
func (p *Pipeline) Journaled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.journaled
}

// Release advances the flush barrier: every held op with seq ≤ upTo may
// now reach the inner store. The proxy calls it right after the journal
// append that recorded those ops returns.
func (p *Pipeline) Release(upTo uint64) {
	p.mu.Lock()
	if upTo > p.released {
		p.released = upTo
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// PendingSnapshot returns the acked-but-unflushed writes (freshest per
// address, in sequence order — replaying them in that order reproduces
// the same final store state as the full write history) together with the
// highest sequence number assigned so far, which is what the caller hands
// to Release once the snapshot is durable. It costs O(writes in flight).
func (p *Pipeline) PendingSnapshot() ([]store.WriteOp, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ops := make([]store.WriteOp, 0, len(p.log)-p.logHead)
	for _, e := range p.log[p.logHead:] {
		// An entry is kept only when it is still its address's freshest
		// pending write. The block is owned by the pipeline and never
		// mutated after entry (flushes only delete map entries), so
		// aliasing is safe for the synchronous encode that follows.
		if pb, ok := p.pending[e.addr]; ok && pb.seq == e.seq {
			ops = append(ops, store.WriteOp{Addr: e.addr, Block: pb.data})
		}
	}
	return ops, p.seq
}

// trimLog drops the log's landed prefix: every leading entry that is no
// longer its address's freshest pending write. A failed flush leaves its
// entries pending, so trimming stops there rather than at a seq bound.
// Callers hold p.mu.
func (p *Pipeline) trimLog() {
	h := p.logHead
	for h < len(p.log) {
		if pb, ok := p.pending[p.log[h].addr]; ok && pb.seq == p.log[h].seq {
			break
		}
		h++
	}
	switch {
	case h == len(p.log):
		p.log, p.logHead = p.log[:0], 0
	case 2*h >= len(p.log):
		// Reuse the landed half instead of letting appends regrow the
		// slice past it; the copy is paid for by the h entries trimmed.
		n := copy(p.log, p.log[h:])
		p.log, p.logHead = p.log[:n], 0
	default:
		p.logHead = h
	}
}

// poison marks the pipeline dead with err (first error wins) and wakes
// every waiter. The proxy uses it when a checkpoint fails: unjournaled
// writes must never reach the store, so the pipeline cannot continue.
func (p *Pipeline) poison(err error) {
	p.mu.Lock()
	if p.sticky == nil {
		p.sticky = err
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// writer drains the job queue, coalescing whatever is already queued into
// one inner WriteBatch — consecutive accesses' evictions merge into a
// single round trip, which keeps the write path off the critical path even
// when writes are slower than reads (the disk-with-sync case).
func (p *Pipeline) writer() {
	defer close(p.done)
	for {
		j, ok := <-p.jobs
		if !ok {
			return
		}
		ops, seqs := j.ops, j.seqs
	coalesce:
		for len(ops) < coalesceCap {
			select {
			case more, ok := <-p.jobs:
				if !ok {
					p.dispatch(ops, seqs)
					return
				}
				ops = append(ops, more.ops...)
				seqs = append(seqs, more.seqs...)
			default:
				break coalesce
			}
		}
		p.dispatch(ops, seqs)
	}
}

// dispatch flushes one coalesced group, first honoring the journaled-mode
// release barrier: ops not yet covered by a durable checkpoint wait here.
// If the barrier can never advance (poisoned, or closed with a checkpoint
// missing), the group is DISCARDED rather than flushed — unjournaled
// writes reaching the store would desynchronize it from the journal, which
// is exactly the corruption the barrier exists to prevent; the accesses
// that produced them were never acknowledged.
func (p *Pipeline) dispatch(ops []store.WriteOp, seqs []uint64) {
	if len(seqs) > 0 && !p.waitReleased(seqs[len(seqs)-1]) {
		p.discard(ops, seqs)
		return
	}
	p.flush(ops, seqs)
}

// waitReleased blocks until the release barrier covers maxSeq, returning
// false when that will never happen.
func (p *Pipeline) waitReleased(maxSeq uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if !p.journaled || p.released >= maxSeq {
			return true
		}
		if p.sticky != nil || p.closed {
			return false
		}
		p.cond.Wait()
	}
}

// discard drops a never-released group, keeping the accounting honest so
// Flush and PendingWrites converge.
func (p *Pipeline) discard(ops []store.WriteOp, seqs []uint64) {
	p.mu.Lock()
	for i, op := range ops {
		if pb, ok := p.pending[op.Addr]; ok && pb.seq == seqs[i] {
			delete(p.pending, op.Addr)
		}
	}
	p.trimLog()
	p.inFlight -= len(ops)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// flush lands one coalesced batch, retrying transient failures, then
// clears the pending entries it proved durable.
func (p *Pipeline) flush(ops []store.WriteOp, seqs []uint64) {
	obsPipeFlushOps.Record(int64(len(ops)))
	t0 := time.Now()
	var err error
	for attempt := 0; attempt <= writeRetries; attempt++ {
		// The pending entries are the only other copy of these blocks:
		// they may be cleared only once the store has applied the batch,
		// so a posting inner store (store.Remote) is flushed inside the
		// attempt. By the time inFlight reaches zero — what Flush waits
		// for — nothing of ours is outstanding below.
		if err = p.inner.WriteBatch(ops); err == nil {
			err = store.Flush(p.inner)
		}
		if err == nil {
			break
		}
	}
	obsPipeFlush.Since(t0)
	p.mu.Lock()
	if err != nil {
		if p.sticky == nil {
			p.sticky = fmt.Errorf("proxy: write-behind flush failed after %d attempts: %w", writeRetries+1, err)
		}
	} else {
		for i, op := range ops {
			if pb, ok := p.pending[op.Addr]; ok && pb.seq == seqs[i] {
				delete(p.pending, op.Addr)
			}
		}
		p.trimLog()
	}
	p.inFlight -= len(ops)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ReadBatch implements store.BatchServer: the physical read always goes to
// the inner store (same addresses, same order — the access pattern is the
// privacy object and must not change), and any address with an in-flight
// write has its returned bytes overlaid with the pending data.
func (p *Pipeline) ReadBatch(addrs []int) ([]block.Block, error) {
	p.mu.Lock()
	if err := p.gate(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	var overlay []overlayBlock
	for i, a := range addrs {
		if pb, ok := p.pending[a]; ok {
			overlay = append(overlay, overlayBlock{i: i, data: pb.data})
		}
	}
	p.mu.Unlock()

	obsPipeReadBlocks.Record(int64(len(addrs)))
	t0 := time.Now()
	blocks, err := p.inner.ReadBatch(addrs)
	obsPipeRead.Since(t0)
	if err != nil {
		return nil, err
	}
	for _, o := range overlay {
		blocks[o.i] = o.data.Copy()
	}
	return blocks, nil
}

// overlayBlock is the pending data a ReadBatch returns at result index i.
type overlayBlock struct {
	i    int
	data block.Block
}

// WriteBatch implements store.BatchServer: record the ops as pending and
// hand them to the writer. The blocks are copied — callers may reuse their
// buffers the moment this returns, exactly as with a synchronous store. The
// copies are carved from one slab per batch (the job and its seqs genuinely
// transfer to the writer goroutine, so unlike the synchronous stores'
// scratch they cannot be reused — but the per-op block allocations can
// still collapse into one backing array).
func (p *Pipeline) WriteBatch(ops []store.WriteOp) error {
	if len(ops) == 0 {
		return nil
	}
	obsPipeWriteOps.Record(int64(len(ops)))
	cp := make([]store.WriteOp, len(ops))
	seqs := make([]uint64, len(ops))
	backing := 0
	for _, op := range ops {
		backing += len(op.Block)
	}
	buf := make([]byte, 0, backing)
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	p.mu.Lock()
	if err := p.gate(); err != nil {
		p.mu.Unlock()
		return err
	}
	for i, op := range ops {
		p.seq++
		start := len(buf)
		buf = append(buf, op.Block...)
		cp[i] = store.WriteOp{Addr: op.Addr, Block: block.Block(buf[start:len(buf):len(buf)])}
		seqs[i] = p.seq
		p.pending[op.Addr] = pendingBlock{seq: p.seq, data: cp[i].Block}
		p.log = append(p.log, logEntry{seq: p.seq, addr: op.Addr})
	}
	p.inFlight += len(ops)
	p.mu.Unlock()
	p.jobs <- job{ops: cp, seqs: seqs}
	return nil
}

// gate is the common closed/poisoned check; callers hold p.mu.
func (p *Pipeline) gate() error {
	if p.sticky != nil {
		return p.sticky
	}
	if p.closed {
		return ErrPipelineClosed
	}
	return nil
}

// Download implements store.Server via ReadBatch, so the overlay holds for
// per-block callers too.
func (p *Pipeline) Download(addr int) (block.Block, error) {
	blocks, err := p.ReadBatch([]int{addr})
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// Upload implements store.Server via WriteBatch.
func (p *Pipeline) Upload(addr int, b block.Block) error {
	return p.WriteBatch([]store.WriteOp{{Addr: addr, Block: b}})
}

// Size implements store.Server.
func (p *Pipeline) Size() int { return p.inner.Size() }

// BlockSize implements store.Server.
func (p *Pipeline) BlockSize() int { return p.inner.BlockSize() }

// Flush blocks until every enqueued write has landed (or the pipeline is
// poisoned) and returns the sticky error, if any. Call it after bulk
// setup, and before trusting the inner store's contents.
func (p *Pipeline) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inFlight > 0 && p.sticky == nil {
		p.cond.Wait()
	}
	return p.sticky
}

// PendingWrites returns the number of enqueued-but-not-landed ops.
func (p *Pipeline) PendingWrites() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inFlight
}

// Close drains the writer and shuts the pipeline down, returning the
// sticky error if the drain (or any earlier flush) failed. Callers must
// have quiesced first: a WriteBatch racing Close panics on the closed
// channel by design rather than losing data silently.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast() // wake a writer parked on the release barrier
	if !already {
		close(p.jobs)
	}
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sticky
}
