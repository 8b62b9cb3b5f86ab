// Package proxy is the concurrent multi-client serving layer for the
// privacy schemes: N clients share one scheme instance (DP-RAM, BucketRAM,
// Path ORAM) through a trusted proxy that serializes scheme-state
// mutations while pipelining the storage round trips underneath.
//
// This is the deployment shape of CAOS (Ordean–Ryan–Galindo) and of every
// "oblivious cloud storage" system built on a stateful client: the
// scheme's stash and position map are one logical party, so a scheduler
// goroutine owns the scheme and drains a request queue; concurrency lives
// below (the Pipeline overlapping round trips over a store.Pool) and above
// (any number of sessions enqueueing requests), never inside the scheme.
//
// Obliviousness under concurrency is the design constraint everything here
// bends around: the proxy issues exactly one real scheme access per queued
// request, in arrival order, with NO same-address deduplication and no
// request reordering. Deduplicating two in-flight requests for the same
// logical record — the classic "optimization" — would make the physical
// trace length a function of logical-address collisions, leaking equality
// of concurrent requests to the storage server. The regression tests in
// oblivious_test.go pin this: the trace the backing store sees depends
// only on the number and arrival order of requests, never on which
// sessions issued them or whether their addresses collide.
package proxy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/workload"
)

// Scheme is the stateful single-client privacy construction the proxy
// multiplexes: one logical access per call, not safe for concurrent use —
// exactly the contract of dpram.Client and pathoram.ORAM, both of which
// satisfy this interface unmodified.
type Scheme interface {
	// N returns the number of logical records.
	N() int
	// RecordSize returns the plaintext record size in bytes.
	RecordSize() int
	// Access performs one logical access and returns the record value
	// (previous value for writes).
	Access(q workload.Query) (block.Block, error)
}

// ErrClosed reports an access against a closed proxy.
var ErrClosed = errors.New("proxy: closed")

// DurableScheme is a Scheme whose client state can be checkpointed — the
// contract journaled proxies require. dpram.Client and pathoram.ORAM both
// satisfy it.
type DurableScheme interface {
	Scheme
	// MarshalState serializes the scheme's private client state (stash,
	// position map, keys) at an access boundary. The returned bytes are
	// never modified afterwards, by the scheme or by the caller; returning
	// the same slice again means the state has not changed (see
	// Checkpoint.State). A fresh slice per call always satisfies this.
	MarshalState() ([]byte, error)
}

// checkpointBurst bounds how many queued requests the scheduler executes
// between two checkpoints in journaled mode. Every request in a burst
// still gets its own scheme access, in arrival order, with no dedup — the
// burst changes only how many accesses share one journal fsync, the
// proxy-level analogue of the engine's group commit. Acks are withheld
// until the shared checkpoint is durable, so the durability contract per
// request is unchanged. The bound also caps how many held write jobs can
// queue behind the pipeline barrier, keeping well clear of the pipeline's
// backpressure depth (a blocked scheduler could otherwise deadlock against
// the writer it has not yet released).
const checkpointBurst = 16

// Options configures a Proxy.
type Options struct {
	// Queue is the request queue capacity: how many client requests may
	// wait behind the scheduler before Access applies backpressure. Zero
	// selects 64.
	Queue int
	// Pipeline ties the write-behind stage's lifecycle to the proxy:
	// Close drains and closes it, Flush waits on it. If the scheme was
	// set up over a Pipeline, it MUST be passed here — otherwise Flush
	// is a silent no-op and Close leaks the writer goroutine with writes
	// possibly still in flight. Leave nil only when the scheme writes
	// synchronously to its store; the proxy is then strictly serialized
	// (each access's write lands before the next access's read is
	// issued), which is what the exact-trace obliviousness tests use.
	Pipeline *Pipeline
}

// request is one queued client access.
type request struct {
	q    workload.Query
	resp chan result
}

type result struct {
	b   block.Block
	err error
}

// Proxy serves one Scheme to any number of concurrent callers. It
// implements store.Accessor, so a daemon can host it as a proxy-backed
// namespace (see Serve / store.Namespaces.AttachAccessor).
type Proxy struct {
	scheme     Scheme
	pipe       *Pipeline
	journal    *Journal
	records    int
	recordSize int

	reqs      chan request
	schedDone chan struct{}

	closeMu sync.RWMutex
	closed  bool
	senders sync.WaitGroup

	stickyMu sync.Mutex
	sticky   error // a failed checkpoint poisons the proxy

	accesses    atomic.Int64
	checkpoints atomic.Int64
	stashDepth  atomic.Int64 // scheme stash occupancy after the last access
}

// stashReporter is the scheduler's view of a scheme that exposes its
// stash occupancy (dpram.Client and pathoram.ORAM both do). The gauge is
// operational only — it is read by the proxy operator's metrics endpoint,
// never sent to the storage server, so exporting it does not widen the
// leakage to the adversary the schemes defend against.
type stashReporter interface {
	StashSize() int
}

// New starts a proxy serving scheme. The scheme must not be used directly
// once the proxy owns it — the scheduler goroutine is its only caller.
func New(scheme Scheme, opts Options) *Proxy {
	queue := opts.Queue
	if queue <= 0 {
		queue = 64
	}
	p := &Proxy{
		scheme:     scheme,
		pipe:       opts.Pipeline,
		records:    scheme.N(),
		recordSize: scheme.RecordSize(),
		reqs:       make(chan request, queue),
		schedDone:  make(chan struct{}),
	}
	go p.scheduler()
	return p
}

// NewDurable starts a journaled proxy: every access's effects — scheme
// state mutation AND physical writes — are made durable in the journal
// before the access is acknowledged, following the commit protocol on
// Journal. Requirements: the scheme was set up (or resumed) over
// opts.Pipeline, opts.Pipeline wraps the recovered physical store, and the
// journal already holds (or is about to receive, via the daemon's initial
// append) a checkpoint consistent with that store. The pipeline is
// switched into journaled write-hold mode here if it is not already.
func NewDurable(scheme DurableScheme, opts Options, journal *Journal) (*Proxy, error) {
	if journal == nil {
		return nil, errors.New("proxy: NewDurable requires a journal")
	}
	if opts.Pipeline == nil {
		return nil, errors.New("proxy: NewDurable requires the scheme's pipeline (synchronous writes would land before their checkpoint)")
	}
	opts.Pipeline.SetJournaled()
	queue := opts.Queue
	if queue <= 0 {
		queue = 64
	}
	p := &Proxy{
		scheme:     scheme,
		pipe:       opts.Pipeline,
		journal:    journal,
		records:    scheme.N(),
		recordSize: scheme.RecordSize(),
		reqs:       make(chan request, queue),
		schedDone:  make(chan struct{}),
	}
	go p.scheduler()
	return p, nil
}

// scheduler owns the scheme: requests execute one at a time in arrival
// order. One queued request is exactly one scheme access — no dedup, no
// reordering, no batching of "equal" requests (see the package comment for
// why that would be a privacy bug, not an optimization).
//
// In journaled mode the scheduler additionally group-commits durability:
// it drains up to checkpointBurst queued requests, executes each as its
// own access, writes ONE checkpoint covering them all, releases the
// pipeline barrier, and only then acknowledges them. The physical trace is
// identical to the non-journaled schedule (same accesses, same order);
// only the ack timing and the fsync amortization differ.
func (p *Proxy) scheduler() {
	defer close(p.schedDone)
	// Reused across bursts; cleared after the acks so that no served block
	// or query payload stays pinned until the slot is next overwritten.
	var (
		burst   []request
		results []result
	)
	for req := range p.reqs {
		if p.journal == nil {
			b, err := p.scheme.Access(req.q)
			p.accesses.Add(1)
			obsAccesses.Inc()
			p.updateStash()
			req.resp <- result{b: b, err: err}
			continue
		}
		burst = append(burst[:0], req)
	gather:
		for len(burst) < checkpointBurst {
			select {
			case more, ok := <-p.reqs:
				if !ok {
					break gather // closing: finish this burst, then exit
				}
				burst = append(burst, more)
			default:
				break gather
			}
		}
		if err := p.stickyErr(); err != nil {
			// A previous checkpoint failed: the scheme's in-memory state
			// has already diverged from the journal (its held writes were
			// discarded). Running more accesses — and above all writing
			// more checkpoints — would persist that divergence; fail the
			// queued requests instead.
			for _, r := range burst {
				r.resp <- result{err: err}
			}
			continue
		}
		obsCheckpointBurst.Record(int64(len(burst)))
		results = results[:0]
		for _, r := range burst {
			b, err := r.run(p)
			results = append(results, result{b: b, err: err})
		}
		if err := p.checkpoint(); err != nil {
			// The accesses happened in memory but their durability could
			// not be secured: fail them all (their held writes will be
			// discarded, the store stays at the previous checkpoint) and
			// poison the proxy — serving on would ack state that cannot
			// survive a restart.
			p.poison(err)
			for i := range results {
				results[i] = result{err: err}
			}
		}
		for i, r := range burst {
			r.resp <- results[i]
		}
		clear(burst)
		clear(results)
	}
}

// run executes one request against the scheme.
func (r request) run(p *Proxy) (block.Block, error) {
	b, err := p.scheme.Access(r.q)
	p.accesses.Add(1)
	obsAccesses.Inc()
	p.updateStash()
	return b, err
}

// updateStash refreshes the stash gauge from the scheme. Called only from
// the scheduler goroutine, right after an access — the one point where
// the scheme is quiescent and its stash well-defined.
func (p *Proxy) updateStash() {
	if sr, ok := p.scheme.(stashReporter); ok {
		p.stashDepth.Store(int64(sr.StashSize()))
	}
}

// checkpoint makes the current scheme state and all held writes durable,
// then releases them to the store — steps 2 and 3 of the Journal commit
// protocol.
func (p *Proxy) checkpoint() error {
	t0 := time.Now()
	state, err := p.scheme.(DurableScheme).MarshalState()
	if err != nil {
		return fmt.Errorf("proxy: marshaling scheme state: %w", err)
	}
	pending, seq := p.pipe.PendingSnapshot()
	if err := p.journal.Append(Checkpoint{State: state, Pending: pending}); err != nil {
		return fmt.Errorf("proxy: checkpoint: %w", err)
	}
	p.pipe.Release(seq)
	p.checkpoints.Add(1)
	obsCheckpoint.Since(t0)
	return nil
}

// poison marks the proxy (and its pipeline) permanently failed.
func (p *Proxy) poison(err error) {
	p.stickyMu.Lock()
	if p.sticky == nil {
		p.sticky = err
	}
	p.stickyMu.Unlock()
	p.pipe.poison(err)
}

// stickyErr returns the poisoning error, if any.
func (p *Proxy) stickyErr() error {
	p.stickyMu.Lock()
	defer p.stickyMu.Unlock()
	return p.sticky
}

// Access enqueues one logical access and blocks until the scheduler has
// executed it. Safe for any number of concurrent callers; requests are
// served in arrival order.
func (p *Proxy) Access(q workload.Query) (block.Block, error) {
	if q.Index < 0 || q.Index >= p.records {
		return nil, fmt.Errorf("proxy: index %d out of range [0,%d)", q.Index, p.records)
	}
	if q.Op == workload.Write && len(q.Data) != p.recordSize {
		return nil, fmt.Errorf("%w: got %d want %d", block.ErrSize, len(q.Data), p.recordSize)
	}
	if err := p.stickyErr(); err != nil {
		return nil, err
	}
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return nil, ErrClosed
	}
	p.senders.Add(1)
	p.closeMu.RUnlock()
	defer p.senders.Done()

	req := request{q: q, resp: make(chan result, 1)}
	p.reqs <- req
	res := <-req.resp
	return res.b, res.err
}

// Read retrieves record i.
func (p *Proxy) Read(i int) (block.Block, error) {
	return p.Access(workload.Query{Index: i, Op: workload.Read})
}

// Write overwrites record i and returns the previous value.
func (p *Proxy) Write(i int, b block.Block) (block.Block, error) {
	return p.Access(workload.Query{Index: i, Op: workload.Write, Data: b})
}

// Records implements store.Accessor.
func (p *Proxy) Records() int { return p.records }

// RecordSize implements store.Accessor.
func (p *Proxy) RecordSize() int { return p.recordSize }

// AccessRecord implements store.Accessor — the serve loop's entry point.
func (p *Proxy) AccessRecord(index int, write bool, data block.Block) (block.Block, error) {
	q := workload.Query{Index: index, Op: workload.Read}
	if write {
		q.Op = workload.Write
		q.Data = data
	}
	return p.Access(q)
}

// Partitions reports a single-scheme proxy as one partition, so the serve
// loop's handshake advertises a partition count for every proxy-backed
// namespace (Partitioned overrides this with P).
func (p *Proxy) Partitions() int { return 1 }

// Accesses returns the number of scheme accesses executed so far.
func (p *Proxy) Accesses() int64 { return p.accesses.Load() }

// StashDepth returns the scheme's stash occupancy as of the last access
// (0 when the scheme exposes no stash). A stash that grows without bound
// under load is the canonical ORAM failure mode; this gauge is how an
// operator sees it coming.
func (p *Proxy) StashDepth() int { return int(p.stashDepth.Load()) }

// QueueDepth returns how many requests are waiting for the scheduler
// right now.
func (p *Proxy) QueueDepth() int { return len(p.reqs) }

// LoadDepth implements the serve loop's depth gauge (store's
// depthReporter): the stash occupancy, the proxy-backed namespace's most
// load-relevant depth.
func (p *Proxy) LoadDepth() uint64 { return uint64(p.StashDepth()) }

// Flush waits until every write the scheme has issued so far has landed on
// the backing store (a no-op without a Pipeline: writes were synchronous).
// It makes no claim about requests still queued or in flight — quiesce
// your own senders first, as after bulk setup or at the end of a test.
func (p *Proxy) Flush() error {
	if p.pipe != nil {
		return p.pipe.Flush()
	}
	return nil
}

// Close stops accepting requests, waits for the queued ones to finish, and
// drains the attached pipeline. Concurrent Access calls either complete or
// return ErrClosed. A journaled proxy writes one final checkpoint (empty
// pending set) after the pipeline drains, so a clean shutdown replays
// nothing on the next start, then closes the journal.
func (p *Proxy) Close() error {
	p.closeMu.Lock()
	already := p.closed
	p.closed = true
	p.closeMu.Unlock()
	if already {
		// Idempotent like Pipeline.Close and Durable.Close: the first
		// Close owns the final checkpoint; later calls just wait it out.
		<-p.schedDone
		return nil
	}
	p.senders.Wait() // every admitted request has been answered
	close(p.reqs)
	<-p.schedDone
	if p.pipe == nil {
		return nil
	}
	err := p.pipe.Close()
	if p.journal != nil {
		if err == nil && p.stickyErr() == nil {
			// Pipeline drained clean: record the quiesced state. The
			// scheduler has exited, so reading the scheme here is safe.
			if state, merr := p.scheme.(DurableScheme).MarshalState(); merr == nil {
				if aerr := p.journal.Append(Checkpoint{State: state}); aerr != nil && err == nil {
					err = aerr
				}
			} else {
				err = merr
			}
		}
		if cerr := p.journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Epoch returns the journal's recovery epoch (0 for a non-durable proxy).
func (p *Proxy) Epoch() uint64 {
	if p.journal == nil {
		return 0
	}
	return p.journal.Epoch()
}

// Checkpoints returns how many durable checkpoints have been written since
// start (0 for a non-durable proxy).
func (p *Proxy) Checkpoints() int64 { return p.checkpoints.Load() }

// Session is one client's handle on a shared proxy. Sessions add no
// privacy state — that is the point: the trace must not depend on which
// session issued a request — but they meter per-client traffic and give
// each wire connection or goroutine an owned endpoint.
type Session struct {
	p        *Proxy
	accesses atomic.Int64
}

// NewSession returns a new client handle.
func (p *Proxy) NewSession() *Session { return &Session{p: p} }

// Access enqueues one access on behalf of this session.
func (s *Session) Access(q workload.Query) (block.Block, error) {
	b, err := s.p.Access(q)
	s.accesses.Add(1)
	return b, err
}

// Read retrieves record i.
func (s *Session) Read(i int) (block.Block, error) {
	return s.Access(workload.Query{Index: i, Op: workload.Read})
}

// Write overwrites record i and returns the previous value.
func (s *Session) Write(i int, b block.Block) (block.Block, error) {
	return s.Access(workload.Query{Index: i, Op: workload.Write, Data: b})
}

// Accesses returns how many accesses this session has issued.
func (s *Session) Accesses() int64 { return s.accesses.Load() }
