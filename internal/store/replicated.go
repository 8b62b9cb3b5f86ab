package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dpstore/internal/block"
)

// This file implements replication as a first-class store subsystem: a
// Replicated BatchServer that fans writes to N replicas with a write
// quorum, serves reads from one replica chosen by a data-INDEPENDENT
// policy, ejects dead replicas, and resynchronizes them when they return
// — all behind the same BatchServer interface every construction, the
// proxy Pipeline, and the wire serve loop already speak.
//
// The privacy argument mirrors the multi-server DP-IR setting (our
// dpir.Multi, Theorem 5.x constructions): the paper's model already
// assumes D ≥ 2 non-colluding replicas, and each replica's view must on
// its own satisfy the DP/obliviousness guarantee. Replication must
// therefore never let REPLICA CHOICE become a side channel:
//
//   - Writes fan out to every replica identically, so each replica's
//     upload trace is the construction's upload trace, unchanged.
//   - The read replica is chosen by health state and a seeded counter
//     only — never by address, block contents, or any other per-request
//     data. Under ReadSticky one replica sees the full download trace and
//     the others see none of it; under ReadRotate each replica sees a
//     health-and-round-robin-determined subsample. In both cases the
//     selection function's inputs are (health events, request ordinal),
//     both of which the adversary observes anyway.
//   - Failover re-issues the SAME address multiset to the next replica,
//     so the client-visible transcript — and the per-query trace shape
//     any replica sees — is invariant across replica failures (pinned by
//     TestReplicatedShapeInvariance).
//
// Consistency model: a WriteBatch is acknowledged once WriteQuorum
// replicas in the Up state have durably applied it (for remote replicas
// backed by the WAL engine, their ack is itself post-fsync). An ack from
// a replica that is Down or still resynchronizing NEVER counts toward
// the quorum — that is the epoch rule: a replica is promoted to Up at a
// recorded epoch, and once its connection dies or its epoch changes it
// must complete a resync before its acks count again. Reads are served
// only by Up replicas that have applied every acknowledged write (a
// per-replica applied-sequence watermark; the read path waits for the
// chosen replica to catch up, which changes timing but never the trace).
//
// Resync: while a replica is Down, every write it misses is recorded in
// a per-replica dirty map (freshest block per address — the only state a
// rejoining replica needs, bounded by the store size). The repair
// goroutine probes Down replicas with exponential backoff; on a
// successful probe (for remote replicas: a redial, with a ResyncCheck
// round trip pinning the epoch against restart races) the replica enters
// Syncing: new writes flow to it again (not counted toward quorum), the
// repair goroutine streams the dirty backlog — or, when the replica
// cannot prove it kept its pre-crash state (epoch 0 after a redial), a
// full copy from a healthy peer — in ScanWindow batches, and a final
// atomic promotion makes it read-eligible. Writes racing the stream are
// protected by a per-replica freshness set: an address written by the
// live path after Syncing began is skipped by the stream (the live write
// is newer), serialized by a per-replica sync mutex.
const (
	// replicatedQueueDepth bounds each replica's in-order write queue
	// before WriteBatch callers feel backpressure.
	replicatedQueueDepth = 64

	// defaultProbeInterval and maxProbeInterval bound the repair loop's
	// exponential backoff between probes of a Down replica.
	defaultProbeInterval = 25 * time.Millisecond
	defaultMaxProbe      = time.Second

	// enqueueTimeout is how long a write fan-out will wait on one
	// replica's full queue before declaring the replica unresponsive and
	// ejecting it. The full queue is the cluster's backpressure — a
	// merely SLOW replica gets the queue depth plus this grace period to
	// catch up, which it does unless it is truly wedged (a black-holed
	// connection blocking its writer inside a TCP send with no error to
	// fail fast on). Without the bound, one wedged replica would stall
	// every cluster write behind sendMu for the TCP timeout (minutes);
	// without the grace, a replica that is healthy but briefly starved
	// would be spuriously ejected and churned through resync.
	enqueueTimeout = time.Second
)

// ErrReplicatedClosed reports an operation on a closed Replicated.
var ErrReplicatedClosed = errors.New("store: replicated cluster closed")

// ErrNoReplicas reports a read with no Up replica to serve it.
var ErrNoReplicas = errors.New("store: no replica available")

// ErrQuorum reports a write that could not gather its quorum.
var ErrQuorum = errors.New("store: write quorum not reached")

// ReadPolicy selects how Replicated picks the replica serving a read.
// Both policies are data-independent: the choice is a function of replica
// health and a per-cluster counter only, never of addresses or contents.
type ReadPolicy int

const (
	// ReadSticky serves every read from one replica (seed-chosen) until
	// it fails, then fails over to the next Up replica and sticks there.
	// One replica sees the full download trace; the others see none.
	ReadSticky ReadPolicy = iota
	// ReadRotate rotates reads across Up replicas round-robin from a
	// seeded start, spreading read load N-ways (the fan-out win measured
	// in EXPERIMENTS.md §Replication).
	ReadRotate
)

// ReplicaState is one replica's position in the failover/resync machine.
type ReplicaState int

const (
	// ReplicaUp: fully caught up; receives writes (acks count toward the
	// quorum) and is eligible to serve reads.
	ReplicaUp ReplicaState = iota
	// ReplicaSyncing: reachable again and receiving new writes, but the
	// missed-write backlog is still streaming; acks do not count and
	// reads are not served from it.
	ReplicaSyncing
	// ReplicaDown: unreachable or failed; writes are recorded in its
	// dirty backlog, reads never touch it, the repair loop probes it.
	ReplicaDown
)

// String returns the state's wire/status name.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaUp:
		return "up"
	case ReplicaSyncing:
		return "syncing"
	case ReplicaDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ReplicaSpec describes one member of a Replicated cluster.
type ReplicaSpec struct {
	// Name identifies the replica in status reports ("replica0" when empty).
	Name string
	// Backend is the replica's store. Must match the other replicas' shape.
	Backend BatchServer
	// Redial, when set, rebuilds the backend after a failure (the TCP
	// case: the old connection is dead, a new one must be dialed). When
	// nil the repair loop probes the existing backend (the in-process
	// case: the backend object survives transient faults).
	Redial func() (BatchServer, error)
}

// ReplicatedOptions configures a Replicated cluster.
type ReplicatedOptions struct {
	// WriteQuorum is W: a write is acknowledged after W Up replicas
	// applied it. 0 means majority (N/2+1). W=N gives read-anywhere
	// strictness at the price of availability; W<N tolerates N-W dead
	// replicas with zero write failures.
	WriteQuorum int
	// ReadPolicy is the data-independent read-replica selection policy.
	ReadPolicy ReadPolicy
	// Seed offsets the initial read-replica choice (sticky) or rotation
	// phase (rotate), so distinct clusters spread load without any
	// per-request data entering the choice.
	Seed int64
	// ProbeInterval is the repair loop's initial backoff between probes
	// of a Down replica (default 25ms, doubling to MaxProbeInterval).
	ProbeInterval time.Duration
	// MaxProbeInterval caps the backoff (default 1s).
	MaxProbeInterval time.Duration
}

// ReplicaStatus is one replica's externally visible health snapshot.
type ReplicaStatus struct {
	Name  string
	State ReplicaState
	// Epoch is the recovery epoch the replica was last promoted at (0
	// for replicas making no durability claim).
	Epoch uint64
	// Dirty is the resync backlog: distinct addresses holding writes the
	// replica has missed.
	Dirty int
	// LastErr is the failure that caused the most recent ejection
	// (empty for a replica that has never been ejected, and cleared on
	// promotion). In-process diagnostic only; not carried on the wire.
	LastErr string
}

// epocher is the optional epoch surface of a replica backend (Remote and
// Pool implement it; in-process stores do not and report 0).
type epocher interface{ Epoch() uint64 }

// resyncChecker is the optional pre-stream epoch pin of a replica
// backend (Remote implements it via MsgResyncReq). It confirms the
// backend still serves the given epoch, closing the race where a replica
// restarts between the repair loop's redial and its resync stream.
type resyncChecker interface {
	ResyncCheck(expect uint64) (epoch uint64, ok bool, err error)
}

// replica is one cluster member's runtime state.
type replica struct {
	name   string
	redial func() (BatchServer, error)
	jobs   chan repJob
	wdone  chan struct{}

	// syncMu serializes live write application against resync-stream
	// windows on this replica's backend, so a stream window can never
	// overwrite an address a newer live write already landed.
	syncMu sync.Mutex

	// The fields below are guarded by Replicated.mu.
	state    ReplicaState
	backend  BatchServer
	epoch    uint64
	applied  uint64             // highest write seq applied (or accounted to dirty)
	enqueued uint64             // highest seq handed (or about to be handed) to the queue
	drained  uint64             // highest seq the writer has finished processing
	dirty    map[int]dirtyEntry // writes missed while Down (freshest per addr)
	fresh    map[int]uint64     // addr → highest seq live-applied since Syncing began
	needFul  bool               // next resync must be a full copy
	lastErr  string             // cause of the most recent ejection
	probeAt  time.Time          // next probe due
	backoff  time.Duration
}

// dirtyEntry is one backlogged write: the block plus the cluster write
// sequence that produced it, so a backlog insert can never replace a
// newer value with an older one regardless of which path (in-order
// queue drain or the full-queue bypass) recorded it, and the resync
// stream can prove an entry it just landed was not superseded before
// deleting it.
type dirtyEntry struct {
	seq  uint64
	data block.Block
}

// shunt records ops in the replica's backlog, newest sequence wins.
// The comparison is <=, not <: a batch may carry the same address twice
// (the pipeline coalesces eviction batches), and applying it in order
// leaves the LATER duplicate behind — the backlog must agree, or the
// resync stream re-installs the earlier duplicate on the rejoining
// replica while every live replica holds the later one. Callers hold
// Replicated.mu.
func (rep *replica) shunt(ops []WriteOp, seq uint64) {
	for _, op := range ops {
		if e, ok := rep.dirty[op.Addr]; !ok || e.seq <= seq {
			rep.dirty[op.Addr] = dirtyEntry{seq: seq, data: op.Block}
		}
	}
}

// noteApplied advances the replica's accounted-sequence watermark.
// Callers hold Replicated.mu. max() rather than assignment: the
// full-queue bypass accounts a batch out of order, ahead of jobs still
// draining through the queue.
func (rep *replica) noteApplied(seq uint64) {
	if seq > rep.applied {
		rep.applied = seq
	}
}

// repJob is one entry in a replica's in-order write queue.
type repJob struct {
	ops []WriteOp
	seq uint64
	res *fanResult
}

// fanResult collects per-replica outcomes for one fanned-out WriteBatch.
// ack() counts an Up replica's successful apply; miss() counts a failure
// or a non-Up apply. The waiter is released as soon as the quorum is
// reached (stragglers keep applying in their queues) or provably
// unreachable.
type fanResult struct {
	mu     sync.Mutex
	acks   int
	misses int
	need   int
	total  int
	ok     bool
	done   chan struct{}
	closed bool
}

func newFanResult(need, total int) *fanResult {
	return &fanResult{need: need, total: total, done: make(chan struct{})}
}

func (f *fanResult) ack() {
	f.mu.Lock()
	f.acks++
	if f.acks >= f.need && !f.closed {
		f.ok, f.closed = true, true
		close(f.done)
	}
	f.mu.Unlock()
}

func (f *fanResult) miss() {
	f.mu.Lock()
	f.misses++
	if f.total-f.misses < f.need && !f.closed {
		f.closed = true
		close(f.done)
	}
	f.mu.Unlock()
}

// wait blocks until the quorum is reached or unreachable.
func (f *fanResult) wait() (acks int, ok bool) {
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acks, f.ok
}

// Replicated is a BatchServer fronting N replica stores: quorum writes,
// data-independent read selection with automatic failover, and
// epoch-aware resync of rejoining replicas. See the file comment for the
// full model. Safe for concurrent use; Close only after callers quiesce.
type Replicated struct {
	size      int
	blockSize int
	quorum    int
	policy    ReadPolicy
	probeInit time.Duration
	probeMax  time.Duration

	// sendMu serializes write-sequence assignment with the fanout
	// enqueue, so every replica's queue receives the same batches in the
	// same order even when WriteBatch callers race (the same discipline
	// as proxy.Pipeline.sendMu).
	sendMu sync.Mutex

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on replica state/applied changes
	reps   []*replica
	seq    uint64 // last assigned write sequence
	ackSeq uint64 // highest quorum-acknowledged write sequence
	cursor uint64 // rotation counter (ReadRotate)
	sticky int    // current read replica (ReadSticky)
	closed bool

	probeWake chan struct{}
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewReplicated builds a cluster over the given replicas. All backends
// must report the same shape. See ReplicatedOptions for the quorum and
// read-policy semantics.
func NewReplicated(specs []ReplicaSpec, opts ReplicatedOptions) (*Replicated, error) {
	if len(specs) == 0 {
		return nil, errors.New("store: replicated cluster needs at least one replica")
	}
	quorum := opts.WriteQuorum
	if quorum == 0 {
		quorum = len(specs)/2 + 1
	}
	if quorum < 1 || quorum > len(specs) {
		return nil, fmt.Errorf("store: write quorum %d out of range [1,%d]", quorum, len(specs))
	}
	probeInit := opts.ProbeInterval
	if probeInit <= 0 {
		probeInit = defaultProbeInterval
	}
	probeMax := opts.MaxProbeInterval
	if probeMax <= 0 {
		probeMax = defaultMaxProbe
	}
	r := &Replicated{
		quorum:    quorum,
		policy:    opts.ReadPolicy,
		probeInit: probeInit,
		probeMax:  probeMax,
		probeWake: make(chan struct{}, 1),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for i, spec := range specs {
		if spec.Backend == nil {
			return nil, fmt.Errorf("store: replica %d has no backend", i)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("replica%d", i)
		}
		if i == 0 {
			r.size, r.blockSize = spec.Backend.Size(), spec.Backend.BlockSize()
			if r.size <= 0 || r.blockSize <= 0 {
				return nil, fmt.Errorf("store: replica %q reports invalid shape %d × %d", name, r.size, r.blockSize)
			}
		} else if spec.Backend.Size() != r.size || spec.Backend.BlockSize() != r.blockSize {
			return nil, fmt.Errorf("store: replica %q has shape %d × %d, want %d × %d",
				name, spec.Backend.Size(), spec.Backend.BlockSize(), r.size, r.blockSize)
		}
		rep := &replica{
			name:    name,
			redial:  spec.Redial,
			backend: spec.Backend,
			jobs:    make(chan repJob, replicatedQueueDepth),
			wdone:   make(chan struct{}),
			dirty:   make(map[int]dirtyEntry),
		}
		if e, ok := spec.Backend.(epocher); ok {
			rep.epoch = e.Epoch()
		}
		r.reps = append(r.reps, rep)
	}
	// Seeded, data-independent starting choice: which replica serves the
	// sticky reads (or the rotation phase). Normalize a negative seed.
	seed := opts.Seed % int64(len(r.reps))
	if seed < 0 {
		seed += int64(len(r.reps))
	}
	r.sticky = int(seed)
	r.cursor = uint64(seed)
	for _, rep := range r.reps {
		go r.runWriter(rep)
	}
	go r.runRepair()
	registerReplicaObs(r)
	return r, nil
}

// Size implements Server.
func (r *Replicated) Size() int { return r.size }

// BlockSize implements Server.
func (r *Replicated) BlockSize() int { return r.blockSize }

// Quorum returns the configured write quorum W.
func (r *Replicated) Quorum() int { return r.quorum }

// ReplicaStatus returns a health snapshot of every replica, in cluster
// order. The wire serve loop exports it via MsgReplStatusReq on daemons
// running a replicated namespace.
func (r *Replicated) ReplicaStatus() []ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplicaStatus, len(r.reps))
	for i, rep := range r.reps {
		out[i] = ReplicaStatus{Name: rep.name, State: rep.state, Epoch: rep.epoch, Dirty: len(rep.dirty), LastErr: rep.lastErr}
	}
	return out
}

// validate rejects malformed batches before fanout: a bad address or a
// ragged block would fail on EVERY replica and eject the whole healthy
// cluster for a caller bug.
func (r *Replicated) validate(addrs []int, ops []WriteOp) error {
	for _, a := range addrs {
		if a < 0 || a >= r.size {
			return fmt.Errorf("%w: %d (size %d)", ErrAddr, a, r.size)
		}
	}
	for _, op := range ops {
		if op.Addr < 0 || op.Addr >= r.size {
			return fmt.Errorf("%w: %d (size %d)", ErrAddr, op.Addr, r.size)
		}
		if len(op.Block) != r.blockSize {
			return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(op.Block), r.blockSize)
		}
	}
	return nil
}

// WriteBatch implements BatchServer: assign the batch a cluster-wide
// sequence number, enqueue it on every replica's in-order queue, and
// return once WriteQuorum Up replicas have applied it. Replicas that are
// Down record the batch in their dirty backlog (counted as a miss); a
// replica whose apply fails is ejected. The ops are copied — callers may
// reuse their buffers immediately, as with every other store.
func (r *Replicated) WriteBatch(ops []WriteOp) error {
	if len(ops) == 0 {
		return nil
	}
	if err := r.validate(nil, ops); err != nil {
		return err
	}
	cp := make([]WriteOp, len(ops))
	for i, op := range ops {
		cp[i] = WriteOp{Addr: op.Addr, Block: op.Block.Copy()}
	}
	r.sendMu.Lock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.sendMu.Unlock()
		return ErrReplicatedClosed
	}
	r.seq++
	seq := r.seq
	res := newFanResult(r.quorum, len(r.reps))
	r.mu.Unlock()
	for _, rep := range r.reps {
		// A Down replica's jobs would only transit the queue to be
		// shunted by its writer — and a WEDGED writer (hung inside a
		// dead connection's send) never drains the queue at all, so the
		// backlog is recorded here directly. The shunt shares the lock
		// hold with the state check: the promotion gate (also under mu)
		// either runs after and sees the new backlog (demotes), or ran
		// before and this branch is not taken.
		r.mu.Lock()
		if rep.state == ReplicaDown {
			rep.shunt(cp, seq)
			rep.noteApplied(seq)
			r.mu.Unlock()
			r.cond.Broadcast()
			res.miss()
			continue
		}
		// Record the enqueue intent BEFORE the send: the repair loop's
		// queue-drain barrier reads this under mu, and recording after
		// the send would let it flip to Syncing between the two and
		// stream the backlog while this job is still queued behind it.
		prevEnqueued := rep.enqueued
		rep.enqueued = seq
		r.mu.Unlock()
		select {
		case rep.jobs <- repJob{ops: cp, seq: seq, res: res}:
			continue
		default:
		}
		// Queue full: give the replica a bounded grace period (the
		// cluster's backpressure — a slow-but-alive replica drains well
		// within it), then declare it unresponsive and eject. Blocking
		// indefinitely would stall EVERY cluster write behind one
		// black-holed replica, defeating the W-of-N availability claim;
		// the batch goes to the backlog instead (sequence-tagged, so
		// older queued jobs draining later can never overwrite it).
		timer := time.NewTimer(enqueueTimeout)
		select {
		case rep.jobs <- repJob{ops: cp, seq: seq, res: res}:
			timer.Stop()
		case <-timer.C:
			r.mu.Lock()
			if rep.state != ReplicaDown {
				rep.state = ReplicaDown
				rep.lastErr = "write queue full (replica unresponsive)"
				rep.backoff = r.probeInit
				rep.probeAt = time.Now().Add(rep.backoff)
			}
			rep.shunt(cp, seq)
			rep.noteApplied(seq)
			// The job never entered the queue: roll the enqueue intent
			// back (sendMu serializes senders, so nothing advanced it in
			// between) or the drain barrier would wait for a drain that
			// can never happen.
			rep.enqueued = prevEnqueued
			r.mu.Unlock()
			r.cond.Broadcast()
			r.wakeRepair()
			// Tear down the suspect connection so the wedged writer
			// errors out and drains the queue — resolving the quorum
			// votes of every batch parked in it.
			r.unblockWedged(rep)
			res.miss()
		}
	}
	r.sendMu.Unlock()

	acks, ok := res.wait()
	if !ok {
		return fmt.Errorf("%w: %d/%d acks, need %d", ErrQuorum, acks, len(r.reps), r.quorum)
	}
	r.mu.Lock()
	if seq > r.ackSeq {
		r.ackSeq = seq
	}
	r.mu.Unlock()
	return nil
}

// ReadBatch implements BatchServer: pick one replica by the configured
// data-independent policy, wait until it has applied every acknowledged
// write (read-your-writes across the whole cluster), and read. A failing
// replica is ejected and the SAME batch retries on the next Up replica,
// so a replica failure is invisible to the caller — both in the result
// and in the trace shape.
func (r *Replicated) ReadBatch(addrs []int) ([]block.Block, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	if err := r.validate(addrs, nil); err != nil {
		return nil, err
	}
	for {
		rep, backend, err := r.pickRead()
		if err != nil {
			return nil, err
		}
		blocks, rerr := backend.ReadBatch(addrs)
		if rerr == nil {
			return blocks, nil
		}
		r.eject(rep, backend, rerr)
	}
}

// pickRead chooses the read replica per policy and blocks until it is
// caught up to the acknowledged-write watermark. The choice depends only
// on replica health and the rotation counter — the addresses being read
// are not in scope here at all.
func (r *Replicated) pickRead() (*replica, BatchServer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, nil, ErrReplicatedClosed
		}
		ups := make([]int, 0, len(r.reps))
		for i, rep := range r.reps {
			if rep.state == ReplicaUp {
				ups = append(ups, i)
			}
		}
		if len(ups) == 0 {
			return nil, nil, fmt.Errorf("%w: all %d replicas down or syncing", ErrNoReplicas, len(r.reps))
		}
		var idx int
		switch r.policy {
		case ReadRotate:
			idx = ups[int(r.cursor%uint64(len(ups)))]
			r.cursor++
		default: // ReadSticky
			if r.reps[r.sticky].state == ReplicaUp {
				idx = r.sticky
			} else {
				// Sticky failover: advance to the next Up replica (in
				// cluster order, wrapping) and stick there.
				idx = ups[0]
				for _, u := range ups {
					if u > r.sticky {
						idx = u
						break
					}
				}
				r.sticky = idx
			}
		}
		rep := r.reps[idx]
		watermark := r.ackSeq
		// Wait for the chosen replica to catch up; if it leaves Up while
		// we wait, re-pick from scratch. The wait is BOUNDED: an Up
		// replica whose writer is wedged inside a black-holed connection
		// never errors and never advances, and an unbounded wait here
		// would hang reads for the kernel TCP timeout — the same hazard
		// enqueueTimeout bounds on the write path. On timeout the
		// laggard is ejected (its suspect backend closed so the wedged
		// writer unblocks and drains) and the pick restarts.
		if rep.state == ReplicaUp && rep.applied < watermark {
			deadline := time.Now().Add(enqueueTimeout)
			for rep.state == ReplicaUp && rep.applied < watermark && !r.closed {
				if !time.Now().Before(deadline) {
					rep.state = ReplicaDown
					rep.lastErr = "read watermark wait timed out (replica not applying writes)"
					rep.backoff = r.probeInit
					rep.probeAt = time.Now().Add(rep.backoff)
					break
				}
				// Re-armed every iteration: a one-shot wake can be lost
				// to an unrelated broadcast arriving just before it
				// fires (nobody in Wait at that instant), which would
				// turn this bounded wait back into an indefinite hang
				// in an otherwise idle cluster.
				wake := time.AfterFunc(time.Until(deadline)+time.Millisecond, r.cond.Broadcast)
				r.cond.Wait()
				wake.Stop()
			}
			if rep.state != ReplicaUp {
				// Release mu around the teardown: closing a backend is
				// I/O, and unblockWedged re-acquires mu itself.
				r.mu.Unlock()
				r.cond.Broadcast()
				r.wakeRepair()
				r.unblockWedged(rep)
				r.mu.Lock()
				continue
			}
		}
		if r.closed {
			return nil, nil, ErrReplicatedClosed
		}
		return rep, rep.backend, nil
	}
}

// unblockWedged closes a redialed replica's current backend. A writer
// wedged inside a black-holed connection's send only returns when the
// connection is torn down; closing it converts the wedge into an error,
// so the writer drains its queue (resolving every queued batch's quorum
// vote as a miss) instead of holding W=N callers hostage for the kernel
// TCP timeout. In-process backends (no redial) have no connection to
// tear down and are left alone.
func (r *Replicated) unblockWedged(rep *replica) {
	if rep.redial == nil {
		return
	}
	r.mu.Lock()
	backend := rep.backend
	r.mu.Unlock()
	r.closeBackend(backend)
}

// eject marks a replica Down after an observed failure (sticky ejection:
// it serves nothing until a probe and a resync bring it back) and wakes
// the repair loop. The failure only counts if it came from the replica's
// CURRENT backend: a read that raced a redial-and-promote cycle errors
// on the replaced (closed) connection, and demoting the freshly revived
// replica for that stale failure would churn it — or, with the rest of
// the cluster down, wrongly fail the caller.
func (r *Replicated) eject(rep *replica, observed BatchServer, cause error) {
	r.mu.Lock()
	if rep.backend == observed && rep.state != ReplicaDown {
		rep.state = ReplicaDown
		rep.lastErr = cause.Error()
		rep.backoff = r.probeInit
		rep.probeAt = time.Now().Add(rep.backoff)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	r.wakeRepair()
}

// Download implements Server via ReadBatch.
func (r *Replicated) Download(addr int) (block.Block, error) {
	blocks, err := r.ReadBatch([]int{addr})
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// Upload implements Server via WriteBatch.
func (r *Replicated) Upload(addr int, b block.Block) error {
	return r.WriteBatch([]WriteOp{{Addr: addr, Block: b}})
}

// runWriter is one replica's apply loop: it drains the in-order queue,
// applying batches to the backend (Up/Syncing) or recording them in the
// dirty backlog (Down). A failed apply ejects the replica and converts
// the batch to backlog — the write is not lost, just deferred to resync.
func (r *Replicated) runWriter(rep *replica) {
	defer close(rep.wdone)
	for j := range rep.jobs {
		r.mu.Lock()
		if rep.state == ReplicaDown {
			// Shunt to the backlog INSIDE the same lock hold that read
			// the state: a separate re-acquisition would leave a window
			// for the repair goroutine to stream-and-promote in between,
			// and backlog inserted into an Up replica is never repaired.
			rep.shunt(j.ops, j.seq)
			rep.noteApplied(j.seq)
			rep.drained = j.seq
			r.mu.Unlock()
			r.cond.Broadcast()
			j.res.miss()
			continue
		}
		backend := rep.backend
		r.mu.Unlock()

		rep.syncMu.Lock()
		err := writeApplied(backend, j.ops)
		r.mu.Lock()
		if err != nil {
			wasDown := rep.state == ReplicaDown
			rep.state = ReplicaDown
			rep.lastErr = err.Error()
			if !wasDown {
				rep.backoff = r.probeInit
				rep.probeAt = time.Now().Add(rep.backoff)
			}
			rep.shunt(j.ops, j.seq)
			rep.noteApplied(j.seq)
			rep.drained = j.seq
			r.mu.Unlock()
			rep.syncMu.Unlock()
			r.cond.Broadcast()
			r.wakeRepair()
			j.res.miss()
			continue
		}
		countsTowardQuorum := rep.state == ReplicaUp
		if rep.state == ReplicaSyncing {
			// The live write supersedes anything OLDER the resync stream
			// holds for these addresses; record the applied sequence so
			// the stream skips exactly the superseded entries (a NEWER
			// backlog entry — possible via the full-queue bypass — must
			// still be streamed), and drop the not-newer ones.
			for _, op := range j.ops {
				rep.fresh[op.Addr] = j.seq
				if e, ok := rep.dirty[op.Addr]; ok && e.seq <= j.seq {
					delete(rep.dirty, op.Addr)
				}
			}
		}
		rep.noteApplied(j.seq)
		rep.drained = j.seq
		r.mu.Unlock()
		rep.syncMu.Unlock()
		r.cond.Broadcast()
		if countsTowardQuorum {
			j.res.ack()
		} else {
			j.res.miss()
		}
	}
}

// escalateBackoffLocked grows a replica's probe backoff toward the cap.
// Used by repair-CYCLE failures (stream errors, promotion-gate demotes),
// so a persistently broken replica decays to MaxProbeInterval instead of
// churning redial+stream at a constant rate; a FRESH ejection resets to
// ProbeInterval instead, since the first retry should be prompt. Callers
// hold Replicated.mu.
func (r *Replicated) escalateBackoffLocked(rep *replica) {
	rep.backoff *= 2
	if rep.backoff < r.probeInit {
		rep.backoff = r.probeInit
	}
	if rep.backoff > r.probeMax {
		rep.backoff = r.probeMax
	}
	rep.probeAt = time.Now().Add(rep.backoff)
}

// wakeRepair nudges the repair loop without blocking.
func (r *Replicated) wakeRepair() {
	select {
	case r.probeWake <- struct{}{}:
	default:
	}
}

// runRepair is the repair goroutine: it probes Down replicas on an
// exponential backoff and, when one answers, resynchronizes and promotes
// it while the cluster keeps serving.
func (r *Replicated) runRepair() {
	defer close(r.probeDone)
	timer := time.NewTimer(r.probeInit)
	defer timer.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-r.probeWake:
		case <-timer.C:
		}
		next := r.probeDue()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(next)
	}
}

// probeDue probes every Down replica whose backoff has elapsed and
// returns how long until the next one is due.
func (r *Replicated) probeDue() time.Duration {
	now := time.Now()
	next := r.probeMax
	for _, rep := range r.reps {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return r.probeMax
		}
		due := rep.state == ReplicaDown && !rep.probeAt.After(now)
		if rep.state == ReplicaDown && rep.probeAt.After(now) {
			if d := time.Until(rep.probeAt); d < next {
				next = d
			}
		}
		r.mu.Unlock()
		if !due {
			continue
		}
		if !r.tryRevive(rep) {
			r.mu.Lock()
			r.escalateBackoffLocked(rep)
			if d := time.Until(rep.probeAt); d < next {
				next = d
			}
			r.mu.Unlock()
		} else if d := r.probeInit; d < next {
			next = d
		}
	}
	if next <= 0 {
		next = r.probeInit
	}
	return next
}

// tryRevive probes one Down replica and, on success, runs the full
// resync-and-promote sequence. Returns false when the replica stays Down.
func (r *Replicated) tryRevive(rep *replica) bool {
	// Step 1: reach the replica. Remote replicas are redialed (the old
	// connection died with them); in-process replicas are probed with a
	// constant-address read — address 0 always, so the probe itself is
	// data-independent.
	backend := rep.backend
	var newEpoch uint64
	needFull := false
	if rep.redial != nil {
		nb, err := rep.redial()
		if err != nil {
			return false
		}
		if nb.Size() != r.size || nb.BlockSize() != r.blockSize {
			r.closeBackend(nb)
			return false
		}
		backend = nb
		if e, ok := nb.(epocher); ok {
			newEpoch = e.Epoch()
		}
		// Epoch rule: a redialed replica that cannot prove durability
		// (epoch 0) may have restarted with empty state — only a full
		// copy makes it safe. A durable replica at the SAME epoch is the
		// same incarnation (a connection blip), and at a LATER epoch it
		// restarted and recovered its WAL — either way it kept every
		// write it ever acknowledged, and everything since the failure
		// is in our dirty backlog, so the backlog alone resynchronizes
		// it. An epoch REGRESSION means the durable state was wiped or
		// replaced (a fresh -data dir boots at epoch 1): nothing it once
		// acked can be assumed present, so it gets a full copy. (A wipe
		// that lands back on the exact recorded epoch is indistinguishable
		// from a blip without an incarnation id — see DESIGN.md
		// §Replication for the caveat.)
		r.mu.Lock()
		lastEpoch := rep.epoch
		r.mu.Unlock()
		needFull = newEpoch == 0 || newEpoch < lastEpoch
	} else {
		if _, err := backend.ReadBatch([]int{0}); err != nil {
			return false
		}
		r.mu.Lock()
		newEpoch = rep.epoch
		r.mu.Unlock()
	}
	// Step 2: pin the epoch before streaming (remote backends). A
	// replica restarting between our dial and the stream would otherwise
	// receive a backlog computed against its previous life.
	if rc, ok := backend.(resyncChecker); ok {
		ep, match, err := rc.ResyncCheck(newEpoch)
		if err != nil || !match || ep != newEpoch {
			r.closeBackendIfRedialed(rep, backend)
			return false
		}
	}

	// Step 3: enter Syncing — new writes flow to the replica again (via
	// its queue), the stream below fills in everything it missed.
	r.mu.Lock()
	if r.closed || rep.state != ReplicaDown {
		r.mu.Unlock()
		r.closeBackendIfRedialed(rep, backend)
		return true
	}
	rep.state = ReplicaSyncing
	old := rep.backend
	rep.backend = backend
	rep.fresh = make(map[int]uint64)
	if needFull || rep.needFul {
		rep.needFul = true
	}
	full := rep.needFul
	syncFrom := rep.enqueued
	r.mu.Unlock()
	if old != backend {
		r.closeBackend(old)
	}

	// Queue-drain barrier: the backlog may hold entries NEWER than jobs
	// still sitting in the replica's queue (a write recorded straight to
	// the backlog while the queue was draining Down-state jobs). If the
	// stream ran now, a queued older job applying afterwards would
	// overwrite the streamed newer value. Wait until the writer has
	// processed everything enqueued up to the flip — from here on, the
	// queue holds only post-flip jobs, each newer than every backlog
	// entry it overlaps.
	r.mu.Lock()
	for rep.state == ReplicaSyncing && rep.drained < syncFrom && !r.closed {
		r.cond.Wait()
	}
	stillSyncing := rep.state == ReplicaSyncing && !r.closed
	r.mu.Unlock()
	if !stillSyncing {
		// Demoted while draining (a failure or the full-queue timeout);
		// the backlog is intact, the next probe retries.
		return false
	}

	// Step 4: stream. Failure demotes back to Down (backlog preserved —
	// entries are deleted only after their window lands) and the next
	// probe retries.
	var err error
	if full {
		err = r.streamFull(rep, backend)
	} else {
		err = r.streamDirty(rep, backend)
	}
	if err != nil {
		r.mu.Lock()
		rep.state = ReplicaDown
		rep.lastErr = err.Error()
		r.escalateBackoffLocked(rep)
		rep.fresh = nil
		r.mu.Unlock()
		r.cond.Broadcast()
		return false
	}

	// Step 5: atomic promotion. syncMu excludes a live write landing
	// between the stream's last window and the flip, so at this instant
	// every newer write is either applied or queued. The flip is gated on
	// the replica still being Syncing with an EMPTY backlog: a live write
	// that failed in the window after the stream's last batch has already
	// demoted the replica to Down and recorded itself in the backlog, and
	// promoting over that would leave an Up replica permanently missing
	// an acknowledged write (reads routed to it would serve stale data
	// with no repair ever scheduled). Demote-and-retry instead.
	rep.syncMu.Lock()
	r.mu.Lock()
	if rep.state != ReplicaSyncing || len(rep.dirty) != 0 {
		rep.state = ReplicaDown
		rep.fresh = nil
		r.escalateBackoffLocked(rep)
		r.mu.Unlock()
		rep.syncMu.Unlock()
		r.cond.Broadcast()
		return false
	}
	rep.state = ReplicaUp
	rep.epoch = newEpoch
	rep.fresh = nil
	rep.needFul = false
	rep.lastErr = ""
	rep.backoff = 0
	r.mu.Unlock()
	rep.syncMu.Unlock()
	r.cond.Broadcast()
	return true
}

// streamDirty writes the missed-write backlog to the rejoining replica
// in ScanWindow batches, skipping addresses the live path has already
// re-written (they are newer). Entries leave the backlog only when their
// window has landed, so a mid-stream failure loses nothing.
func (r *Replicated) streamDirty(rep *replica, backend BatchServer) error {
	// Entries above this watermark were recorded AFTER the stream began
	// (the full-queue bypass path) and may be newer than writes still
	// draining through the replica's queue — streaming them now could be
	// undone by an older queued job landing later. Leave them in the
	// backlog: the promotion gate sees a non-empty backlog, demotes, and
	// the next resync round (with an advanced watermark, after the queue
	// has drained past them) streams them safely.
	r.mu.Lock()
	watermark := r.seq
	r.mu.Unlock()
	for {
		rep.syncMu.Lock()
		r.mu.Lock()
		ops := make([]WriteOp, 0, ScanWindow)
		seqs := make([]uint64, 0, ScanWindow)
		for addr, e := range rep.dirty {
			if f, ok := rep.fresh[addr]; ok && f >= e.seq {
				// A live write at or past this entry already landed on
				// the replica; the entry is superseded.
				delete(rep.dirty, addr)
				continue
			}
			if e.seq > watermark {
				continue // next round's work (see above)
			}
			ops = append(ops, WriteOp{Addr: addr, Block: e.data})
			seqs = append(seqs, e.seq)
			if len(ops) == ScanWindow {
				break
			}
		}
		r.mu.Unlock()
		if len(ops) == 0 {
			rep.syncMu.Unlock()
			return nil
		}
		if err := writeApplied(backend, ops); err != nil {
			rep.syncMu.Unlock()
			return err
		}
		r.mu.Lock()
		for i, op := range ops {
			// Delete only the exact entry that landed: a concurrent
			// full-queue bypass may have recorded a NEWER backlog entry
			// for this address (demoting the replica — the promotion
			// gate will catch that), and deleting it here would lose
			// the newer write from the backlog for good.
			if e, ok := rep.dirty[op.Addr]; ok && e.seq == seqs[i] {
				delete(rep.dirty, op.Addr)
			}
		}
		r.mu.Unlock()
		rep.syncMu.Unlock()
	}
}

// streamFull copies the entire array from a healthy Up peer to the
// rejoining replica, window by window, skipping live-written addresses.
// The scan is address-ordered 0..size-1 — a data-independent pattern by
// construction (the peer's extra trace is a full linear scan, the same
// for every workload). The backlog is cleared as the copy covers it.
func (r *Replicated) streamFull(rep *replica, backend BatchServer) error {
	// Every write the rejoining replica ever missed has a sequence number
	// at or below the current one; a peer that has applied up to here
	// holds a superset of the backlog, so copying its state (and clearing
	// the backlog as the copy covers it) can never lose a write to a
	// lagging peer.
	r.mu.Lock()
	watermark := r.seq
	r.mu.Unlock()
	buf := make([]int, 0, ScanWindow)
	for base := 0; base < r.size; base += ScanWindow {
		end := base + ScanWindow
		if end > r.size {
			end = r.size
		}
		buf = buf[:0]
		for a := base; a < end; a++ {
			buf = append(buf, a)
		}
		src, err := r.readPeer(rep, buf, watermark)
		if err != nil {
			return err
		}
		rep.syncMu.Lock()
		r.mu.Lock()
		ops := make([]WriteOp, 0, len(buf))
		for i, a := range buf {
			if _, newer := rep.fresh[a]; newer {
				continue
			}
			ops = append(ops, WriteOp{Addr: a, Block: src[i]})
		}
		r.mu.Unlock()
		if len(ops) > 0 {
			if err := writeApplied(backend, ops); err != nil {
				rep.syncMu.Unlock()
				return err
			}
		}
		r.mu.Lock()
		for _, a := range buf {
			// The copy supersedes backlog entries at or below the
			// stream watermark; an entry above it was recorded by a
			// concurrent full-queue bypass (which also demoted the
			// replica) and must survive for the next resync round.
			if _, newer := rep.fresh[a]; !newer {
				if e, ok := rep.dirty[a]; ok && e.seq <= watermark {
					delete(rep.dirty, a)
				}
			}
		}
		r.mu.Unlock()
		rep.syncMu.Unlock()
	}
	return nil
}

// readPeer reads addrs from some Up replica that has applied every write
// up to watermark (for the full-copy stream), failing over exactly like
// the client read path.
func (r *Replicated) readPeer(syncing *replica, addrs []int, watermark uint64) ([]block.Block, error) {
	for {
		r.mu.Lock()
		var peer *replica
		// Bounded like the client read path: a wedged Up peer that never
		// applies (and never errors) must not freeze the repair
		// goroutine — and with it every other replica's revival — for
		// the kernel TCP timeout. On deadline the laggard is ejected and
		// the scan re-picks.
		deadline := time.Now().Add(enqueueTimeout)
		for {
			if r.closed {
				r.mu.Unlock()
				return nil, ErrReplicatedClosed
			}
			peer = nil
			for _, rep := range r.reps {
				if rep != syncing && rep.state == ReplicaUp {
					peer = rep
					break
				}
			}
			if peer == nil {
				r.mu.Unlock()
				return nil, fmt.Errorf("%w: no healthy peer to copy from", ErrNoReplicas)
			}
			if peer.applied >= watermark {
				break
			}
			if !time.Now().Before(deadline) {
				peer.state = ReplicaDown
				peer.lastErr = "resync source wait timed out (peer not applying writes)"
				peer.backoff = r.probeInit
				peer.probeAt = time.Now().Add(peer.backoff)
				r.mu.Unlock()
				r.cond.Broadcast()
				r.unblockWedged(peer)
				r.mu.Lock()
				deadline = time.Now().Add(enqueueTimeout)
				continue
			}
			wake := time.AfterFunc(time.Until(deadline)+time.Millisecond, r.cond.Broadcast)
			r.cond.Wait()
			wake.Stop()
		}
		backend := peer.backend
		r.mu.Unlock()
		blocks, err := backend.ReadBatch(addrs)
		if err == nil {
			return blocks, nil
		}
		r.eject(peer, backend, err)
	}
}

// writeApplied writes ops to a replica backend and returns only once the
// backend has applied them: a quorum counts acks, and a resync drops
// backlog entries on the strength of the return, so a Remote backend's
// posted write is flushed before anyone acts on it.
func writeApplied(backend BatchServer, ops []WriteOp) error {
	if err := backend.WriteBatch(ops); err != nil {
		return err
	}
	return Flush(backend)
}

// closeBackend closes a backend if it is closable (a Remote connection).
func (r *Replicated) closeBackend(b BatchServer) {
	if c, ok := b.(interface{ Close() error }); ok {
		c.Close() //nolint:errcheck
	}
}

// closeBackendIfRedialed discards a freshly dialed backend that will not
// be installed (only redialed backends are ours to close).
func (r *Replicated) closeBackendIfRedialed(rep *replica, b BatchServer) {
	if rep.redial != nil {
		r.closeBackend(b)
	}
}

// Flush blocks until every enqueued write has been applied or accounted
// to a dirty backlog on every replica — after it returns, all Up
// replicas hold identical contents. Tests and shutdown paths use it.
func (r *Replicated) Flush() {
	r.mu.Lock()
	seq := r.seq
	for {
		done := true
		for _, rep := range r.reps {
			if rep.applied < seq {
				done = false
				break
			}
		}
		if done || r.closed {
			r.mu.Unlock()
			return
		}
		r.cond.Wait()
	}
}

// Close stops the repair loop and the replica writers and closes every
// redialed backend. Callers must have quiesced (no in-flight operations),
// like Pipeline.Close.
func (r *Replicated) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	close(r.probeStop)
	<-r.probeDone
	r.sendMu.Lock()
	for _, rep := range r.reps {
		close(rep.jobs)
	}
	r.sendMu.Unlock()
	// Close redialed backends BEFORE waiting for the writers: a writer
	// wedged inside a black-holed connection's send only unblocks when
	// that connection is torn down, so waiting first would hang shutdown
	// for the kernel TCP timeout. Closing under mu keeps the snapshot
	// consistent with any concurrent backend swap.
	for _, rep := range r.reps {
		if rep.redial != nil {
			r.mu.Lock()
			backend := rep.backend
			r.mu.Unlock()
			r.closeBackend(backend)
		}
	}
	for _, rep := range r.reps {
		<-rep.wdone
	}
	return nil
}
