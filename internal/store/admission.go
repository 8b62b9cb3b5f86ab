package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpstore/internal/obs"
	"dpstore/internal/stats"
	"dpstore/internal/wire"
)

// Admission control and load shedding for the serve loop.
//
// Each namespace gets its own limiter: at most MaxInflight requests
// execute concurrently, at most MaxQueue more wait behind them, and
// everything beyond that is refused with an explicit MsgBusyResp carrying
// a retry hint — the server sheds instead of stalling, so a saturating
// tenant sees bounded latency plus busy signals rather than an unbounded
// queue, and CANNOT starve other namespaces (their limiters are
// independent, and every connection keeps its own serve goroutine).
//
// The privacy constraint shapes where the decision happens: admit runs on
// the frame type and the limiter's counters BEFORE any payload is
// decoded, so whether a request is accepted, queued, or shed is
// independent of which addresses it touches. The busy/accepted pattern an
// adversary observes is a function of load shape only — exactly the
// information the access-pattern leakage model already concedes (see
// docs/WIRE.md §10 and the exact-trace regression in
// admission_oblivious_test.go).

// AdmitOptions configures per-namespace admission control. The zero value
// disables shedding: requests are still counted (so stats work) but never
// refused.
type AdmitOptions struct {
	// MaxInflight is how many admitted requests may execute concurrently
	// per namespace. 0 disables admission control for the namespace.
	MaxInflight int
	// MaxQueue is how many further requests may wait for an execution
	// slot before the server starts shedding. 0 with MaxInflight > 0
	// means no waiting room: anything beyond MaxInflight is shed
	// immediately.
	MaxQueue int
}

// limiter is one namespace's admission state. Limiters exist for every
// namespace that has served traffic — counting-only when admission is
// disabled — so the stats snapshot is uniform either way.
//
// The limiter owns two sets of instruments on purpose. The private
// atomics and histograms back the per-daemon wire stats snapshot (tests
// and `dpbench top` want counts scoped to THIS server's lifetime); the
// obs instruments feed the process-wide registry behind /metrics. Both
// record the same events; neither can substitute for the other.
type limiter struct {
	tokens   chan struct{} // execution slots; nil = admission disabled
	limit    int
	queueCap int

	mu     sync.Mutex
	queued int

	accepted atomic.Uint64
	shed     atomic.Uint64
	inflight atomic.Int64
	ewmaNs   atomic.Int64 // EWMA of admitted-request service time

	service   stats.AtomicHist // admit → release (execute + flush), ns
	queueWait stats.AtomicHist // time spent waiting for a slot, ns

	obsAccepted  *obs.Counter
	obsShed      *obs.Counter
	obsService   *obs.Timer
	obsQueueWait *obs.Timer
}

func newLimiter(name string, opts AdmitOptions) *limiter {
	l := &limiter{
		limit:        opts.MaxInflight,
		queueCap:     opts.MaxQueue,
		obsAccepted:  obs.NewCounter("dpstore_admission_accepted_total", obs.WithLabels("ns", name)),
		obsShed:      obs.NewCounter("dpstore_admission_shed_total", obs.WithLabels("ns", name)),
		obsService:   obs.NewTimer("dpstore_serve_request_seconds", obs.WithLabels("ns", name)),
		obsQueueWait: obs.NewTimer("dpstore_admission_queue_wait_seconds", obs.WithLabels("ns", name)),
	}
	if opts.MaxInflight > 0 {
		l.tokens = make(chan struct{}, opts.MaxInflight)
		for i := 0; i < opts.MaxInflight; i++ {
			l.tokens <- struct{}{}
		}
	}
	return l
}

// admit claims an execution slot, waiting in the bounded queue when all
// slots are busy. arrival is when the request's frame finished reading —
// the serve loop's one clock read per request; admit only reads the
// clock again on the queued path, where the wait is the thing being
// measured. ok=false means the request was shed: the caller must answer
// with a busy frame built from retryAfter and depth and MUST NOT execute
// the request. ok=true obliges the caller to invoke release(start)
// exactly once after the response has been written, where start is the
// slot-grant time admit returned. No closure is minted — the serve
// loop's steady state stays allocation-free.
func (l *limiter) admit(arrival time.Time) (start time.Time, ok bool, retryAfter time.Duration, depth int) {
	if l.tokens == nil {
		// Counting-only: measure, never refuse.
		l.inflight.Add(1)
		return arrival, true, 0, 0
	}
	start = arrival
	select {
	case <-l.tokens:
	default:
		// All slots busy: join the bounded wait queue or shed.
		l.mu.Lock()
		if l.queued >= l.queueCap {
			depth = l.queued
			l.mu.Unlock()
			l.shed.Add(1)
			l.obsShed.Inc()
			return time.Time{}, false, l.retryHint(depth), depth
		}
		l.queued++
		l.mu.Unlock()
		<-l.tokens
		l.mu.Lock()
		l.queued--
		l.mu.Unlock()
		start = time.Now()
		wait := start.Sub(arrival)
		l.queueWait.Record(wait)
		l.obsQueueWait.Observe(wait)
	}
	l.inflight.Add(1)
	return start, true, 0, 0
}

// release completes an admitted request: records it and, when admission
// is enabled, returns the execution slot. It returns the service time
// (slot grant to release) for the caller's slow-span accounting.
func (l *limiter) release(start time.Time) time.Duration {
	d := l.finish(start)
	if l.tokens != nil {
		l.tokens <- struct{}{}
	}
	return d
}

// finish records one completed request: counters, the service-time
// histograms, and the EWMA (α = 1/8) the retry hint is derived from. The
// EWMA update is a load/store race under concurrency — acceptable for a
// smoothing gauge.
func (l *limiter) finish(start time.Time) time.Duration {
	l.accepted.Add(1)
	l.obsAccepted.Inc()
	l.inflight.Add(-1)
	d := time.Since(start)
	sample := int64(d)
	l.service.RecordValue(sample)
	l.obsService.Observe(d)
	old := l.ewmaNs.Load()
	l.ewmaNs.Store(old + (sample-old)/8)
	return d
}

// retryHint estimates when capacity is likely again: the time for the
// current queue (plus this request) to drain at the observed service
// rate, clamped to [1ms, 2s] so a cold EWMA still produces a sane hint
// and a stalled server cannot park clients forever.
func (l *limiter) retryHint(depth int) time.Duration {
	ewma := time.Duration(l.ewmaNs.Load())
	hint := ewma * time.Duration(depth+1) / time.Duration(l.limit)
	if hint < time.Millisecond {
		hint = time.Millisecond
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return hint
}

// snapshot fills the admission half of a stats entry, including the v2
// quantile extension (folded out of the live histograms; cold path).
func (l *limiter) snapshot(e *wire.StatsEntry) {
	e.Accepted = l.accepted.Load()
	e.Shed = l.shed.Load()
	e.Inflight = uint32(l.inflight.Load())
	l.mu.Lock()
	e.Queued = uint32(l.queued)
	l.mu.Unlock()
	e.Limit = uint32(l.limit)
	e.QueueCap = uint32(l.queueCap)

	h := stats.NewLatencyHist()
	l.service.SnapshotInto(h)
	e.Requests = h.Count()
	e.P50Micros = ceilMicros(h.QuantileValue(0.50))
	e.P90Micros = ceilMicros(h.QuantileValue(0.90))
	e.P99Micros = ceilMicros(h.QuantileValue(0.99))
	e.P999Micros = ceilMicros(h.QuantileValue(0.999))
	e.MaxMicros = ceilMicros(h.Max())
	l.queueWait.SnapshotInto(h)
	e.QueueP99Micros = ceilMicros(h.QuantileValue(0.99))
}

// ceilMicros converts nanoseconds to whole microseconds, rounding up so
// a nonzero latency never reports as zero (consistent with the
// histogram's own conservative upward bias).
func ceilMicros(ns int64) uint64 {
	if ns <= 0 {
		return 0
	}
	return uint64(ns+999) / 1000
}

// SetAdmission installs admission control: every namespace (current and
// future) gets its own limiter with these options, so one tenant
// saturating its slots sheds its own overload without touching anyone
// else's capacity. Call before serving; limiters already handed to live
// connections keep their old options.
func (ns *Namespaces) SetAdmission(opts AdmitOptions) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.admit = opts
	for name := range ns.limiters {
		ns.limiters[name] = newLimiter(name, opts)
	}
}

// limiterFor returns (creating on first use) the named namespace's
// limiter.
func (ns *Namespaces) limiterFor(name string) *limiter {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	l, ok := ns.limiters[name]
	if !ok {
		l = newLimiter(name, ns.admit)
		ns.limiters[name] = l
	}
	return l
}

// syncLatencyReporter exposes a durable backing's observed WAL fsync
// latency (EWMA). store.Durable and store.Sharded implement it.
type syncLatencyReporter interface {
	SyncLatency() time.Duration
}

// Stats snapshots every registered namespace: admission counters from its
// limiter plus whatever gauges its backend exposes. Entries are sorted by
// name so two snapshots line up positionally.
func (ns *Namespaces) Stats() []wire.StatsEntry {
	ns.mu.Lock()
	type row struct {
		name string
		t    tenant
		lim  *limiter
	}
	rows := make([]row, 0, len(ns.m))
	for name, t := range ns.m {
		l, ok := ns.limiters[name]
		if !ok {
			l = newLimiter(name, ns.admit)
			ns.limiters[name] = l
		}
		rows = append(rows, row{name, t, l})
	}
	ns.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	// Gauges are read outside the registry lock: a backend's depth or
	// latency probe may itself take locks.
	entries := make([]wire.StatsEntry, 0, len(rows))
	for _, r := range rows {
		e := wire.StatsEntry{Name: r.name}
		r.lim.snapshot(&e)
		switch {
		case r.t.acc != nil:
			e.Kind = wire.StatsKindProxy
		case r.t.batch != nil:
			e.Kind = wire.StatsKindBlock
			if rep, ok := r.t.batch.(replicaStatusReporter); ok {
				e.Kind = wire.StatsKindReplicated
				for _, st := range rep.ReplicaStatus() {
					e.Depth += uint64(st.Dirty)
				}
			}
			if s, ok := r.t.batch.(syncLatencyReporter); ok {
				e.SyncMicros = uint64(s.SyncLatency().Microseconds())
			}
		}
		entries = append(entries, e)
	}
	return entries
}

// admittable reports whether a frame type is subject to admission
// control: the data-plane frames that execute against a backend. Control
// frames — handshakes, opens, health probes — always pass, so a saturated
// namespace stays observable. The classification depends only on the
// type byte; no payload has been decoded when it runs.
func admittable(t byte) bool {
	switch t {
	case wire.MsgDownloadReq, wire.MsgUploadReq,
		wire.MsgReadBatchReq, wire.MsgWriteBatchReq,
		wire.MsgAccessReq:
		return true
	}
	return false
}
