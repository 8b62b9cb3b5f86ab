// Package obs is the address-oblivious telemetry core: named atomic
// counters, gauges, and histogram-backed timers that every layer of the
// serve stack records into, plus Prometheus text exposition and a
// slow-request ring.
//
// The load-bearing rule, inherited from the paper's adversary model (the
// storage server observes the access sequence): no instrument may key on
// a block address, record content, or any per-tenant cardinality beyond
// the namespace name. Instruments carry a Class so the obliviousness
// regression suite can assert what must be bit-identical across access
// patterns (ClassExact) versus what is only allowed to exist
// (timing/occupancy). The allowed label keys are pinned by
// LabelWhitelist; anything outside it fails the regression, which is how
// an accidentally address-keyed instrument is caught before it ships.
//
// Record/Inc/Set on every instrument is allocation-free and safe for
// concurrent use; registration (NewCounter etc.) takes a lock and is
// meant for init-time or per-namespace setup, not per-request paths.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpstore/internal/stats"
)

// Kind is the instrument's shape: how it is exported.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHist  // histogram over dimensionless values (batch sizes, counts)
	KindTimer // histogram over durations, exported in seconds
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "hist"
	case KindTimer:
		return "timer"
	}
	return "unknown"
}

// Class is the instrument's obliviousness contract — what the regression
// suite may assert about its value across access-pattern permutations.
type Class uint8

const (
	// ClassExact values are pure functions of the public request sequence
	// (counts of requests, accesses, and the data-independent batch shapes
	// the schemes emit). The hot-spot-vs-uniform regression asserts these
	// are bit-identical across access patterns.
	ClassExact Class = iota
	// ClassTiming values depend on wall-clock durations (latency quantiles,
	// fsync counts under coalescing). Only their existence and label set
	// are asserted, never their values.
	ClassTiming
	// ClassLoad values are instantaneous occupancy (inflight, queue
	// depth) — scheduling-dependent. Existence-only, like timing.
	ClassLoad
	// ClassRouting values are keyed by the public routing index (partition
	// number, replica name) — information the server already holds by
	// construction. Existence-only across patterns (per-partition counts
	// are pattern-dependent by design; the partition map itself is public).
	ClassRouting
)

func (c Class) String() string {
	switch c {
	case ClassExact:
		return "exact"
	case ClassTiming:
		return "timing"
	case ClassLoad:
		return "load"
	case ClassRouting:
		return "routing"
	}
	return "unknown"
}

// LabelWhitelist is the complete set of label keys any instrument may
// carry. "quantile" is reserved for the exposition layer's summary
// series. The obliviousness regression fails on any key outside this
// set — per-address or per-record labels cannot exist by construction.
var LabelWhitelist = map[string]bool{
	"ns":        true, // namespace name (the one permitted tenant dimension)
	"type":      true, // wire frame type name
	"partition": true, // public routing index
	"replica":   true, // replica name from the cluster spec
	"quantile":  true,
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value. When registered with a read function
// (NewGaugeFunc), the function wins and Set is ignored.
type Gauge struct {
	v  atomic.Int64
	mu sync.Mutex // guards fn replacement
	fn func() int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value (calling the read function if set).
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return g.v.Load()
}

func (g *Gauge) setFunc(fn func() int64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Hist is a histogram over dimensionless non-negative values (batch
// sizes, group sizes). Record is allocation-free and concurrent.
type Hist struct {
	h stats.AtomicHist
}

// Record adds one observation.
func (h *Hist) Record(v int64) { h.h.RecordValue(v) }

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.h.Count() }

// SnapshotInto folds the current contents into dst.
func (h *Hist) SnapshotInto(dst *stats.LatencyHist) { h.h.SnapshotInto(dst) }

// Timer is a histogram over durations, recorded in nanoseconds and
// exported in seconds. Observe is allocation-free and concurrent.
type Timer struct {
	h stats.AtomicHist
}

// Observe adds one duration observation.
func (t *Timer) Observe(d time.Duration) { t.h.RecordValue(int64(d)) }

// Since observes the time elapsed since t0.
func (t *Timer) Since(t0 time.Time) { t.h.RecordValue(int64(time.Since(t0))) }

// Count returns the number of observations.
func (t *Timer) Count() uint64 { return t.h.Count() }

// SnapshotInto folds the current contents into dst (nanosecond values).
func (t *Timer) SnapshotInto(dst *stats.LatencyHist) { t.h.SnapshotInto(dst) }

// instrument is one registered series: a name, a rendered label set, and
// exactly one of the four value holders.
type instrument struct {
	name   string
	labels []Label // sorted by key
	kind   Kind
	class  Class
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Hist
	timer   *Timer
}

// Label is one key=value pair on an instrument.
type Label struct {
	Key, Value string
}

type options struct {
	labels []Label
	class  Class
	hasCls bool
	help   string
}

// Option configures instrument registration.
type Option func(*options)

// WithLabels attaches key/value label pairs (must be an even count of
// strings; keys should be in LabelWhitelist).
func WithLabels(kv ...string) Option {
	return func(o *options) {
		for i := 0; i+1 < len(kv); i += 2 {
			o.labels = append(o.labels, Label{Key: kv[i], Value: kv[i+1]})
		}
	}
}

// WithClass overrides the kind's default obliviousness class
// (counters/hists default to ClassExact, timers to ClassTiming, gauges
// to ClassLoad).
func WithClass(c Class) Option {
	return func(o *options) { o.class = c; o.hasCls = true }
}

// WithHelp attaches a HELP line for the Prometheus exposition.
func WithHelp(h string) Option {
	return func(o *options) { o.help = h }
}

// Registry holds instruments. Get-or-create is keyed by name plus the
// sorted label set, so a re-registration (e.g. a test rebuilding a
// namespace) returns the same series rather than a duplicate.
type Registry struct {
	mu   sync.Mutex
	by   map[string]*instrument
	keys []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*instrument)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every layer records into.
func Default() *Registry { return defaultRegistry }

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func buildOpts(kind Kind, opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	sort.SliceStable(o.labels, func(i, j int) bool { return o.labels[i].Key < o.labels[j].Key })
	if !o.hasCls {
		switch kind {
		case KindTimer:
			o.class = ClassTiming
		case KindGauge:
			o.class = ClassLoad
		default:
			o.class = ClassExact
		}
	}
	return o
}

// get returns the instrument for (name, labels), creating it if absent.
// Creating with a different kind than an existing series is a
// programming error; the existing instrument wins and the mismatched
// holder is nil — callers would nil-panic fast, in tests.
func (r *Registry) get(name string, kind Kind, opts []Option) *instrument {
	o := buildOpts(kind, opts)
	key := seriesKey(name, o.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.by[key]; ok {
		return ins
	}
	ins := &instrument{name: name, labels: o.labels, kind: kind, class: o.class, help: o.help}
	switch kind {
	case KindCounter:
		ins.counter = &Counter{}
	case KindGauge:
		ins.gauge = &Gauge{}
	case KindHist:
		ins.hist = &Hist{}
	case KindTimer:
		ins.timer = &Timer{}
	}
	r.by[key] = ins
	r.keys = append(r.keys, key)
	return ins
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string, opts ...Option) *Counter {
	return r.get(name, KindCounter, opts).counter
}

// Gauge returns the named settable gauge, creating it if absent.
func (r *Registry) Gauge(name string, opts ...Option) *Gauge {
	return r.get(name, KindGauge, opts).gauge
}

// GaugeFunc registers (or re-points) a gauge whose value is read from fn
// at exposition time. Re-registering the same series replaces the
// function — the newest live object wins, which is what a restarted
// namespace or rebuilt proxy needs.
func (r *Registry) GaugeFunc(name string, fn func() int64, opts ...Option) {
	g := r.get(name, KindGauge, opts).gauge
	g.setFunc(fn)
}

// Hist returns the named histogram, creating it if absent.
func (r *Registry) Hist(name string, opts ...Option) *Hist {
	return r.get(name, KindHist, opts).hist
}

// Timer returns the named timer, creating it if absent.
func (r *Registry) Timer(name string, opts ...Option) *Timer {
	return r.get(name, KindTimer, opts).timer
}

// Package-level conveniences on the Default registry.

// NewCounter returns the named counter on the Default registry.
func NewCounter(name string, opts ...Option) *Counter { return Default().Counter(name, opts...) }

// NewGauge returns the named gauge on the Default registry.
func NewGauge(name string, opts ...Option) *Gauge { return Default().Gauge(name, opts...) }

// NewGaugeFunc registers a function-backed gauge on the Default registry.
func NewGaugeFunc(name string, fn func() int64, opts ...Option) {
	Default().GaugeFunc(name, fn, opts...)
}

// NewHist returns the named histogram on the Default registry.
func NewHist(name string, opts ...Option) *Hist { return Default().Hist(name, opts...) }

// NewTimer returns the named timer on the Default registry.
func NewTimer(name string, opts ...Option) *Timer { return Default().Timer(name, opts...) }
