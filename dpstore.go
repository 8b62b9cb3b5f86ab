// Package dpstore is a from-scratch Go implementation of the
// differentially private storage primitives of Patel, Persiano and Yeo,
// "What Storage Access Privacy is Achievable with Small Overhead?"
// (PODS 2019) — DP-IR, DP-RAM and DP-KVS — together with every substrate
// and baseline the paper builds on or compares against (balls-and-bins
// storage servers, IND-CPA encryption, oblivious two-choice hashing,
// Path ORAM, linear PIR, and the insecure Section 4 strawman).
//
// This file is the public facade: it re-exports the stable surface of the
// internal packages as type aliases and thin constructors, so downstream
// users import only "dpstore". The internal packages remain importable
// within this module (the examples use them directly) but are not part of
// the public API contract.
//
// The three primitives at a glance:
//
//	scheme  privacy            blocks/query     client state   correctness
//	------  -----------------  ---------------  -------------  -----------
//	DP-IR   ε = Θ(log n)       O(1)             none           1 − α
//	DP-RAM  ε = Θ(log n)       3 (exactly)      O(Φ(n)) w.h.p  perfect
//	DP-KVS  ε = Θ(log n)       O(log log n)     O(Φ·lg lg n)   perfect
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced result.
package dpstore

import (
	"net"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/core/dpir"
	"dpstore/internal/core/dpkvs"
	"dpstore/internal/core/dpram"
	"dpstore/internal/core/twochoice"
	"dpstore/internal/crypto"
	"dpstore/internal/privacy"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/stats"
	"dpstore/internal/store"
	"dpstore/internal/wire"
	"dpstore/internal/workload"
)

// --- blocks and databases ----------------------------------------------------

// Block is one fixed-size database record (an opaque "ball" in the paper's
// balls-and-bins model).
type Block = block.Block

// Database is an ordered collection of equally sized blocks.
type Database = block.Database

// NewDatabase creates a database of n zeroed records.
func NewDatabase(n, blockSize int) (*Database, error) { return block.NewDatabase(n, blockSize) }

// NewBlock returns a zeroed block.
func NewBlock(size int) Block { return block.New(size) }

// --- servers -----------------------------------------------------------------

// Server is the passive storage party: download a block, upload a block.
type Server = store.Server

// BatchServer extends Server with multi-block ReadBatch/WriteBatch
// operations — transcript-equivalent to the per-block calls but one
// client–server crossing per batch. All servers in this module implement
// it natively; use AsBatchServer to adapt any third-party Server.
type BatchServer = store.BatchServer

// WriteOp is one element of a WriteBatch: store Block at Addr.
type WriteOp = store.WriteOp

// AsBatchServer returns s's native batch implementation, or a per-op loop
// adapter for Servers that predate the batch interface.
func AsBatchServer(s Server) BatchServer { return store.AsBatch(s) }

// ServerStats is a traffic snapshot from a counting server.
type ServerStats = store.Stats

// CountingServer meters downloads/uploads/bytes on any Server. Batched
// operations are metered per block, so overhead tables are identical
// whichever transport a construction uses.
type CountingServer = store.Counting

// RemoteServer is a TCP client for a networked block server
// (cmd/blockstored); its batch calls collapse N round trips into one.
type RemoteServer = store.Remote

// ShardedServer stripes a logical address space over K independently
// locked sub-stores, so concurrent clients stop serializing on one mutex;
// its batches execute K-way parallel.
type ShardedServer = store.Sharded

// ServerPool multiplexes operations over N connections to one daemon, so
// many goroutine clients share it without head-of-line blocking.
type ServerPool = store.Pool

// OffsetServer is a BatchServer view of a contiguous sub-range of another
// store: addresses [0, n) map to [base, base+n) of the inner store. It is
// how P partitioned scheme instances share one physical backend without
// seeing each other's slots.
type OffsetServer = store.Offset

// NewOffsetServer returns the [base, base+n) window of inner; the window
// must lie entirely inside the inner store.
func NewOffsetServer(inner BatchServer, base, n int) (*OffsetServer, error) {
	return store.NewOffset(inner, base, n)
}

// ShardSlots returns how many of n round-robin-striped slots land on
// stripe i of k — the shape rule shared by ShardedServer shards and
// partitioned-proxy stripes.
func ShardSlots(n, k, i int) int { return store.ShardSlots(n, k, i) }

// RetryPolicy makes busy-shed operations on a RemoteServer or ServerPool
// retry instead of surfacing BusyError: the server's RetryAfter hint
// floors a full-jitter exponential backoff, capped by MaxAttempts and an
// optional total-sleep Budget. Arm it with SetRetryPolicy on the client.
type RetryPolicy = store.RetryPolicy

// DefaultRetryPolicy retries up to 8 attempts over at most 2 s.
func DefaultRetryPolicy() RetryPolicy { return store.DefaultRetryPolicy() }

// ReplicatedServer fans writes to N replica stores with a write quorum,
// serves reads from one replica chosen data-independently (so replica
// choice never leaks the access pattern), ejects dead replicas with
// automatic failover, and resynchronizes + promotes rejoining replicas
// while the cluster keeps serving.
type ReplicatedServer = store.Replicated

// ReplicatedOptions configures a ReplicatedServer (write quorum, read
// policy, probe cadence).
type ReplicatedOptions = store.ReplicatedOptions

// ReplicaSpec describes one member of a replicated cluster.
type ReplicaSpec = store.ReplicaSpec

// ReplicaHealth is one replica's externally visible status snapshot.
type ReplicaHealth = store.ReplicaStatus

// ClusterOptions configures DialCluster.
type ClusterOptions = store.ClusterOptions

// Read-replica selection policies for ReplicatedOptions.ReadPolicy. Both
// are data-independent: the choice is a function of replica health and a
// seeded counter only.
const (
	ReadSticky = store.ReadSticky // one replica serves all reads until it fails
	ReadRotate = store.ReadRotate // reads rotate across Up replicas
)

// Replica failover states reported by ReplicatedServer.ReplicaStatus.
const (
	ReplicaUp      = store.ReplicaUp
	ReplicaSyncing = store.ReplicaSyncing
	ReplicaDown    = store.ReplicaDown
)

// NewReplicated builds a replicated cluster over the given replicas; all
// backends must share one shape. See ReplicatedOptions for quorum and
// read-policy semantics.
func NewReplicated(specs []ReplicaSpec, opts ReplicatedOptions) (*ReplicatedServer, error) {
	return store.NewReplicated(specs, opts)
}

// DialCluster connects to every replica daemon in addrs and assembles a
// ReplicatedServer over them, with automatic redial, epoch-aware resync,
// and promotion of replicas that die and return — the embeddable form of
// `blockstored -replicate`.
func DialCluster(addrs []string, opts ClusterOptions) (*ReplicatedServer, error) {
	return store.DialCluster(addrs, opts)
}

// Namespaces is a registry of named block stores hosted by one daemon —
// the multi-tenant serving surface of ServeBlockNamespaces. A namespace
// may instead be proxy-backed (AttachAccessor): clients then speak only
// logical record accesses and never see the physical store.
type Namespaces = store.Namespaces

// Accessor is a logical record-access endpoint — the serving surface of a
// privacy Proxy hosted as a namespace.
type Accessor = store.Accessor

// DefaultNamespace is the namespace pre-namespace clients speak to.
const DefaultNamespace = store.DefaultNamespace

// DurableServer is the crash-safe disk engine: checksummed pages, a
// group-commit write-ahead log, replay on open, and snapshot+truncate
// compaction. Every acknowledged WriteBatch survives process death, and a
// batch is atomic across crashes.
type DurableServer = store.Durable

// DurableServerOptions configures the engine (sync discipline, WAL
// compaction threshold).
type DurableServerOptions = store.DurableOptions

// WAL sync disciplines for DurableServerOptions.Sync.
const (
	SyncGroup = store.SyncGroup // one fsync per commit round (default)
	SyncEach  = store.SyncEach  // one fsync per WriteBatch
	SyncNone  = store.SyncNone  // no write-path fsync; Sync()/Close() only
)

// CreateDurableServer creates a durable store at base (<base>.pages and
// <base>.wal) with n zeroed slots of blockSize bytes.
func CreateDurableServer(base string, n, blockSize int, opts DurableServerOptions) (*DurableServer, error) {
	return store.CreateDurable(base, n, blockSize, opts)
}

// OpenDurableServer opens an existing durable store, replaying its
// write-ahead log; a legacy headerless File-format store of the same
// shape is migrated to the engine format in place.
func OpenDurableServer(base string, n, blockSize int, opts DurableServerOptions) (*DurableServer, error) {
	return store.OpenDurable(base, n, blockSize, opts)
}

// OpenOrCreateDurableServer opens base if present, creates it otherwise.
func OpenOrCreateDurableServer(base string, n, blockSize int, opts DurableServerOptions) (*DurableServer, error) {
	return store.OpenOrCreateDurable(base, n, blockSize, opts)
}

// NewMemServer returns an in-memory Server with n slots of blockSize bytes.
func NewMemServer(n, blockSize int) (Server, error) { return store.NewMem(n, blockSize) }

// NewShardedMemServer returns an in-memory Server with n slots of
// blockSize bytes striped over k independently locked shards.
func NewShardedMemServer(n, blockSize, k int) (*ShardedServer, error) {
	return store.NewShardedMem(n, blockSize, k)
}

// NewCountingServer wraps a Server with an operation meter.
func NewCountingServer(inner Server) *CountingServer { return store.NewCounting(inner) }

// DialServer connects to a remote block server (cmd/blockstored). The
// connection posts its writes: Upload/WriteBatch return once the frame is
// queued, later calls on the same connection observe it, and Flush (or
// Close) is the barrier that confirms the server applied it — see
// store.Remote. DialServerPool's writes are acknowledged before they
// return.
func DialServer(addr string) (*RemoteServer, error) { return store.Dial(addr) }

// DialServerNamespace connects to a multi-tenant block server and opens
// the named namespace (creating it, when the daemon permits, with the
// given shape; zeros defer the shape to the server).
func DialServerNamespace(addr, name string, slots, blockSize int) (*RemoteServer, error) {
	return store.DialNamespace(addr, name, slots, blockSize)
}

// DialServerPool connects a pool of conns connections to the default
// namespace of the block server at addr.
func DialServerPool(addr string, conns int) (*ServerPool, error) {
	return store.DialPool(addr, conns)
}

// NewNamespaces returns an empty namespace registry; Attach stores and/or
// install a creation factory, then serve it with ServeBlockNamespaces.
func NewNamespaces() *Namespaces { return store.NewNamespaces() }

// ServeBlocks serves the wire protocol (including the batch frames)
// against backing until ln closes — the embeddable form of cmd/blockstored.
func ServeBlocks(ln net.Listener, backing Server) error { return store.Serve(ln, backing) }

// ServeBlockNamespaces serves the wire protocol against a whole namespace
// registry — the embeddable form of a multi-tenant blockstored.
func ServeBlockNamespaces(ln net.Listener, ns *Namespaces) error {
	return store.ServeNamespaces(ln, ns)
}

// --- load and operability ------------------------------------------------------

// AdmitOptions configures per-namespace admission control on a served
// Namespaces registry (Namespaces.SetAdmission): at most MaxInflight
// requests execute concurrently, at most MaxQueue more wait, and the rest
// are shed with an explicit busy frame. The accept/queue/shed decision is
// made before the request payload is decoded, so it is independent of the
// addresses a request carries — shedding never leaks access structure.
type AdmitOptions = store.AdmitOptions

// BusyError is the typed client-side form of a server busy frame: the
// request was shed by admission control, with a retry hint derived from
// the server's observed service times.
type BusyError = wire.BusyError

// IsBusy reports whether err is server backpressure, returning the
// suggested retry delay. The error classifier for load-driver IsShed
// callbacks and client retry loops.
func IsBusy(err error) (retryAfter time.Duration, ok bool) { return wire.IsBusy(err) }

// NamespaceStats is one namespace's live counters from a daemon's stats
// frame or /metrics endpoint: accepted/shed totals, inflight and queued
// gauges against their limits, backing depth (a replicated cluster's
// resync backlog; 0 for other backings — a proxy's stash size is never
// exported), and WAL sync latency.
type NamespaceStats = wire.StatsEntry

// LatencyHist is an HDR-style log-linear latency histogram: fixed-size,
// mergeable, with ≤1.6% relative quantile error and a conservative
// (upward) bias so reported tails never understate the truth.
type LatencyHist = stats.LatencyHist

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist { return stats.NewLatencyHist() }

// LoadSchedule decides when each open-loop operation arrives; see
// ConstantRate, RampRate, and BurstRate.
type LoadSchedule = workload.Schedule

// ConstantRate schedules rps arrivals per second for d.
func ConstantRate(rps float64, d time.Duration) LoadSchedule { return workload.ConstantRate(rps, d) }

// RampRate sweeps the arrival rate linearly from `from` to `to` over d —
// the schedule that walks a server through its saturation point.
func RampRate(from, to float64, d time.Duration) LoadSchedule { return workload.Ramp(from, to, d) }

// BurstRate schedules a base rate punctuated every period by burstLen of
// the higher burst rate, for d total.
func BurstRate(base, burstRPS float64, period, burstLen, d time.Duration) LoadSchedule {
	return workload.Burst(base, burstRPS, period, burstLen, d)
}

// LoadDriverOptions configures one open-loop load run.
type LoadDriverOptions = workload.DriverOptions

// LoadReport is the outcome of one open-loop run: offered vs achieved
// rates, done/shed/error counts, and the coordinated-omission-safe
// latency distribution (each operation charged from its intended arrival).
type LoadReport = workload.Report

// RunOpenLoop executes one open-loop load run and blocks until every
// dispatched operation completes. The library form of `dpbench load`.
func RunOpenLoop(opts LoadDriverOptions) (*LoadReport, error) { return workload.RunOpenLoop(opts) }

// --- privacy proxy -------------------------------------------------------------

// Proxy is the concurrent multi-client serving layer: N clients share one
// privacy-scheme instance (DP-RAM, Path ORAM, …) through a scheduler that
// serializes scheme-state mutations, pipelines storage round trips, and —
// critically — issues one real access per request with no same-address
// dedup, so the backing-store trace never leaks which logical requests
// collide.
type Proxy = proxy.Proxy

// ProxyOptions configures a Proxy.
type ProxyOptions = proxy.Options

// ProxyScheme is the single-client construction a Proxy serves; *DPRAM
// and the Path ORAM baseline satisfy it unmodified.
type ProxyScheme = proxy.Scheme

// ProxySession is one client's metered handle on a shared Proxy.
type ProxySession = proxy.Session

// ProxyPipeline is the write-behind storage stage that overlaps one
// access's writes with the next access's reads (real wall-clock overlap
// over a ServerPool).
type ProxyPipeline = proxy.Pipeline

// ProxyClient is the wire client for a proxy-backed namespace: logical
// record reads/writes in one round trip each, physical addresses never
// visible.
type ProxyClient = proxy.Client

// NewProxy starts a proxy serving scheme; the scheme must not be used
// directly afterwards.
func NewProxy(scheme ProxyScheme, opts ProxyOptions) *Proxy { return proxy.New(scheme, opts) }

// PartitionedProxy stripes one tenant across P independent scheme
// instances: logical record u routes to partition u mod P, each partition
// runs its own Proxy (own stash, position map, key, coin stream), and the
// composed server-side trace leaks only the data-independent routing
// index beyond what P solo schemes leak. Each partition schedules
// independently, so accesses to different partitions overlap — the
// near-linear-in-P throughput lever for one hot tenant.
type PartitionedProxy = proxy.Partitioned

// NewPartitionedProxy composes per-partition proxies into one logical
// Accessor. Partition i must hold ShardSlots(total, P, i) records and all
// partitions must share one record size.
func NewPartitionedProxy(parts []*Proxy) (*PartitionedProxy, error) {
	return proxy.NewPartitioned(parts)
}

// NewProxyPipeline wraps a backing store with the write-behind stage; set
// up the scheme over the returned pipeline and pass it to NewProxy via
// ProxyOptions.Pipeline.
func NewProxyPipeline(inner BatchServer) *ProxyPipeline { return proxy.NewPipeline(inner) }

// DurableProxyScheme is a ProxyScheme whose client state can be
// checkpointed (MarshalState); DPRAM and the Path ORAM baseline both
// satisfy it, each with a matching Resume constructor.
type DurableProxyScheme = proxy.DurableScheme

// ProxyJournal is the durable proxy's checkpoint log: scheme client state
// plus acked-but-unflushed physical writes, CRC-framed, group-committed
// per access burst, compacted by atomic rewrite. It also owns the
// recovery epoch reported in the wire handshake.
type ProxyJournal = proxy.Journal

// ProxyCheckpoint is one recoverable proxy state.
type ProxyCheckpoint = proxy.Checkpoint

// OpenProxyJournal opens (or creates) a checkpoint journal, returning the
// newest intact checkpoint (nil for a fresh journal) with the recovery
// epoch bumped. limit ≤ 0 selects the default compaction threshold.
func OpenProxyJournal(path string, limit int64) (*ProxyJournal, *ProxyCheckpoint, error) {
	return proxy.OpenJournal(path, limit)
}

// NewDurableProxy starts a journaled proxy: every access is made durable
// (scheme state + held writes in one checkpoint) before it is
// acknowledged. The scheme must have been set up or resumed over pipe,
// which wraps the recovered physical store; see cmd/blockstored's -data
// mode for the full recovery sequence.
func NewDurableProxy(scheme DurableProxyScheme, pipe *ProxyPipeline, journal *ProxyJournal) (*Proxy, error) {
	return proxy.NewDurable(scheme, proxy.Options{Pipeline: pipe}, journal)
}

// ReplayProxyPending lands a recovered checkpoint's acked-but-unflushed
// writes on the physical store — the step between reopening the store and
// resuming the scheme.
func ReplayProxyPending(backing BatchServer, ck *ProxyCheckpoint) error {
	return proxy.ReplayPending(backing, ck)
}

// ResumeDPRAM rebuilds a DP-RAM client from a MarshalState snapshot over
// a server that already holds its encrypted array; nothing is uploaded.
func ResumeDPRAM(server Server, state []byte, opts DPRAMOptions) (*DPRAM, error) {
	return dpram.Resume(server, state, opts)
}

// ServeProxy serves p as the default namespace of a wire daemon on ln —
// the embeddable form of `blockstored -proxy`.
func ServeProxy(ln net.Listener, p *Proxy) error { return proxy.Serve(ln, p) }

// DialProxy connects to a proxy daemon's default namespace.
func DialProxy(addr string) (*ProxyClient, error) { return proxy.Dial(addr) }

// DialProxyNamespace connects to a multi-tenant daemon and opens the
// named proxy-backed namespace.
func DialProxyNamespace(addr, name string) (*ProxyClient, error) {
	return proxy.DialNamespace(addr, name)
}

// --- randomness and keys -------------------------------------------------------

// Rand is a deterministic seeded randomness source; all constructions take
// one so runs are reproducible.
type Rand = rng.Source

// NewRand returns a seeded source.
func NewRand(seed int64) *Rand { return rng.New(seed) }

// Key is a client-held master secret.
type Key = crypto.Key

// NewKey samples a fresh random key.
func NewKey() (Key, error) { return crypto.NewKey() }

// --- privacy accounting --------------------------------------------------------

// PrivacyParams is an (ε, δ) differential-privacy budget.
type PrivacyParams = privacy.Params

// DPIRLowerBound, DPRAMLowerBound and friends expose the paper's analytic
// bounds for cost planning; see internal/privacy for the full set.
var (
	DPIRLowerBound      = privacy.DPIRLowerBound
	DPRAMLowerBound     = privacy.DPRAMLowerBound
	DPIRDownloadCount   = privacy.DPIRDownloadCount
	DPIRAchievedEps     = privacy.DPIRAchievedEps
	MinEpsConstantOverh = privacy.MinEpsForConstantOverhead
)

// --- DP-IR ---------------------------------------------------------------------

// DPIR is the differentially private information-retrieval client of
// Section 5 (Algorithm 1).
type DPIR = dpir.Client

// DPIROptions configures a DPIR client.
type DPIROptions = dpir.Options

// ErrBottom is DP-IR's ⊥ answer (probability α per query).
var ErrBottom = dpir.ErrBottom

// NewDPIR creates a DP-IR client over a server holding the database.
func NewDPIR(server Server, opts DPIROptions) (*DPIR, error) { return dpir.New(server, opts) }

// MultiDPIR is the multi-server variant of Appendix C.
type MultiDPIR = dpir.Multi

// NewMultiDPIR creates a multi-server DP-IR client over D ≥ 2 replicas.
func NewMultiDPIR(servers []Server, src *Rand) (*MultiDPIR, error) {
	return dpir.NewMulti(servers, src)
}

// --- DP-RAM --------------------------------------------------------------------

// DPRAM is the differentially private RAM of Section 6 (Algorithms 2–3).
type DPRAM = dpram.Client

// DPRAMOptions configures a DPRAM client.
type DPRAMOptions = dpram.Options

// DPRAMServerBlockSize returns the server slot size DP-RAM needs for
// records of plainSize bytes under the given options.
func DPRAMServerBlockSize(plainSize int, opts DPRAMOptions) int {
	return dpram.ServerBlockSize(plainSize, opts)
}

// SetupDPRAM encrypts db onto the server and returns the client.
func SetupDPRAM(db *Database, server Server, opts DPRAMOptions) (*DPRAM, error) {
	return dpram.Setup(db, server, opts)
}

// --- DP-KVS --------------------------------------------------------------------

// DPKVS is the differentially private key-value store of Section 7.
type DPKVS = dpkvs.Store

// DPKVSOptions configures a DPKVS.
type DPKVSOptions = dpkvs.Options

// ErrKVSFull reports a (negligible-probability) insertion overflow.
var ErrKVSFull = dpkvs.ErrFull

// DPKVSRequiredServer returns the backing-server shape for the options.
func DPKVSRequiredServer(opts DPKVSOptions) (slots, blockSize int, err error) {
	return dpkvs.RequiredServer(opts)
}

// SetupDPKVS initializes an empty DP-KVS over the server.
func SetupDPKVS(server Server, opts DPKVSOptions) (*DPKVS, error) {
	return dpkvs.Setup(server, opts)
}

// --- oblivious two-choice hashing ------------------------------------------------

// TreeGeometry is the bucket forest of Section 7.2.
type TreeGeometry = twochoice.Geometry

// NewTreeGeometry builds a forest for n buckets.
func NewTreeGeometry(n, leavesPerTree, nodeCap int) (*TreeGeometry, error) {
	return twochoice.NewGeometry(n, leavesPerTree, nodeCap)
}
