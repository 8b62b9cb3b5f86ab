// Command blockstored runs a passive block-storage server — the untrusted
// server_m of the paper's model (Definition 3.1) — speaking the wire
// protocol of internal/wire over TCP.
//
// It stores fixed-size slots and answers exactly two kinds of request,
// download and upload — individually or in batch frames that carry a whole
// per-query address set in one round trip — plus a shape handshake and an
// optional namespace handshake. All privacy machinery lives client-side
// (dpkv, the examples, or any program built on the library); the server
// only ever sees the access pattern the DP constructions are designed to
// protect, and a batch frame reveals exactly the same (op, address)
// multiset as the per-block exchange it replaces.
//
// Scale knobs:
//
//   - -shards K stripes every hosted store over K independently locked
//     sub-stores, so concurrent tenants stop serializing on one mutex and
//     batches execute K-way parallel (memory) or across K files (disk).
//   - -namespaces N lets clients create up to N additional tenant
//     namespaces on demand via the open handshake, each an independent
//     address space with its own locks. The flag-configured store remains
//     the default namespace, so pre-namespace clients work unchanged.
//   - -proxy dpram|pathoram turns the daemon into a privacy *proxy*: it
//     hosts the named scheme over the flag-configured backing store and
//     serves logical record accesses (MsgAccessReq) to any number of
//     concurrent clients, scheduled obliviously by internal/proxy. In
//     this mode -slots and -blocksize describe the LOGICAL database
//     (records × record bytes); the physical store shape is derived from
//     the scheme, and block frames are rejected — clients never see
//     physical addresses at all, the CAOS deployment shape.
//   - -partitions P (with -proxy) stripes the tenant over P independent
//     scheme instances — each with its own stash, position map, key, and
//     coin stream, each on its own scheduler — routing logical record u
//     to partition u mod P. One scheme is one logical party whose
//     accesses serialize; P schemes overlap whenever requests hit
//     different partitions, for near-linear throughput in P. The price is
//     a leak: P > 1 discloses log₂ P bits of every queried address (its
//     partition index u mod P), so Theorem 6.1 holds only between query
//     sequences with equal routing; the daemon logs this at startup. All
//     partitions share ONE physical backing store (windowed by
//     store.Offset), so -file/-data/-shards/-replicate compose unchanged. With -data, partition i checkpoints
//     to DIR/proxy.p<i>.journal and the striping width is persisted in
//     DIR/namespaces.json — a restart with a different -partitions (or
//     scheme, or logical shape) is refused rather than permuting the
//     database.
//   - -replicate host1,host2,... turns the daemon into a cluster front
//     door: instead of hosting blocks itself, it fans every write to all
//     listed replica daemons (-quorum W acknowledges after W durable
//     acks), serves each read from one replica chosen data-independently
//     (-readpolicy sticky|rotate), ejects dead replicas, redials them
//     with backoff, resynchronizes a rejoining replica (missed-write
//     backlog for durable replicas, full copy for epoch-0 ones), and
//     promotes it back to read-eligible — all invisible to clients,
//     which speak the ordinary block protocol to the front door. The
//     cluster's health is served on MsgReplStatusReq. Composes with
//     -proxy: the scheme's physical store then IS the replica cluster.
//
// Durability (-data DIR): the daemon becomes restartable. Every hosted
// store runs on the write-ahead engine of internal/store (checksummed
// pages, group-commit WAL, crash replay on open); factory-created
// namespaces are persisted in DIR/namespaces.json and recreated — with
// their data — on the next start; in -proxy mode the scheme's client
// state (stash, position map) checkpoints to DIR/proxy.journal so that
// every acknowledged logical write survives SIGKILL. Each startup bumps a
// recovery epoch reported in the wire handshake, so clients can detect
// that the server restarted. SIGTERM/SIGINT trigger a clean shutdown:
// stop accepting, flush and checkpoint everything, exit — after which the
// next start replays nothing.
//
// Usage (92-byte slots hold one encrypted 64-byte DP-RAM record, the
// -blocksize default):
//
//	blockstored -addr :9045 -slots 65536 -blocksize 92
//	blockstored -addr :9045 -slots 65536 -blocksize 92 -file /var/lib/blocks.dat
//	blockstored -addr :9045 -slots 65536 -blocksize 92 -data /var/lib/dpstore -shards 16 -namespaces 64
//	blockstored -addr :9045 -slots 4096 -blocksize 64 -proxy dpram -data /var/lib/dpstore
//	blockstored -addr :9040 -replicate 127.0.0.1:9041,127.0.0.1:9042,127.0.0.1:9043 -quorum 2
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/obs"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9045", "listen address")
		slots       = flag.Int("slots", 1<<16, "number of block slots (default namespace, and default for created namespaces)")
		blockSize   = flag.Int("blocksize", dpram.ServerBlockSize(64, dpram.Options{}), "slot size in bytes (default namespace, and default for created namespaces; the default holds one encrypted 64-byte DP-RAM record)")
		file        = flag.String("file", "", "optional path for a non-durable disk-backed store (created if missing; with -shards K, K files path.shard0 … are used)")
		dataDir     = flag.String("data", "", "durable data directory: stores run on the crash-safe WAL engine, namespaces persist, -proxy state checkpoints, and restarts recover")
		shards      = flag.Int("shards", 1, "stripe each store over this many independently locked sub-stores")
		namespaces  = flag.Int("namespaces", 0, "max client-created namespaces (0 disables the open-to-create path)")
		maxBytes    = flag.Int64("maxbytes", 1<<30, "per-namespace byte budget for client-requested shapes")
		proxyMode   = flag.String("proxy", "", "serve a privacy proxy over the backing store: dpram or pathoram (empty = plain block server; -slots/-blocksize then describe the logical database)")
		partitions  = flag.Int("partitions", 1, "stripe the -proxy tenant over this many independent scheme instances, overlapping accesses across partitions (logical record u routes to partition u mod P: P > 1 discloses log₂ P bits of every queried address, and Theorem 6.1 holds only between query sequences with equal routing)")
		seed        = flag.Int64("seed", 1, "scheme coin seed in -proxy mode, and read-replica selection seed in -replicate mode (deterministic for reproducible experiments)")
		replicate   = flag.String("replicate", "", "comma-separated replica daemon addresses: serve as a cluster front door over them instead of hosting blocks locally")
		quorum      = flag.Int("quorum", 0, "write quorum W in -replicate mode (0 = majority)")
		readPolicy  = flag.String("readpolicy", "sticky", "read replica selection in -replicate mode: sticky or rotate")
		maxInflight = flag.Int("maxinflight", 0, "per-namespace admission limit: concurrent executing requests (0 = no admission control)")
		maxQueue    = flag.Int("maxqueue", 0, "per-namespace admission queue: requests waiting beyond -maxinflight before the server sheds with busy frames")
		metricsAddr = flag.String("metrics", "", "optional HTTP listen address for /metrics (Prometheus text), /metrics.json and /varz (JSON namespace stats), /healthz, and /slowlog")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the -metrics listener (requires -metrics)")
		slowLogAt   = flag.Duration("slowlog", 0, "log a structured line for every request slower than this threshold (0 disables; the most recent slow spans are also served at /slowlog on the -metrics listener)")
	)
	flag.Parse()
	if *pprofOn && *metricsAddr == "" {
		log.Fatalf("blockstored: -pprof mounts its handlers on the -metrics listener; set -metrics")
	}
	if *slowLogAt < 0 {
		log.Fatalf("blockstored: -slowlog %v must be ≥ 0", *slowLogAt)
	}
	if *slowLogAt > 0 {
		sl := obs.DefaultSlowLog()
		sl.SetThreshold(*slowLogAt)
		sl.SetLogf(log.Printf)
		log.Printf("blockstored: slow-request log armed at %v", *slowLogAt)
	}
	if *maxInflight == 0 && *maxQueue != 0 {
		log.Fatalf("blockstored: -maxqueue needs -maxinflight (a queue in front of unlimited concurrency bounds nothing)")
	}
	if *maxInflight < 0 || *maxQueue < 0 {
		log.Fatalf("blockstored: -maxinflight/-maxqueue must be ≥ 0")
	}
	if *shards < 1 {
		log.Fatalf("blockstored: -shards %d must be ≥ 1", *shards)
	}
	if *partitions < 1 {
		log.Fatalf("blockstored: -partitions %d must be ≥ 1", *partitions)
	}
	if *partitions > 1 && *proxyMode == "" {
		log.Fatalf("blockstored: -partitions stripes scheme instances and needs -proxy (block namespaces stripe with -shards)")
	}
	if *partitions > 1 {
		log.Printf("blockstored: -partitions %d discloses log₂ %d = %.2f bits of every queried address (its partition u mod %d); Theorem 6.1 holds only between query sequences with equal routing",
			*partitions, *partitions, math.Log2(float64(*partitions)), *partitions)
	}
	if *file != "" && *dataDir != "" {
		log.Fatalf("blockstored: -file and -data are mutually exclusive (-data subsumes the disk backend, durably)")
	}
	explicit := explicitFlags()
	if *replicate != "" && (*file != "" || *dataDir != "" || *shards != 1 || *namespaces != 0 || explicit["maxbytes"]) {
		log.Fatalf("blockstored: -replicate is a front door over remote replicas; -file/-data/-shards/-namespaces/-maxbytes belong on the replica daemons")
	}
	if *replicate == "" && (*quorum != 0 || *readPolicy != "sticky") {
		log.Fatalf("blockstored: -quorum and -readpolicy only apply with -replicate")
	}
	// In front-door mode an EXPLICIT -slots/-blocksize pins that dimension
	// of the shape the replica daemons must hold (mis-provisioned replicas
	// fail fast at startup instead of at the first client); an unset flag
	// accepts whatever the cluster reports for that dimension — setting
	// one dimension must not silently pin the other to its default.
	wantSlots, wantBS := 0, 0
	if *replicate != "" {
		if explicit["slots"] {
			wantSlots = *slots
		}
		if explicit["blocksize"] {
			wantBS = *blockSize
		}
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("blockstored: creating -data dir: %v", err)
		}
	}
	if *file != "" || *dataDir != "" {
		// Surface which run-I/O path this build uses (see DESIGN.md
		// §HotPath's fallback matrix) so recorded numbers are attributable.
		log.Printf("blockstored: vectored run I/O: %v", store.VectoredIO())
	}

	var sd shutdown

	if *replicate != "" && *proxyMode == "" {
		cluster, desc, err := openCluster(*replicate, *quorum, *readPolicy, *seed, wantSlots, wantBS, &sd)
		if err != nil {
			log.Fatalf("blockstored: %v", err)
		}
		log.Printf("blockstored: default namespace: %s", desc)
		ns := store.NewNamespaces()
		ns.Attach(store.DefaultNamespace, cluster)
		applyOperability(ns, *maxInflight, *maxQueue, *metricsAddr, *pprofOn, &sd)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatalf("blockstored: listen: %v", err)
		}
		sd.onSignal(ln)
		log.Printf("blockstored: serving replicated blocks on %s", ln.Addr())
		sd.finish(store.ServeNamespaces(ln, ns))
		return
	}

	if *proxyMode != "" {
		p, desc, err := openProxy(*proxyMode, *file, *dataDir, *replicate, *quorum, *readPolicy, *slots, *blockSize, *partitions, *shards, *seed, &sd)
		if err != nil {
			log.Fatalf("blockstored: %v", err)
		}
		log.Printf("blockstored: proxy namespace: %s", desc)
		ns := store.NewNamespaces()
		ns.AttachAccessor(store.DefaultNamespace, p)
		ns.SetEpoch(p.Epoch())
		applyOperability(ns, *maxInflight, *maxQueue, *metricsAddr, *pprofOn, &sd)
		if p.Epoch() > 0 {
			log.Printf("blockstored: recovery epoch %d", p.Epoch())
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatalf("blockstored: listen: %v", err)
		}
		sd.onSignal(ln)
		log.Printf("blockstored: serving logical accesses on %s", ln.Addr())
		err = store.ServeNamespaces(ln, ns)
		// Checkpoint and close the proxy FIRST (it writes through the
		// engines), then the engines themselves. A failed final checkpoint
		// must surface in the exit code — supervisors treating the
		// shutdown as clean would never learn the checkpoint path is
		// broken (recovery still works, via the last per-burst checkpoint
		// and WAL replay, but the operator should know).
		if cerr := p.Close(); cerr != nil {
			log.Printf("blockstored: proxy shutdown: %v", cerr)
			sd.markFailed()
		}
		sd.finish(err)
		return
	}

	backing, desc, err := openBackingAny(*file, *dataDir, *slots, *blockSize, *shards, &sd)
	if err != nil {
		log.Fatalf("blockstored: %v", err)
	}
	log.Printf("blockstored: default namespace: %s", desc)

	ns := store.NewNamespaces()
	ns.Attach(store.DefaultNamespace, backing)
	applyOperability(ns, *maxInflight, *maxQueue, *metricsAddr, *pprofOn, &sd)

	var epoch uint64
	if *dataDir != "" {
		epoch, err = store.BumpEpoch(filepath.Join(*dataDir, "epoch"))
		if err != nil {
			log.Fatalf("blockstored: %v", err)
		}
		ns.SetEpoch(epoch)
		log.Printf("blockstored: recovery epoch %d", epoch)
	}

	if *namespaces > 0 || *dataDir != "" {
		reg, err := newTenantRegistry(*dataDir, *slots, *blockSize, *shards, *maxBytes, &sd)
		if err != nil {
			log.Fatalf("blockstored: %v", err)
		}
		restored, err := reg.restore(ns)
		if err != nil {
			log.Fatalf("blockstored: %v", err)
		}
		if restored > 0 {
			log.Printf("blockstored: restored %d persisted namespace(s)", restored)
		}
		if cap := *namespaces - restored; cap > 0 {
			ns.SetFactory(cap, reg.factory)
			log.Printf("blockstored: up to %d more client-created namespaces (≤ %d B each)", cap, *maxBytes)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("blockstored: listen: %v", err)
	}
	sd.onSignal(ln)
	log.Printf("blockstored: serving on %s", ln.Addr())
	sd.finish(store.ServeNamespaces(ln, ns))
}

// applyOperability wires the load-survival layer onto a namespace set:
// per-namespace admission control (-maxinflight/-maxqueue, serving busy
// frames past the queue) and the -metrics HTTP endpoint that keeps a
// saturated daemon observable from outside the wire protocol —
// Prometheus text on /metrics, the JSON namespace view on /metrics.json
// and /varz, liveness on /healthz, recent slow spans on /slowlog, and
// (with -pprof) the stdlib profiling handlers under /debug/pprof/.
func applyOperability(ns *store.Namespaces, maxInflight, maxQueue int, metricsAddr string, pprofOn bool, sd *shutdown) {
	if maxInflight > 0 {
		ns.SetAdmission(store.AdmitOptions{MaxInflight: maxInflight, MaxQueue: maxQueue})
		log.Printf("blockstored: admission: %d in flight + %d queued per namespace, then shed", maxInflight, maxQueue)
	}
	if metricsAddr == "" {
		return
	}
	mln, err := net.Listen("tcp", metricsAddr)
	if err != nil {
		log.Fatalf("blockstored: metrics listen: %v", err)
	}
	ms := &metricsServer{ln: mln}
	start := time.Now()
	// Process-level gauges ride the same registry the layer instruments
	// feed: uptime (timing-class by nature) and the recovery epoch (read
	// live — the epoch is bumped after applyOperability in some startup
	// orders). GaugeFunc re-registration replaces the callback, so a
	// daemon embedded in tests re-registers harmlessly.
	obs.NewGaugeFunc("dpstore_uptime_seconds",
		func() int64 { return int64(time.Since(start).Seconds()) },
		obs.WithClass(obs.ClassTiming), obs.WithHelp("seconds since daemon start"))
	obs.NewGaugeFunc("dpstore_epoch",
		func() int64 { return int64(ns.Epoch()) },
		obs.WithHelp("recovery epoch reported in the wire handshake"))
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		if ms.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "draining uptime=%s epoch=%d\n", time.Since(start).Round(time.Second), ns.Epoch())
			return
		}
		fmt.Fprintf(w, "ok uptime=%s epoch=%d\n", time.Since(start).Round(time.Second), ns.Epoch())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.Header().Set("Cache-Control", "no-cache")
		obs.Default().WritePrometheus(w) //nolint:errcheck // best-effort response write
	})
	serveJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-cache")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v) //nolint:errcheck // best-effort response write
	}
	nsJSON := func(w http.ResponseWriter, r *http.Request) { serveJSON(w, metricsView(ns)) }
	mux.HandleFunc("/metrics.json", nsJSON)
	mux.HandleFunc("/varz", nsJSON)
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, obs.DefaultSlowLog().Recent())
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("blockstored: pprof on http://%s/debug/pprof/", mln.Addr())
	}
	go func() {
		if err := http.Serve(mln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("blockstored: metrics server: %v", err)
		}
	}()
	sd.setMetrics(ms)
	log.Printf("blockstored: metrics on http://%s/metrics", mln.Addr())
}

// metricsServer is the -metrics endpoint's shutdown handle. The signal
// handler flips draining, so /healthz answers 503 the moment the daemon
// stops accepting wire connections — a load balancer polling it steers
// traffic away while the stores checkpoint — and finish closes the
// listener, so the HTTP port does not outlive the process's useful life
// (it previously leaked until exit).
type metricsServer struct {
	ln       net.Listener
	draining atomic.Bool
}

// nsMetrics is the JSON rendering of one namespace's wire.StatsEntry,
// with the kind decoded for human readers.
type nsMetrics struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Accepted   uint64 `json:"accepted"`
	Shed       uint64 `json:"shed"`
	Inflight   uint32 `json:"inflight"`
	Queued     uint32 `json:"queued"`
	Limit      uint32 `json:"limit"`
	QueueCap   uint32 `json:"queue_cap"`
	Depth      uint64 `json:"depth"`
	SyncMicros uint64 `json:"wal_sync_micros"`
}

func metricsView(ns *store.Namespaces) map[string]any {
	entries := ns.Stats()
	out := make([]nsMetrics, 0, len(entries))
	for _, e := range entries {
		kind := "block"
		switch e.Kind {
		case wire.StatsKindProxy:
			kind = "proxy"
		case wire.StatsKindReplicated:
			kind = "replicated"
		}
		out = append(out, nsMetrics{
			Name: e.Name, Kind: kind,
			Accepted: e.Accepted, Shed: e.Shed,
			Inflight: e.Inflight, Queued: e.Queued,
			Limit: e.Limit, QueueCap: e.QueueCap,
			Depth: e.Depth, SyncMicros: e.SyncMicros,
		})
	}
	return map[string]any{"epoch": ns.Epoch(), "namespaces": out}
}

// shutdown coordinates the clean-exit path: a signal closes the listener,
// the serve loop returns, and every registered store is synced and closed
// before the process exits.
type shutdown struct {
	mu       sync.Mutex
	closers  []io.Closer
	metrics  *metricsServer
	signaled bool
	failed   bool
	finished bool
}

// setMetrics hands the -metrics endpoint to the shutdown path: drained on
// signal, closed in finish.
func (s *shutdown) setMetrics(ms *metricsServer) {
	s.mu.Lock()
	s.metrics = ms
	s.mu.Unlock()
}

// markFailed records a shutdown-path failure so finish exits non-zero.
func (s *shutdown) markFailed() {
	s.mu.Lock()
	s.failed = true
	s.mu.Unlock()
}

// register adds a store to close (and thereby checkpoint) at shutdown. A
// store registered after finish has snapshotted the close list — a
// factory-created namespace racing SIGTERM — is closed on the spot: its
// engine would otherwise outlive the close loop with an uncompacted WAL.
func (s *shutdown) register(c io.Closer) {
	s.mu.Lock()
	late := s.finished
	if !late {
		s.closers = append(s.closers, c)
	}
	s.mu.Unlock()
	if late {
		if err := c.Close(); err != nil {
			log.Printf("blockstored: closing late-created store: %v", err)
			s.markFailed()
		}
	}
}

// onSignal arranges for SIGTERM/SIGINT to close the listener, unblocking
// the serve loop into the shutdown path.
func (s *shutdown) onSignal(ln net.Listener) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-ch
		log.Printf("blockstored: %v: checkpointing and shutting down", sig)
		s.mu.Lock()
		s.signaled = true
		ms := s.metrics
		s.mu.Unlock()
		// Flip /healthz to draining BEFORE closing the wire listener: a
		// health checker must never see "ok" on a daemon that has already
		// stopped accepting.
		if ms != nil {
			ms.draining.Store(true)
		}
		ln.Close()
	}()
}

// finish closes every registered store and exits. serveErr is what the
// serve loop returned: net.ErrClosed after a signal is the clean path.
func (s *shutdown) finish(serveErr error) {
	s.mu.Lock()
	s.finished = true
	closers := s.closers
	signaled := s.signaled
	ms := s.metrics
	s.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		if err := closers[i].Close(); err != nil {
			log.Printf("blockstored: closing store: %v", err)
			s.markFailed()
		}
	}
	// Close the metrics listener last: it stays readable (reporting
	// draining) for the whole checkpoint window, then goes away with the
	// process instead of leaking the port until exit.
	if ms != nil {
		if err := ms.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("blockstored: closing metrics listener: %v", err)
		}
	}
	if serveErr != nil && !(signaled && errors.Is(serveErr, net.ErrClosed)) {
		log.Fatalf("blockstored: %v", serveErr)
	}
	s.mu.Lock()
	failed := s.failed
	s.mu.Unlock()
	if failed {
		os.Exit(1)
	}
	log.Printf("blockstored: clean shutdown (stores checkpointed)")
}

// tenantRegistry builds factory-created namespaces and, when a data dir is
// set, persists them (name + shape) so a restart recreates them with their
// data. Durable tenants live at DIR/ns-<hex(name)>; the hex encoding keeps
// arbitrary wire names safe as file names.
type tenantRegistry struct {
	dataDir   string
	defSlots  int
	defBS     int
	shards    int
	budget    int64
	sd        *shutdown
	mu        sync.Mutex
	persisted []store.NamespaceRecord
}

func newTenantRegistry(dataDir string, defSlots, defBS, shards int, budget int64, sd *shutdown) (*tenantRegistry, error) {
	r := &tenantRegistry{dataDir: dataDir, defSlots: defSlots, defBS: defBS, shards: shards, budget: budget, sd: sd}
	if dataDir != "" {
		recs, err := store.LoadRegistry(r.registryPath())
		if err != nil {
			return nil, err
		}
		r.persisted = recs
	}
	return r, nil
}

func (r *tenantRegistry) registryPath() string {
	return filepath.Join(r.dataDir, "namespaces.json")
}

// restore reattaches every persisted block namespace, reopening its
// engines. Proxy configuration records (Proxy != "") are consumed by
// openProxy at startup, not here: they describe the default namespace's
// scheme deployment, not a block tenant with files of its own.
func (r *tenantRegistry) restore(ns *store.Namespaces) (int, error) {
	restored := 0
	for _, rec := range r.persisted {
		if rec.Proxy != "" {
			continue
		}
		backing, _, err := openDurableBacking(r.tenantBase(rec.Name), rec.Slots, rec.BlockSize, r.shards, r.sd)
		if err != nil {
			return 0, fmt.Errorf("restoring namespace %q: %w", rec.Name, err)
		}
		ns.Attach(rec.Name, backing)
		restored++
	}
	return restored, nil
}

func (r *tenantRegistry) tenantBase(name string) string {
	return filepath.Join(r.dataDir, "ns-"+hex.EncodeToString([]byte(name)))
}

// factory is the on-demand tenant builder handed to Namespaces.SetFactory:
// shape-budget checked exactly like the in-memory path, then built
// in-memory (no -data) or on the durable engine with the registry updated
// BEFORE the namespace is served — a crash right after creation must not
// forget a namespace a client saw acknowledged.
func (r *tenantRegistry) factory(name string, nsSlots, nsBlockSize int) (store.Server, error) {
	nsSlots, nsBlockSize, err := checkTenantShape(nsSlots, nsBlockSize, r.defSlots, r.defBS, r.budget)
	if err != nil {
		return nil, err
	}
	if r.dataDir == "" {
		log.Printf("blockstored: creating namespace %q: %d slots × %d B in memory", name, nsSlots, nsBlockSize)
		return newMemBacking(nsSlots, nsBlockSize, r.shards)
	}
	// Persist the record BEFORE opening the engines: a crash (or an engine
	// failure) after this point leaves at worst a registered-but-empty
	// namespace that the next start recreates zeroed, never an engine the
	// registry has forgotten — and never a leaked open engine whose
	// committer would race a client's retry on the same files.
	r.mu.Lock()
	prev := r.persisted
	recs := append(append([]store.NamespaceRecord(nil), prev...),
		store.NamespaceRecord{Name: name, Slots: nsSlots, BlockSize: nsBlockSize})
	if err := store.SaveRegistry(r.registryPath(), recs); err != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("persisting namespace %q: %w", name, err)
	}
	r.persisted = recs
	r.mu.Unlock()
	backing, desc, err := openDurableBacking(r.tenantBase(name), nsSlots, nsBlockSize, r.shards, r.sd)
	if err != nil {
		// Best-effort registry rollback; a leftover record is benign (see
		// above), a missing one is exact.
		r.mu.Lock()
		if store.SaveRegistry(r.registryPath(), prev) == nil {
			r.persisted = prev
		}
		r.mu.Unlock()
		return nil, err
	}
	log.Printf("blockstored: creating namespace %q: %s", name, desc)
	return backing, nil
}

// checkTenantShape applies the zero-defaults and the hostile-shape budget
// guard shared by the memory and durable factories.
func checkTenantShape(nsSlots, nsBlockSize, defSlots, defBS int, budget int64) (int, int, error) {
	if nsSlots == 0 {
		nsSlots = defSlots
	}
	if nsBlockSize == 0 {
		nsBlockSize = defBS
	}
	// Budget check by division, not multiplication: a hostile open can
	// request slot counts near max-int, and an overflowed product would
	// sail past the budget into a huge allocation. The per-slot overhead
	// term charges for slice headers and allocator bookkeeping so tiny
	// blocks cannot buy absurd slot counts within a byte budget meant for
	// payload.
	const perSlotOverhead = 48
	if nsSlots < 0 || nsBlockSize <= 0 || int64(nsSlots) > budget/(int64(nsBlockSize)+perSlotOverhead) {
		return 0, 0, fmt.Errorf("requested %d × %d B exceeds the %d B namespace budget", nsSlots, nsBlockSize, budget)
	}
	return nsSlots, nsBlockSize, nil
}

// newMemBacking builds an in-memory store, striped when shards > 1. A
// store too small for the configured stripe width is striped as far as it
// goes (one slot per shard) — for factory-created tenant namespaces the
// layout is the server's choice.
func newMemBacking(slots, blockSize, shards int) (store.Server, error) {
	if shards > slots {
		shards = slots
	}
	if shards > 1 {
		return store.NewShardedMem(slots, blockSize, shards)
	}
	return store.NewMem(slots, blockSize)
}

// explicitFlags returns the set of flags the operator actually passed,
// distinguishing them from defaulted values (a default must neither pin
// the cluster shape nor trip the front-door flag validation).
func explicitFlags() map[string]bool {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// openCluster dials the -replicate replica daemons and assembles the
// Replicated front door. wantSlots/wantBS, when non-zero, pin that
// dimension of the shape the replicas must hold (the -proxy composition
// derives both from the scheme); a zero accepts whatever consistent
// value the cluster reports for that dimension.
func openCluster(replicate string, quorum int, readPolicy string, seed int64, wantSlots, wantBS int, sd *shutdown) (*store.Replicated, string, error) {
	var policy store.ReadPolicy
	switch readPolicy {
	case "sticky":
		policy = store.ReadSticky
	case "rotate":
		policy = store.ReadRotate
	default:
		return nil, "", fmt.Errorf("unknown -readpolicy %q (want sticky or rotate)", readPolicy)
	}
	addrs := strings.Split(replicate, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return nil, "", fmt.Errorf("-replicate has an empty address (got %q)", replicate)
		}
	}
	cluster, err := store.DialCluster(addrs, store.ClusterOptions{
		Slots:     wantSlots,
		BlockSize: wantBS,
		Replicated: store.ReplicatedOptions{
			WriteQuorum: quorum,
			ReadPolicy:  policy,
			Seed:        seed,
		},
	})
	if err != nil {
		// A pinned shape is enforced in every replica's open handshake,
		// so a mis-provisioned replica surfaces as a namespace-rejected
		// dial error; add the remedy to that message only (a plain
		// connection failure must not tell the operator to change shape
		// flags that are not the problem).
		if (wantSlots != 0 || wantBS != 0) && strings.Contains(err.Error(), "namespace rejected") {
			var pins []string
			if wantSlots != 0 {
				pins = append(pins, fmt.Sprintf("-slots %d", wantSlots))
			}
			if wantBS != 0 {
				pins = append(pins, fmt.Sprintf("-blocksize %d", wantBS))
			}
			return nil, "", fmt.Errorf("%w (this front door pins the shape — start the replica daemons with %s)",
				err, strings.Join(pins, " "))
		}
		return nil, "", err
	}
	sd.register(cluster)
	return cluster, fmt.Sprintf("%d slots × %d B replicated over %d daemons (W=%d, reads %s)",
		cluster.Size(), cluster.BlockSize(), len(addrs), cluster.Quorum(), readPolicy), nil
}

// openBackingAny dispatches between the three backend families: memory,
// non-durable file (-file), durable engine (-data).
func openBackingAny(file, dataDir string, slots, blockSize, shards int, sd *shutdown) (store.Server, string, error) {
	if dataDir != "" {
		if slots < shards {
			return nil, "", fmt.Errorf("%d slots cannot stripe over %d shards", slots, shards)
		}
		return openDurableBacking(filepath.Join(dataDir, "blocks"), slots, blockSize, shards, sd)
	}
	return openBacking(file, slots, blockSize, shards)
}

// openDurableBacking opens (or creates) a crash-safe store on the WAL
// engine at base, striped over K engines for -shards K. On success every
// engine is registered for clean-shutdown checkpointing; on any error the
// engines opened so far are closed again (no half-open stripe survives,
// and a retried open never races a leaked committer on the same files).
func openDurableBacking(base string, slots, blockSize, shards int, sd *shutdown) (store.Server, string, error) {
	if shards > slots {
		shards = slots
	}
	engines := make([]*store.Durable, 0, shards)
	closeAll := func() {
		for _, d := range engines {
			d.Close() //nolint:errcheck // already on an error path
		}
	}
	if shards == 1 {
		d, err := store.OpenOrCreateDurable(base, slots, blockSize, store.DurableOptions{})
		if err != nil {
			return nil, "", err
		}
		sd.register(d)
		return d, fmt.Sprintf("%d slots × %d B durable (WAL engine) at %s", slots, blockSize, base), nil
	}
	subs := make([]store.Server, shards)
	for i := range subs {
		d, err := store.OpenOrCreateDurable(fmt.Sprintf("%s.shard%d", base, i),
			store.ShardSlots(slots, shards, i), blockSize, store.DurableOptions{})
		if err != nil {
			closeAll()
			return nil, "", err
		}
		engines = append(engines, d)
		subs[i] = d
	}
	s, err := store.NewSharded(subs)
	if err != nil {
		closeAll()
		return nil, "", err
	}
	for _, d := range engines {
		sd.register(d)
	}
	return s, fmt.Sprintf("%d slots × %d B durable (WAL engine) striped over %d shards at %s.shard*", slots, blockSize, shards, base), nil
}

// openBacking builds a memory or -file backed store (the non-durable
// families, unchanged from the pre-engine daemon).
func openBacking(file string, slots, blockSize, shards int) (store.Server, string, error) {
	if file == "" {
		// The operator asked for this exact stripe width; refuse rather
		// than silently downgrade (mirrors the disk path below).
		if slots < shards {
			return nil, "", fmt.Errorf("%d slots cannot stripe over %d shards", slots, shards)
		}
		s, err := newMemBacking(slots, blockSize, shards)
		if err != nil {
			return nil, "", err
		}
		return s, fmt.Sprintf("%d slots × %d B in memory (%d shard(s))", slots, blockSize, shards), nil
	}
	if shards == 1 {
		f, err := openOrCreate(file, slots, blockSize)
		if err != nil {
			return nil, "", err
		}
		return f, fmt.Sprintf("%d slots × %d B on disk at %s", slots, blockSize, file), nil
	}
	if slots < shards {
		return nil, "", fmt.Errorf("%d slots cannot stripe over %d shards", slots, shards)
	}
	subs := make([]store.Server, shards)
	for i := range subs {
		path := fmt.Sprintf("%s.shard%d", file, i)
		f, err := openOrCreate(path, store.ShardSlots(slots, shards, i), blockSize)
		if err != nil {
			return nil, "", err
		}
		subs[i] = f
	}
	s, err := store.NewSharded(subs)
	if err != nil {
		return nil, "", err
	}
	return s, fmt.Sprintf("%d slots × %d B on disk striped over %d files at %s.shard*", slots, blockSize, shards, file), nil
}

// proxyFront is what main needs from a -proxy deployment: the accessor
// served on the wire, its recovery epoch, and shutdown. Both proxy.Proxy
// (one scheme) and proxy.Partitioned (P schemes) satisfy it.
type proxyFront interface {
	store.Accessor
	Epoch() uint64
	Flush() error
	Close() error
}

// openProxy builds the -proxy deployment: the scheme's physical store
// derived from the logical shape (memory, -file, the durable engine, or a
// replica cluster), a write-behind pipeline underneath, and the proxy
// scheduler on top.
//
// With -partitions P, the logical database is striped over P fully
// independent scheme instances (record u → partition u mod P, local index
// u div P), each with its own pipeline and scheduler, all windowed onto
// ONE shared physical store via store.Offset — so the backing composition
// flags apply once to the whole deployment, not per partition.
//
// With -data, the deployment is RESTARTABLE: the physical store is the
// WAL engine; each partition's client state checkpoints to its own
// journal (proxy.journal for P=1, proxy.p<i>.journal otherwise) per
// acknowledged access burst (see proxy.Journal for the commit protocol);
// and on startup the daemon recovers — engine replay, then per-partition
// checkpoint restore and pending-write replay — before serving. A fresh
// directory runs Setup and seeds each journal with the initial
// checkpoint. The deployment shape (scheme, logical shape, P) persists in
// namespaces.json; a restart with disagreeing flags is refused.
func openProxy(mode, file, dataDir, replicate string, quorum int, readPolicy string, records, recordSize, partitions, shards int, seed int64, sd *shutdown) (proxyFront, string, error) {
	if partitions > records {
		return nil, "", fmt.Errorf("%d records cannot stripe over %d partitions", records, partitions)
	}
	oramOpts := pathoram.Options{Rand: rng.New(seed)}
	ramOpts := dpram.Options{Rand: rng.New(seed)}

	// Derive each partition's logical record count and physical window.
	// The physical block size is a function of the record size and scheme
	// options only, so it agrees across partitions and one backing store
	// (of the summed slot count) serves them all; assert rather than
	// assume.
	partRecords := make([]int, partitions)
	partSlots := make([]int, partitions)
	physBS, totalSlots := 0, 0
	for i := range partRecords {
		n := store.ShardSlots(records, partitions, i)
		partRecords[i] = n
		var s, bs int
		switch mode {
		case "dpram":
			s, bs = n, dpram.ServerBlockSize(recordSize, ramOpts)
		case "pathoram":
			s, bs = pathoram.TreeShape(n, recordSize, oramOpts)
		default:
			return nil, "", fmt.Errorf("unknown -proxy scheme %q (want dpram or pathoram)", mode)
		}
		if i == 0 {
			physBS = bs
		} else if bs != physBS {
			return nil, "", fmt.Errorf("partition %d derives %d B physical blocks, partition 0 derives %d B", i, bs, physBS)
		}
		partSlots[i] = s
		totalSlots += s
	}

	if dataDir != "" {
		if replicate != "" {
			return nil, "", fmt.Errorf("-proxy -data -replicate is not a supported combination (run the replicas with -data for block durability)")
		}
		// Validate (or record) the deployment shape BEFORE touching the
		// engines: resuming a directory striped as P partitions with a
		// different P would permute every logical address.
		if err := persistProxyConfig(filepath.Join(dataDir, "namespaces.json"), mode, records, recordSize, partitions); err != nil {
			return nil, "", err
		}
	}

	// One shared physical backing for all partitions.
	var backing store.Server
	var desc string
	var err error
	switch {
	case replicate != "":
		// Proxy over a replica cluster: the physical store IS the
		// Replicated front end, so every obfuscated block lands on W
		// daemons and reads fail over invisibly underneath the scheme(s).
		// Scheme client state is ephemeral here.
		backing, desc, err = openCluster(replicate, quorum, readPolicy, seed, totalSlots, physBS, sd)
	case dataDir == "":
		backing, desc, err = openBacking(file, totalSlots, physBS, shards)
	default:
		backing, desc, err = openDurableBacking(filepath.Join(dataDir, "blocks"), totalSlots, physBS, shards, sd)
	}
	if err != nil {
		return nil, "", err
	}
	batch := store.AsBatch(backing)

	// optsFor derives partition i's coin-stream options. Mixing the
	// recovery epoch keeps a restarted daemon from replaying the previous
	// incarnation's decoy/leaf draws against the same persisted array —
	// identical draws across epochs would let an adversary comparing the
	// two traces separate coin-driven from query-driven addresses — and
	// mixing the partition index keeps sibling partitions' draws
	// decorrelated for the same reason, across partitions instead of
	// across time. (SplitMix64's two increment constants decorrelate the
	// streams; runs stay reproducible per (seed, epoch, partition), and
	// partition 0 at epoch 0 reduces to the plain seed, so pre-partition
	// deployments derive the exact streams they always did.)
	optsFor := func(i int, epoch uint64) (dpram.Options, pathoram.Options) {
		s := int64(uint64(seed) ^ epoch*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
		ro, oo := ramOpts, oramOpts
		ro.Rand, oo.Rand = rng.New(s), rng.New(s)
		return ro, oo
	}

	parts := make([]*proxy.Proxy, partitions)
	base := 0
	recovered, pending := 0, 0
	var journalEpoch uint64
	for i := range parts {
		// Partition i sees only its own window of the shared store; at
		// P=1 the window is the whole store and the wrapper is skipped.
		window := batch
		if partitions > 1 {
			window, err = store.NewOffset(batch, base, partSlots[i])
			if err != nil {
				return nil, "", err
			}
		}
		base += partSlots[i]

		if dataDir == "" {
			ro, oo := optsFor(i, 0)
			pipe := proxy.NewPipeline(window)
			scheme, err := setupScheme(mode, partRecords[i], recordSize, pipe, ro, oo)
			if err != nil {
				return nil, "", err
			}
			p := proxy.New(scheme, proxy.Options{Pipeline: pipe})
			if err := p.Flush(); err != nil {
				return nil, "", fmt.Errorf("%s setup flush: %w", mode, err)
			}
			parts[i] = p
			continue
		}

		jname := "proxy.journal"
		if partitions > 1 {
			jname = fmt.Sprintf("proxy.p%d.journal", i)
		}
		journal, ck, err := proxy.OpenJournal(filepath.Join(dataDir, jname), 0)
		if err != nil {
			return nil, "", err
		}
		if journal.Epoch() > journalEpoch {
			journalEpoch = journal.Epoch()
		}
		ro, oo := optsFor(i, journal.Epoch())
		pipe := proxy.NewPipeline(window)
		var scheme proxy.DurableScheme
		if ck != nil {
			// Recovery: the engine already replayed its own WAL; land this
			// partition's acked-but-unflushed writes in its window, then
			// transplant the scheme state over the pipeline.
			if err := proxy.ReplayPending(window, ck); err != nil {
				return nil, "", err
			}
			switch mode {
			case "dpram":
				scheme, err = dpram.Resume(pipe, ck.State, ro)
			case "pathoram":
				scheme, err = pathoram.Resume(pipe, ck.State, oo)
			}
			if err != nil {
				return nil, "", fmt.Errorf("%s resume (partition %d): %w", mode, i, err)
			}
			recovered++
			pending += len(ck.Pending)
		} else {
			// Fresh journal: set up through the (not yet journaled)
			// pipeline, land everything, and seed the journal.
			scheme, err = setupScheme(mode, partRecords[i], recordSize, pipe, ro, oo)
			if err != nil {
				return nil, "", err
			}
			if err := pipe.Flush(); err != nil {
				return nil, "", fmt.Errorf("%s setup flush: %w", mode, err)
			}
			state, err := scheme.MarshalState()
			if err != nil {
				return nil, "", fmt.Errorf("%s initial state: %w", mode, err)
			}
			if err := journal.Append(proxy.Checkpoint{State: state}); err != nil {
				return nil, "", fmt.Errorf("%s initial checkpoint: %w", mode, err)
			}
		}
		p, err := proxy.NewDurable(scheme, proxy.Options{Pipeline: pipe}, journal)
		if err != nil {
			return nil, "", err
		}
		parts[i] = p
	}

	// Export each partition's scheduler queue depth gauge, keyed by the
	// public partition index — the same index the adversary reads off the
	// physical trace, so the series adds no leakage.
	for i, p := range parts {
		p.RegisterObs(i)
	}

	if dataDir != "" {
		switch {
		case recovered == 0:
			desc += fmt.Sprintf(", journaled at epoch %d", journalEpoch)
		case partitions == 1:
			desc += fmt.Sprintf(", recovered at epoch %d (%d pending writes replayed)", journalEpoch, pending)
		default:
			desc += fmt.Sprintf(", recovered at epoch %d (%d/%d partitions, %d pending writes replayed)", journalEpoch, recovered, partitions, pending)
		}
	}
	shape := fmt.Sprintf("%s over %d records × %d B", mode, records, recordSize)
	if partitions == 1 {
		return parts[0], fmt.Sprintf("%s (backing: %s)", shape, desc), nil
	}
	pt, err := proxy.NewPartitioned(parts)
	if err != nil {
		return nil, "", err
	}
	return pt, fmt.Sprintf("%s striped over %d partitions (backing: %s)", shape, partitions, desc), nil
}

// persistProxyConfig records the -proxy deployment shape in the data
// dir's namespace registry, or validates the flags against the persisted
// record on a restart. The striping width is load-bearing on-disk state —
// logical record u lives in partition u mod P, so opening the same
// directory under a different P (or scheme, or logical shape) would
// silently scramble the database; refuse instead.
func persistProxyConfig(path, mode string, records, recordSize, partitions int) error {
	recs, err := store.LoadRegistry(path)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Proxy == "" {
			continue
		}
		recP := rec.Partitions
		if recP == 0 {
			recP = 1 // registries written before striping existed are single-partition
		}
		if rec.Proxy != mode || rec.Slots != records || rec.BlockSize != recordSize || recP != partitions {
			return fmt.Errorf("data dir was created with -proxy %s -slots %d -blocksize %d -partitions %d; refusing to open it with -proxy %s -slots %d -blocksize %d -partitions %d (the on-disk striping cannot be reinterpreted)",
				rec.Proxy, rec.Slots, rec.BlockSize, recP, mode, records, recordSize, partitions)
		}
		return nil
	}
	rec := store.NamespaceRecord{
		Name: store.DefaultNamespace, Slots: records, BlockSize: recordSize,
		Proxy: mode,
	}
	if partitions > 1 {
		// P=1 stays implicit so single-partition registries remain
		// byte-identical to the pre-striping format.
		rec.Partitions = partitions
	}
	recs = append(recs, rec)
	return store.SaveRegistry(path, recs)
}

// setupScheme runs the scheme's Setup over a zeroed logical database.
func setupScheme(mode string, records, recordSize int, server store.Server, ramOpts dpram.Options, oramOpts pathoram.Options) (proxy.DurableScheme, error) {
	db, err := block.NewDatabase(records, recordSize)
	if err != nil {
		return nil, fmt.Errorf("proxy database: %w", err)
	}
	switch mode {
	case "dpram":
		c, err := dpram.Setup(db, server, ramOpts)
		if err != nil {
			return nil, fmt.Errorf("dpram setup: %w", err)
		}
		return c, nil
	case "pathoram":
		o, err := pathoram.Setup(db, server, oramOpts)
		if err != nil {
			return nil, fmt.Errorf("pathoram setup: %w", err)
		}
		return o, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", mode)
}

func openOrCreate(path string, slots, blockSize int) (*store.File, error) {
	if _, err := os.Stat(path); err == nil {
		f, err := store.OpenFile(path, slots, blockSize)
		if err != nil {
			return nil, fmt.Errorf("opening existing store: %w", err)
		}
		return f, nil
	}
	f, err := store.CreateFile(path, slots, blockSize)
	if err != nil {
		return nil, fmt.Errorf("creating store: %w", err)
	}
	return f, nil
}
