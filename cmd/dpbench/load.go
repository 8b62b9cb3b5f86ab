// The load subcommand: an open-loop saturation harness against a
// blockstored daemon (or an in-process one), built on internal/workload.
//
//	dpbench load                                  # in-process daemon, 10s constant rate
//	dpbench load -schedule ramp -rate 500 -peak 20000 -duration 30s
//	dpbench load -addr 127.0.0.1:9045 -tenants 4 -sessions 2000
//	dpbench load -o BENCH_load.json               # append-ready trajectory row
//
// Latency is coordinated-omission-safe: each operation is charged from its
// INTENDED arrival on the schedule, so server stalls and queueing show up
// in p99/p999 exactly as real clients would see them. Shed operations
// (busy frames from the daemon's admission layer) are counted separately —
// a server surviving overload shows Achieved flattening while Shed grows
// and Errors stays zero.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"net"
	"os"
	"runtime"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/store"
	"dpstore/internal/wire"
	"dpstore/internal/workload"
)

// loadRow is one trajectory data point in the BENCH_load.json series: the
// go-bench envelope (name/cpus/iterations/ns_per_op) plus the open-loop
// rates and quantiles.
type loadRow struct {
	Name           string  `json:"name"`
	Cpus           int     `json:"cpus"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	Shed           int     `json:"shed"`
	Retries        int64   `json:"retries,omitempty"`
	Errors         int     `json:"errors"`
	P50Ns          int64   `json:"p50_ns"`
	P99Ns          int64   `json:"p99_ns"`
	P999Ns         int64   `json:"p999_ns"`
}

type loadDoc struct {
	Env struct {
		Go     string `json:"go"`
		OsArch string `json:"os_arch"`
	} `json:"env"`
	Benchmarks []loadRow `json:"benchmarks"`
}

func runLoad(argv []string) {
	fs := flag.NewFlagSet("dpbench load", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "", "daemon address (empty = serve an in-process memory-backed daemon)")
		slots     = fs.Int("slots", 4096, "store slots (shape for the in-process daemon, accepted from -addr daemons)")
		blockSize = fs.Int("blocksize", 64, "block size in bytes")
		schedule  = fs.String("schedule", "constant", "arrival schedule: constant, ramp, or burst")
		rate      = fs.Float64("rate", 2000, "arrival rate ops/sec (constant rate, ramp start, burst base)")
		peak      = fs.Float64("peak", 0, "peak rate ops/sec for ramp end / burst height (0 = 4× rate for ramp, 10× for burst)")
		period    = fs.Duration("period", 500*time.Millisecond, "burst schedule: period between burst onsets")
		burstLen  = fs.Duration("burstlen", 100*time.Millisecond, "burst schedule: burst duration within each period")
		duration  = fs.Duration("duration", 10*time.Second, "total run duration")
		sessions  = fs.Int("sessions", 256, "virtual client sessions")
		workers   = fs.Int("workers", 32, "bounded executor goroutines")
		conns     = fs.Int("conns", 8, "pooled connections per tenant namespace")
		tenants   = fs.Int("tenants", 1, "tenant namespaces to spread sessions over (tenant 0 is the default namespace)")
		writes    = fs.Int("writes", 10, "percent of operations that are uploads")
		inflight  = fs.Int("maxinflight", 0, "in-process daemon only: per-namespace admission limit (0 = none)")
		queue     = fs.Int("maxqueue", 0, "in-process daemon only: admission queue beyond -maxinflight")
		retries   = fs.Int("retry", 0, "retry busy-shed operations up to this many total attempts, honoring the server's RetryAfter hint with full jitter (0 = surface sheds)")
		retryBudg = fs.Duration("retrybudget", 2*time.Second, "with -retry: cap the summed backoff per operation")
		name      = fs.String("name", "", "benchmark row name (default Load<Schedule>)")
		outPath   = fs.String("o", "", "write/merge the trajectory row into this BENCH_load.json file")
	)
	fs.Parse(argv) //nolint:errcheck // ExitOnError

	var sched workload.Schedule
	rowName := *name
	switch *schedule {
	case "constant":
		sched = workload.ConstantRate(*rate, *duration)
		if rowName == "" {
			rowName = "LoadConstant"
		}
	case "ramp":
		p := *peak
		if p == 0 {
			p = 4 * *rate
		}
		sched = workload.Ramp(*rate, p, *duration)
		if rowName == "" {
			rowName = "LoadRamp"
		}
	case "burst":
		p := *peak
		if p == 0 {
			p = 10 * *rate
		}
		sched = workload.Burst(*rate, p, *period, *burstLen, *duration)
		if rowName == "" {
			rowName = "LoadBurst"
		}
	default:
		fmt.Fprintf(os.Stderr, "dpbench load: unknown -schedule %q (want constant, ramp, or burst)\n", *schedule)
		os.Exit(2)
	}
	if *tenants < 1 {
		fmt.Fprintln(os.Stderr, "dpbench load: -tenants must be ≥ 1")
		os.Exit(2)
	}

	target := *addr
	if target == "" {
		ln, err := serveInProcess(*slots, *blockSize, *tenants, *inflight, *queue)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench load: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		target = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "dpbench load: in-process daemon on %s\n", target)
	}

	pools := make([]*store.Pool, *tenants)
	for i := range pools {
		var p *store.Pool
		var err error
		if i == 0 {
			p, err = store.DialPool(target, *conns)
		} else {
			p, err = store.DialNamespacePool(target, tenantName(i), *slots, *blockSize, *conns)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench load: dialing tenant %d: %v\n", i, err)
			os.Exit(1)
		}
		if *retries > 1 {
			// Retried operations stay charged from their INTENDED arrival
			// (the retry loop runs inside Do), so backoff shows up in the
			// quantiles instead of being silently dropped — no coordinated
			// omission through the retry path either.
			p.SetRetryPolicy(store.RetryPolicy{MaxAttempts: *retries, Budget: *retryBudg})
		}
		defer p.Close()
		pools[i] = p
	}
	nSlots := pools[0].Size()
	blk := make(block.Block, pools[0].BlockSize())

	var seedHash maphash.Seed = maphash.MakeSeed()
	rep, err := workload.RunOpenLoop(workload.DriverOptions{
		Schedule: sched,
		Sessions: *sessions,
		Workers:  *workers,
		Do: func(session, seq int) error {
			p := pools[session%len(pools)]
			// Address from a per-(session, seq) hash: uniform, data-
			// independent, allocation-free.
			var h maphash.Hash
			h.SetSeed(seedHash)
			var b [16]byte
			binary.BigEndian.PutUint64(b[:8], uint64(session))
			binary.BigEndian.PutUint64(b[8:], uint64(seq))
			h.Write(b[:]) //nolint:errcheck // maphash never fails
			a := int(h.Sum64() % uint64(nSlots))
			if *writes > 0 && seq%100 < *writes {
				return p.Upload(a, blk)
			}
			_, err := p.Download(a)
			return err
		},
		IsShed: func(err error) bool { _, ok := wire.IsBusy(err); return ok },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpbench load: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("dpbench load: schedule=%s tenants=%d sessions=%d workers=%d conns=%d\n",
		*schedule, *tenants, *sessions, *workers, *conns)
	fmt.Printf("dpbench load: %s\n", rep)
	var retried int64
	for _, p := range pools {
		retried += p.Retries()
	}
	if *retries > 1 {
		fmt.Printf("dpbench load: retried %d busy-shed attempts (max %d attempts, %v budget)\n", retried, *retries, *retryBudg)
	}
	if rep.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "dpbench load: first error: %v\n", rep.FirstErr)
	}

	if *outPath != "" {
		row := loadRow{
			Name:           rowName,
			Cpus:           runtime.GOMAXPROCS(0),
			Iterations:     rep.Done,
			NsPerOp:        float64(rep.Latency.Quantile(0.50).Nanoseconds()),
			OfferedPerSec:  rep.Offered,
			AchievedPerSec: rep.Achieved,
			Shed:           rep.Shed,
			Retries:        retried,
			Errors:         rep.Errors,
			P50Ns:          rep.Latency.Quantile(0.50).Nanoseconds(),
			P99Ns:          rep.Latency.Quantile(0.99).Nanoseconds(),
			P999Ns:         rep.Latency.Quantile(0.999).Nanoseconds(),
		}
		if err := mergeLoadRow(*outPath, row); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench load: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dpbench load: wrote %s\n", *outPath)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

func tenantName(i int) string { return fmt.Sprintf("load-%d", i) }

// serveInProcess starts a memory-backed daemon on a loopback listener,
// with the requested tenant namespaces pre-attached and admission control
// applied — the self-contained mode for trajectory recording and CI.
func serveInProcess(slots, blockSize, tenants, inflight, queue int) (net.Listener, error) {
	ns := store.NewNamespaces()
	for i := 0; i < tenants; i++ {
		mem, err := store.NewMem(slots, blockSize)
		if err != nil {
			return nil, err
		}
		nm := store.DefaultNamespace
		if i > 0 {
			nm = tenantName(i)
		}
		ns.Attach(nm, mem)
	}
	if inflight > 0 {
		ns.SetAdmission(store.AdmitOptions{MaxInflight: inflight, MaxQueue: queue})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go store.ServeNamespaces(ln, ns) //nolint:errcheck // torn down with the process
	return ln, nil
}

// mergeLoadRow appends (or replaces, by name) one trajectory row in the
// BENCH_load.json document, creating the file if needed — repeated runs
// with different schedules build up one comparable series.
func mergeLoadRow(path string, row loadRow) error {
	var doc loadDoc
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("parsing existing %s: %w", path, err)
		}
	}
	doc.Env.Go = runtime.Version()
	doc.Env.OsArch = runtime.GOOS + "/" + runtime.GOARCH
	replaced := false
	for i := range doc.Benchmarks {
		if doc.Benchmarks[i].Name == row.Name && doc.Benchmarks[i].Cpus == row.Cpus {
			doc.Benchmarks[i] = row
			replaced = true
		}
	}
	if !replaced {
		doc.Benchmarks = append(doc.Benchmarks, row)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
