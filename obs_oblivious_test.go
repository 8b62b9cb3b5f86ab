package dpstore

// Metrics-obliviousness regressions: the telemetry layer must export the
// same signals for any two workloads the adversary is not allowed to
// distinguish. internal/obs classifies every instrument:
//
//   - ClassExact   — must be BIT-IDENTICAL across access patterns
//                    (frame counts, admission counts, scheme batch sizes);
//   - ClassTiming  — only its existence is pinned (latency histograms);
//   - ClassLoad    — occupancy gauges, existence only;
//   - ClassRouting — public partition/replica indices, existence only.
//
// Three invariants are pinned here, each end to end through the real
// serve loop (TCP, wire codecs, admission, scheduler, scheme, crypto):
//
//  1. Hot-spot vs uniform: a workload where every request collides on one
//     record and one where none do produce IDENTICAL exported metric
//     deltas — same series key set across all classes, same values and
//     bucket contents for every ClassExact series. An instrument keyed on
//     a block address or record content would split the key sets; a
//     dedup-style shortcut would shift the exact batch-size buckets.
//  2. Client-attribution permutation: permuting WHICH connection issues
//     each request (global order fixed) leaves the full metric delta
//     equally invariant — no per-client cardinality beyond the namespace.
//  3. Scrape passivity: scraping the Prometheus exposition and the v2
//     stats frame mid-load must not perturb the physical transcript by a
//     single operation.
//
// Plus the structural gate: every label key on every live series must be
// in obs.LabelWhitelist — per-address labels cannot exist by construction.

import (
	"io"
	"net"
	"sync"
	"testing"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/obs"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/trace"
	"dpstore/internal/workload"
)

const (
	obsN       = 64
	obsRS      = 16
	obsQueries = 40
)

// trackedListener counts the server side of every accepted connection
// until the serve loop closes it. The serve loop records a request's
// admission metrics after writing its response, so a client can read its
// last answer before the server has counted that request; waiting for the
// server to close the connection after the client hangs up closes that
// window.
type trackedListener struct {
	net.Listener
	open sync.WaitGroup
}

func (l *trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &trackedConn{Conn: c, done: l.open.Done}, nil
}

type trackedConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *trackedConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

// servedProxy builds the named scheme over a (optionally trace-recorded)
// in-memory store, wraps it in a proxy with the write-behind pipeline —
// the full production stack — and serves it on a loopback listener. shut
// expects every client to have closed its connection: it waits for the
// serve loop to finish each one, then tears the proxy down.
func servedProxy(t *testing.T, kind string, seed int64, record bool) (addr string, rec *trace.Recorder, shut func()) {
	t.Helper()
	db, err := block.PatternDatabase(obsN, obsRS)
	if err != nil {
		t.Fatal(err)
	}
	var backing store.Server
	switch kind {
	case "dpram":
		backing, err = store.NewMem(obsN, crypto.CiphertextSize(obsRS))
	case "pathoram":
		opts := pathoram.Options{Rand: rng.New(seed)}
		slots, bs := pathoram.TreeShape(obsN, obsRS, opts)
		backing, err = store.NewMem(slots, bs)
	default:
		t.Fatalf("unknown scheme kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	inner := backing
	if record {
		rec = trace.NewRecorder(backing)
		inner = rec
	}
	pipe := proxy.NewPipeline(store.AsBatch(inner))
	var scheme proxy.Scheme
	switch kind {
	case "dpram":
		scheme, err = dpram.Setup(db, pipe, dpram.Options{Rand: rng.New(seed), Key: crypto.KeyFromSeed(uint64(seed))})
	case "pathoram":
		scheme, err = pathoram.Setup(db, pipe, pathoram.Options{Rand: rng.New(seed), Key: crypto.KeyFromSeed(uint64(seed))})
	}
	if err != nil {
		t.Fatal(err)
	}
	p := proxy.New(scheme, proxy.Options{Pipeline: pipe})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &trackedListener{Listener: tcp}
	go proxy.Serve(ln, p) //nolint:errcheck // torn down by shut
	return ln.Addr().String(), rec, func() {
		ln.open.Wait()
		ln.Close() //nolint:errcheck
		if err := p.Close(); err != nil {
			t.Errorf("closing proxy: %v", err)
		}
	}
}

// obsQuery derives request t of the fixed mixed workload over index.
func obsQuery(i int, index int) workload.Query {
	q := workload.Query{Index: index, Op: workload.Read}
	if i%2 == 1 {
		q.Op = workload.Write
		q.Data = block.Pattern(uint64(i), obsRS)
	}
	return q
}

// driveClient issues one query on c.
func driveClient(t *testing.T, c *proxy.Client, q workload.Query) {
	t.Helper()
	var err error
	if q.Op == workload.Write {
		_, err = c.Write(q.Index, q.Data)
	} else {
		_, err = c.Read(q.Index)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// metricsDelta runs drive against a freshly served proxy and returns the
// delta of the process-global registry over exactly that run. The proxy
// is fully closed (write-behind drained) before the after-snapshot, so
// every deterministic recording has landed.
func metricsDelta(t *testing.T, kind string, seed int64, drive func(addr string)) map[string]obs.Sample {
	t.Helper()
	addr, _, shut := servedProxy(t, kind, seed, false)
	before := obs.Default().Snapshot()
	drive(addr)
	shut()
	return obs.Delta(before, obs.Default().Snapshot())
}

// assertObliviousDeltas: a and b must expose the same series key set, and
// every ClassExact series must agree exactly — value for counters and
// gauges, count and full bucket contents for histograms.
func assertObliviousDeltas(t *testing.T, what string, a, b map[string]obs.Sample) {
	t.Helper()
	for k := range a {
		if _, ok := b[k]; !ok {
			t.Fatalf("%s: series %q exported by the first run only — a workload-dependent series exists", what, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			t.Fatalf("%s: series %q exported by the second run only — a workload-dependent series exists", what, k)
		}
	}
	for k, sa := range a {
		if sa.Class != obs.ClassExact {
			continue
		}
		sb := b[k]
		switch sa.Kind {
		case obs.KindCounter, obs.KindGauge:
			if sa.Value != sb.Value {
				t.Errorf("%s: exact series %q: %d vs %d — the count depends on the access pattern",
					what, k, sa.Value, sb.Value)
			}
		case obs.KindHist, obs.KindTimer:
			if sa.Count != sb.Count {
				t.Errorf("%s: exact series %q: %d vs %d observations", what, k, sa.Count, sb.Count)
			}
			for i, c := range sa.Buckets {
				if sb.Buckets[i] != c {
					t.Errorf("%s: exact series %q: bucket %d holds %d vs %d — the distribution depends on the access pattern",
						what, k, i, c, sb.Buckets[i])
				}
			}
			for i, c := range sb.Buckets {
				if sa.Buckets[i] != c {
					t.Errorf("%s: exact series %q: bucket %d holds %d vs %d", what, k, i, sa.Buckets[i], c)
				}
			}
		}
	}
}

// TestMetricsObliviousHotspotVsUniform pins invariant 1 for both schemes
// through the full serve stack.
func TestMetricsObliviousHotspotVsUniform(t *testing.T) {
	for _, kind := range []string{"dpram", "pathoram"} {
		run := func(index func(int) int) map[string]obs.Sample {
			return metricsDelta(t, kind, 11, func(addr string) {
				c, err := proxy.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for i := 0; i < obsQueries; i++ {
					driveClient(t, c, obsQuery(i, index(i)))
				}
			})
		}
		hot := run(func(int) int { return 0 })          // every request collides
		uni := run(func(i int) int { return i % obsN }) // none collide
		assertObliviousDeltas(t, kind+" hot-spot vs uniform", hot, uni)
	}
}

// TestMetricsObliviousClientPermutation pins invariant 2: same requests,
// same global order, different connection attribution.
func TestMetricsObliviousClientPermutation(t *testing.T) {
	const clients = 4
	assignments := map[string]func(int) int{
		"round-robin": func(i int) int { return i % clients },
		"blocked":     func(i int) int { return i / (obsQueries / clients) },
		"reversed":    func(i int) int { return clients - 1 - i%clients },
	}
	src := rng.New(1100)
	indices := make([]int, obsQueries)
	for i := range indices {
		indices[i] = src.Intn(obsN)
	}
	var baseline map[string]obs.Sample
	var baselineName string
	for name, assign := range assignments {
		delta := metricsDelta(t, "dpram", 12, func(addr string) {
			conns := make([]*proxy.Client, clients)
			for i := range conns {
				c, err := proxy.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}
			for i := 0; i < obsQueries; i++ {
				driveClient(t, conns[assign(i)], obsQuery(i, indices[i]))
			}
		})
		if baseline == nil {
			baseline, baselineName = delta, name
			continue
		}
		assertObliviousDeltas(t, "client permutation "+name+" vs "+baselineName, baseline, delta)
	}
}

// TestMetricsScrapeDoesNotPerturbTranscript pins invariant 3: one run
// scrapes the Prometheus exposition AND the v2 wire stats frame every few
// requests, the other never does; the recorded physical transcripts must
// be bit-identical. The proxy runs WITHOUT the write-behind pipeline here
// — exact trace comparison needs the strictly serialized scheduler, the
// same choice the proxy-level obliviousness tests make.
func TestMetricsScrapeDoesNotPerturbTranscript(t *testing.T) {
	for _, kind := range []string{"dpram", "pathoram"} {
		run := func(scrape bool) string {
			db, err := block.PatternDatabase(obsN, obsRS)
			if err != nil {
				t.Fatal(err)
			}
			var backing store.Server
			switch kind {
			case "dpram":
				backing, err = store.NewMem(obsN, crypto.CiphertextSize(obsRS))
			case "pathoram":
				opts := pathoram.Options{Rand: rng.New(13)}
				slots, bs := pathoram.TreeShape(obsN, obsRS, opts)
				backing, err = store.NewMem(slots, bs)
			}
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(backing)
			var scheme proxy.Scheme
			switch kind {
			case "dpram":
				scheme, err = dpram.Setup(db, rec, dpram.Options{Rand: rng.New(13), Key: crypto.KeyFromSeed(13)})
			case "pathoram":
				scheme, err = pathoram.Setup(db, rec, pathoram.Options{Rand: rng.New(13), Key: crypto.KeyFromSeed(13)})
			}
			if err != nil {
				t.Fatal(err)
			}
			p := proxy.New(scheme, proxy.Options{})
			defer p.Close() //nolint:errcheck
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go proxy.Serve(ln, p) //nolint:errcheck

			c, err := proxy.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var statsConn *store.Remote
			if scrape {
				if statsConn, err = store.Dial(ln.Addr().String()); err != nil {
					t.Fatal(err)
				}
				defer statsConn.Close()
			}
			for i := 0; i < obsQueries; i++ {
				driveClient(t, c, obsQuery(i, i%obsN))
				if scrape && i%5 == 4 {
					if err := obs.Default().WritePrometheus(io.Discard); err != nil {
						t.Fatal(err)
					}
					if _, err := statsConn.Stats(); err != nil {
						t.Fatal(err)
					}
				}
			}
			return rec.Transcript().Key()
		}
		plain := run(false)
		scraped := run(true)
		if plain != scraped {
			t.Fatalf("%s: scraping metrics mid-load changed the physical transcript — the exposition path touches the store", kind)
		}
	}
}

// TestLiveRegistryLabelWhitelist: every label key on every registered
// series must be in obs.LabelWhitelist. An instrument keyed by address,
// record, or client would have to smuggle that cardinality through a
// label — this is the structural gate that catches it.
func TestLiveRegistryLabelWhitelist(t *testing.T) {
	samples := obs.Default().Snapshot()
	if len(samples) == 0 {
		t.Fatal("no live series — the instrumented layers did not register")
	}
	for _, s := range samples {
		for _, l := range s.Labels {
			if !obs.LabelWhitelist[l.Key] {
				t.Errorf("series %q carries label key %q outside the whitelist", s.Key, l.Key)
			}
		}
	}
}
