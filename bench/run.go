package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dpstore/internal/workload"
)

// durableRate is the frozen arrival rate of dpram-served-durable, in
// accesses per second over all workers. It was calibrated once, to about
// 40 % of the two-client closed-loop capacity of the reference sandbox (see
// README.md, "The open-loop rate"), and must not be retuned: a rate that
// moves with the program would hide the very regressions it is there to
// show.
const durableRate = 1000

// sloLimit is the fixed latency limit behind gen.slo_miss_ratio.
const sloLimit = 5 * time.Millisecond

// config is one run's arguments.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int // 0: end-to-end metrics; 1: per-layer metrics; 2: both
	outDir     string
	tmpDir     string
	cores      int
	traceEvery int
	closedLoop bool // calibration: drive an open-loop workload closed-loop
}

// workloadImpl binds a workload name to its stack and load shape.
type workloadImpl struct {
	name       string
	rate       float64 // arrivals per second of the open loop; 0 = closed loop
	traceEvery int     // trace one access in this many
	build      func(cfg *config, tr *tracer, encrypt bool) (*stack, error)
	frames     func() []frameSpec // what one access puts on the wire, for the codec probe
	scheme     schemeKind
	hasScheme  bool
	recSize    int
}

var workloadImpls = []workloadImpl{
	{name: "blocksvc-mixed", traceEvery: 7, build: buildMixed, frames: mixedFrames}, // 7 is coprime to the 20-call cycle: every op kind gets sampled
	{name: "dpram-remote", traceEvery: 16, build: buildRemote(kindDPRAM), frames: remoteFrames(kindDPRAM, 2, 1), scheme: kindDPRAM, hasScheme: true, recSize: remoteRecSize},
	{name: "pathoram-remote", traceEvery: 2, build: buildRemote(kindPathORAM), frames: remoteFrames(kindPathORAM, pathBlocks(), pathBlocks()), scheme: kindPathORAM, hasScheme: true, recSize: remoteRecSize},
	{name: "dpram-served-durable", rate: durableRate, traceEvery: 1, build: buildServed(kindDPRAM), frames: servedFrames, scheme: kindDPRAM, hasScheme: true, recSize: servedRecSize},
}

func findWorkload(name string) (*workloadImpl, error) {
	for i := range workloadImpls {
		if workloadImpls[i].name == name {
			return &workloadImpls[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sliceStats is what one measured slice of load produced.
type sliceStats struct {
	svc  []int64 // send → completion, ns
	lat  []int64 // charged latency, ns: svc on a closed loop, from the intended arrival on the open loop
	late []int64 // open loop: send − intended arrival, ns
	kind []uint8

	failed   int
	firstErr error
	elapsed  time.Duration
	cpu      time.Duration
}

func (s *sliceStats) attempted() int { return len(s.svc) + s.failed }

func (s *sliceStats) merge(o *sliceStats) {
	s.svc = append(s.svc, o.svc...)
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.kind = append(s.kind, o.kind...)
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *sliceStats) record(kind opKind, svc, late time.Duration, openLoop bool, err error) {
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.svc = append(s.svc, int64(svc))
	s.kind = append(s.kind, uint8(kind))
	if openLoop {
		s.late = append(s.late, int64(late))
		s.lat = append(s.lat, int64(late+svc))
	}
}

// cpuTime is the process's user+system CPU time so far: load generator,
// client and in-process daemon together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSlice drives st for d and returns what happened. On a closed loop
// every client issues its next operation when the previous one completes.
// On the open loop operations arrive on the constant-rate schedule whatever
// the server does, arrival i belongs to worker i mod clients, and latency is
// charged from the intended arrival.
func runSlice(st *stack, d time.Duration, rate float64) *sliceStats {
	per := make([]*sliceStats, st.clients)
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	if rate <= 0 {
		deadline := start.Add(d)
		for c := 0; c < st.clients; c++ {
			per[c] = &sliceStats{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var o op
				for g := st.gens[c]; !g.atBoundary() || time.Now().Before(deadline); {
					g.next(&o)
					svc, err := st.exec(c, &o)
					per[c].record(o.kind, svc, 0, false, err)
				}
			}(c)
		}
	} else {
		sched := workload.ConstantRate(rate, d)
		for c := 0; c < st.clients; c++ {
			per[c] = &sliceStats{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var o op
				// Worker c owns arrivals c, c+clients, …: it sleeps until each
				// is due and, once behind, works through its backlog without
				// pause — a FIFO queue per connection that the server can
				// never push back on.
				for i := c; ; i += st.clients {
					off, ok := sched.At(i)
					if !ok {
						return
					}
					due := start.Add(off)
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					st.gens[c].next(&o)
					late := time.Since(due)
					svc, err := st.exec(c, &o)
					per[c].record(o.kind, svc, late, true, err)
				}
			}(c)
		}
	}
	wg.Wait()
	out := &sliceStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, p := range per {
		out.merge(p)
	}
	if rate <= 0 {
		out.lat = out.svc
	}
	return out
}

// tally accumulates attempted and failed operations over a whole run.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(s *sliceStats) {
	t.attempted += s.attempted()
	t.failed += s.failed
	if t.firstErr == nil {
		t.firstErr = s.firstErr
	}
}

// warm lets caches fill and lazy set-up finish before anything is timed.
func warm(st *stack, seconds float64, rate float64, t *tally) {
	d := time.Duration(seconds * 0.05 * float64(time.Second))
	if d > time.Second {
		d = time.Second
	}
	t.add(runSlice(st, d, rate))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

const slicePairs = 10

const (
	setupBudget  = 1.5 // seconds of set-up work behind setup_s on a full-length run
	minSetupReps = 3
	maxSetupReps = 15
)

// runEndToEnd measures the end-to-end metrics, tracing off. The scheme and
// its plaintext twin run in alternating slices so that machine drift hits
// both, and every reported timing is the median over the slices.
func runEndToEnd(cfg *config, w *workloadImpl, rep *report) (*tally, error) {
	rate := w.rate
	if cfg.closedLoop {
		rate = 0
	}
	t := &tally{}

	// Set up several times — more often when a set-up is quick, so that the
	// median rests on at least setupBudget of work — report the median, and
	// keep the last stack.
	var st *stack
	var setups []float64
	budget := math.Min(setupBudget, setupBudget*cfg.seconds/20)
	for i, spent := 0, 0.0; i < minSetupReps || (spent < budget && i < maxSetupReps); i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return t, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if st, err = w.build(cfg, nil, true); err != nil {
			return t, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer st.close()
	// blocksvc-mixed is itself the plaintext floor and has no twin.
	var twin *stack
	if st.twin != nil {
		var err error
		if twin, err = st.twin(); err != nil {
			return t, fmt.Errorf("twin set-up: %w", err)
		}
		defer twin.close()
	}
	rep.set("setup_s", median(setups))
	rep.set("storage_blowup_x", ratio(float64(st.serverBytes), float64(st.userBytes)))

	warm(st, cfg.seconds, rate, t)
	if twin != nil {
		warm(twin, cfg.seconds, rate, t)
	}
	var p50, tail, thr, cpu, twinP50 []float64
	var blocks, done int64
	samples, tailQ := 0, 0.0
	for i := 0; i < slicePairs; i++ {
		b0 := st.blocksMoved()
		s := runSlice(st, seconds(cfg.seconds*0.75/slicePairs), rate)
		blocks += st.blocksMoved() - b0
		done += int64(s.attempted())
		t.add(s)
		sorted := sortedCopy(s.lat)
		tailQ = tailQuantile(len(sorted))
		p50 = append(p50, us(quantile(sorted, 0.5)))
		tail = append(tail, us(quantile(sorted, tailQ)))
		thr = append(thr, ratio(float64(len(s.svc)), s.elapsed.Seconds()))
		cpu = append(cpu, ratio(us(int64(s.cpu)), float64(len(s.svc))))
		samples += len(sorted)

		if twin != nil {
			ts := runSlice(twin, seconds(cfg.seconds*0.25/slicePairs), rate)
			t.add(ts)
			twinP50 = append(twinP50, us(quantile(sortedCopy(ts.lat), 0.5)))
		}
	}
	rep.setN("access_p50_us", median(p50), samples)
	rep.setN("access_p99_us", median(tail), samples)
	if tailQ != 0.99 {
		rep.notef("access_p99_us is p%g: a slice of %d samples has fewer than ten beyond p99", tailQ*100, samples/slicePairs)
	}
	rep.set("throughput_ops_s", median(thr))
	rep.set("cpu_us_per_access", median(cpu))
	rep.set("blocks_per_access", ratio(float64(blocks), float64(done)))
	rep.notef("%d slices of %.2fs, loop %s", slicePairs, cfg.seconds*0.75/slicePairs, loopName(rate))
	if twin != nil {
		rep.setN("overhead_x", ratio(median(p50), median(twinP50)), samples)
		rep.notef("plaintext twin: access_p50_us %.4f over %d slices of %.2fs", median(twinP50), slicePairs, cfg.seconds*0.25/slicePairs)
	} else {
		rep.set("overhead_x", 1)
	}

	if err := finish(st, rep, t); err != nil {
		return t, err
	}
	if twin != nil {
		return t, twin.close()
	}
	return t, nil
}

func loopName(rate float64) string {
	if rate <= 0 {
		return "closed"
	}
	return fmt.Sprintf("open at %g/s", rate)
}

// finish runs the stack's shutdown-time verification and closes it.
func finish(st *stack, rep *report, t *tally) error {
	if st.finalCheck != nil {
		n, err := st.finalCheck()
		if err != nil {
			t.failed++
			if errors.Is(err, errMismatch) {
				t.firstErr = err
				return nil
			}
			return fmt.Errorf("recovery check: %w", err)
		}
		rep.notef("recovery check: reopened store and journal, resumed the scheme, read back %d written records", n)
	}
	return st.close()
}

// memCounters snapshots the allocator; ReadMemStats stops the world, so it
// is only ever called between slices.
func memCounters() (mallocs, bytes uint64, gcPause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
