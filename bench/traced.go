package main

import (
	"fmt"
	"sort"

	"dpstore/internal/obs"
	"dpstore/internal/stats"
)

// counters is a snapshot of every count the traced run reads: the shims'
// own, and — read-only — the program's existing obs instruments for what no
// shim can reach (fsyncs, group-commit size, checkpoint bursts).
type counters struct {
	obs                    []obs.Sample
	bytesUp, bytesDown     int64
	roundTrips             int64
	bottomReads            int64
	bottomWrites           int64
	accesses, checkpoints  int64
	marshals, marshalBytes int64
}

func snapshot(st *stack) counters {
	c := counters{obs: obs.Default().Snapshot(), roundTrips: st.roundTrips()}
	if st.listener != nil {
		c.bytesUp, c.bytesDown = st.listener.up.Load(), st.listener.down.Load()
	}
	for _, b := range st.bottom {
		c.bottomReads += b.reads.Load()
		c.bottomWrites += b.writes.Load()
	}
	if st.proxy != nil {
		c.accesses, c.checkpoints = st.proxy.Accesses(), st.proxy.Checkpoints()
	}
	if st.scheme != nil {
		c.marshals, c.marshalBytes = st.scheme.marshals.Load(), st.scheme.marshalBytes.Load()
	}
	return c
}

// histQuantile is the q-quantile of an obs delta's histogram buckets, in
// the instrument's own unit.
func histQuantile(s obs.Sample, q float64) int64 {
	idx := make([]int, 0, len(s.Buckets))
	var total uint64
	for i, c := range s.Buckets {
		idx = append(idx, i)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Ints(idx)
	rank := uint64(q * float64(total))
	var seen uint64
	for _, i := range idx {
		if seen += s.Buckets[i]; seen > rank {
			return stats.BucketValue(i)
		}
	}
	return stats.BucketValue(idx[len(idx)-1])
}

func histMean(s obs.Sample) float64 { return ratio(float64(s.Sum), float64(s.Count)) }

// p50OfKind is the median service time of one op kind in a slice.
func p50OfKind(s *sliceStats, k opKind) (float64, int) {
	var xs []int64
	for i, kk := range s.kind {
		if opKind(kk) == k {
			xs = append(xs, s.svc[i])
		}
	}
	return us(quantile(sortedCopy(xs), 0.5)), len(xs)
}

// runPerLayer is the traced run. A baseline slice with the shims in place
// but silent gives the reference latency; the traced slice that follows
// records spans for one access in traceEvery; a slice with encryption
// disabled gives the crypto ablation; micro-probes time the wire codec and
// the crypto kernels at the workload's shapes.
func runPerLayer(cfg *config, w *workloadImpl, rep *report) (*tally, error) {
	rate := w.rate
	t := &tally{}
	tr := newTracer(1 << 20)
	st, err := w.build(cfg, tr, true)
	if err != nil {
		return t, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()

	warm(st, cfg.seconds, rate, t)
	m0, b0, _ := memCounters()
	base := runSlice(st, seconds(cfg.seconds*0.3), rate)
	m1, b1, _ := memCounters()
	t.add(base)

	before := snapshot(st)
	tr.on.Store(true)
	traced := runSlice(st, seconds(cfg.seconds*0.4), rate)
	tr.on.Store(false)
	after := snapshot(st)
	t.add(traced)
	delta := obs.Delta(before.obs, after.obs)
	acc := float64(traced.attempted())

	baseSvc := sortedCopy(base.svc)
	baseP50 := us(quantile(baseSvc, 0.5))
	rep.set("proc.host_cores", float64(cfg.cores))
	rep.set("proc.allocs_per_access", ratio(float64(m1-m0), float64(base.attempted())))
	rep.set("proc.alloc_bytes_per_access", ratio(float64(b1-b0), float64(base.attempted())))
	for k, name := range map[opKind]string{opReadBatch: "read_batch_p50_us", opWriteBatch: "write_batch_p50_us", opDownload: "download_p50_us", opUpload: "upload_p50_us"} {
		if v, n := p50OfKind(base, k); n > 0 {
			rep.setN(name, v, n)
		}
	}

	// wire
	rep.set("wire.bytes_up_per_access", ratio(float64(after.bytesUp-before.bytesUp), acc))
	rep.set("wire.bytes_down_per_access", ratio(float64(after.bytesDown-before.bytesDown), acc))
	rep.set("wire.roundtrips_per_access", ratio(float64(after.roundTrips-before.roundTrips), acc))
	rep.set("wire.codec_ns_per_access", codecProbe(w))

	// spans
	layers, roots := analyse(tr.recorded())
	sampled := float64(roots)
	rep.set("trace.sampled_accesses", sampled)
	if d := tr.dropped.Load(); d > 0 {
		rep.notef("tracer full: %d spans dropped", d)
	}
	p50 := func(xs []int64) (float64, int) { return us(quantile(sortedCopy(xs), 0.5)), len(xs) }
	perAccess := func(ns int64) float64 { return ratio(us(ns), sampled) }

	gen, rem, back := &layers[layerGen], &layers[layerRemote], &layers[layerBacking]
	rootDur := sortedCopy(gen.allDur)
	rep.setN("trace.overhead_pct", 100*ratio(us(quantile(rootDur, 0.5))-baseP50, baseP50), len(rootDur))
	rep.set("trace.unattributed_pct", 100*ratio(float64(gen.self), float64(gen.total)))

	remDur := sortedCopy(rem.allDur)
	rep.setN("store.remote.rtt_p50_us", us(quantile(remDur, 0.5)), len(remDur))
	rep.setN("store.remote.rtt_p99_us", us(quantile(remDur, tailQuantile(len(remDur)))), len(remDur))
	rep.set("store.remote.calls_per_access", ratio(float64(rem.count), sampled))
	rep.set("store.remote.self_us_per_access", perAccess(rem.self))

	var shed, offered uint64
	var queueP99 uint64
	for _, e := range st.ns.Stats() {
		shed += e.Shed
		offered += e.Shed + e.Accepted
		if e.QueueP99Micros > queueP99 {
			queueP99 = e.QueueP99Micros
		}
	}
	rep.set("store.admission.shed_ratio", ratio(float64(shed), float64(offered)))
	rep.set("store.admission.queue_wait_p99_us", float64(queueP99))

	dur := &layers[layerDurable]
	rep.set("store.backing.busy_us_per_access", perAccess(back.total+dur.total))
	rep.set("store.backing.read_blocks_per_access", ratio(float64(after.bottomReads-before.bottomReads), acc))
	rep.set("store.backing.write_blocks_per_access", ratio(float64(after.bottomWrites-before.bottomWrites), acc))

	if st.durable != nil {
		v, n := p50(dur.byOp[spanReadBatch])
		rep.setN("store.durable.read_batch_p50_us", v, n)
		wr := sortedCopy(dur.byOp[spanWriteBatch])
		rep.setN("store.durable.write_batch_p50_us", us(quantile(wr, 0.5)), len(wr))
		rep.setN("store.durable.write_batch_p99_us", us(quantile(wr, tailQuantile(len(wr)))), len(wr))
		fsync := delta["dpstore_wal_fsync_seconds"]
		rep.set("store.durable.fsyncs_per_access", ratio(float64(fsync.Count), acc))
		rep.setN("store.durable.fsync_p50_us", us(histQuantile(fsync, 0.5)), int(fsync.Count))
		rep.set("store.durable.group_commit_size_mean", histMean(delta["dpstore_wal_commit_group_requests"]))
		rep.set("store.durable.disk_bytes_per_user_byte", ratio(float64(st.durable.bytes()), float64(st.userBytes)))

		prox, pipe := &layers[layerProxy], &layers[layerPipeline]
		v, n = p50(prox.allDur)
		rep.setN("proxy.access_p50_us", v, n)
		rep.set("proxy.self_us_per_access", perAccess(prox.self))
		ck := delta["dpstore_proxy_checkpoint_seconds"]
		rep.setN("proxy.journal.checkpoint_p50_us", us(histQuantile(ck, 0.5)), int(ck.Count))
		rep.set("proxy.journal.state_bytes_per_checkpoint", ratio(float64(after.marshalBytes-before.marshalBytes), float64(after.marshals-before.marshals)))
		rep.set("proxy.journal.accesses_per_checkpoint", ratio(float64(after.accesses-before.accesses), float64(after.checkpoints-before.checkpoints)))
		v, n = p50(pipe.byOp[spanReadBatch])
		rep.setN("proxy.pipeline.read_p50_us", v, n)
		v, n = p50(pipe.byOp[spanWriteBatch])
		rep.setN("proxy.pipeline.write_enqueue_p50_us", v, n)
		rep.set("proxy.pipeline.flush_ops_mean", histMean(delta["dpstore_pipeline_flush_ops"]))
		rep.set("proxy.pipeline.self_us_per_access", perAccess(pipe.self))
	}

	if w.hasScheme {
		name := layerNames[w.scheme.layer()]
		sch := &layers[w.scheme.layer()]
		v, n := p50(sch.byOp[spanAccess])
		rep.setN(name+".access_p50_us", v, n)
		var marshal int64 // marshalling belongs to the proxy's checkpoint, not to an access
		for _, d := range sch.byOp[spanMarshal] {
			marshal += d
		}
		rep.set(name+".self_us_per_access", perAccess(sch.self-marshal))
		if w.scheme == kindDPRAM {
			v, n = p50(sch.byOp[spanMarshal])
			rep.setN("dpram.marshal_state_us", v, n)
		}
		seal, open := cryptoProbe(w)
		rep.set("crypto.seal_ns_per_block", seal)
		rep.set("crypto.open_ns_per_block", open)

		// Ablation: the same stack and load with encryption disabled.
		plain, err := w.build(cfg, nil, false)
		if err != nil {
			return t, fmt.Errorf("ablation set-up: %w", err)
		}
		warm(plain, cfg.seconds, rate, t)
		abl := runSlice(plain, seconds(cfg.seconds*0.2), rate)
		t.add(abl)
		if err := plain.close(); err != nil {
			return t, fmt.Errorf("closing ablation stack: %w", err)
		}
		rep.setN("crypto.ablation_us_per_access", baseP50-us(quantile(sortedCopy(abl.svc), 0.5)), len(abl.svc))
	}

	// gen
	all := &sliceStats{}
	all.merge(base)
	all.merge(traced)
	late := sortedCopy(all.late)
	rep.setN("gen.late_p50_us", us(quantile(late, 0.5)), len(late))
	rep.setN("gen.late_p99_us", us(quantile(late, tailQuantile(len(late)))), len(late))
	misses := all.failed
	for _, l := range all.lat {
		if l > int64(sloLimit) {
			misses++
		}
	}
	rep.set("gen.slo_miss_ratio", ratio(float64(misses), float64(all.attempted())))

	if _, err := writeSpans(cfg.outDir, w.name, tr.recorded()); err != nil {
		return t, fmt.Errorf("writing spans: %w", err)
	}
	if err := finish(st, rep, t); err != nil {
		return t, err
	}
	// Read once the stack is down: nothing touches the scheme client any more.
	if w.hasScheme {
		name := layerNames[w.scheme.layer()]
		stash, state := st.schemeState()
		rep.set(name+".stash_size_max", float64(stash))
		rep.set(name+".client_state_bytes", float64(state))
	}
	_, _, gc := memCounters()
	rep.set("proc.gc_pause_total_ms", float64(gc.Microseconds())/1e3)
	rep.set("proc.peak_rss_mb", peakRSSMB())
	rep.set("gen.fail_ratio", ratio(float64(t.failed), float64(t.attempted)))
	return t, nil
}
