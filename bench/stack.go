package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// This file is the only one that assembles the program's layers; every
// use of an internal constructor the workloads need is here.

const (
	records       = 1 << 16 // logical records of the scheme workloads
	remoteRecSize = 64      // record size of dpram-remote and pathoram-remote
	servedRecSize = 1024    // record size of dpram-served-durable
	mixSlots      = 8192    // slots per tenant of blocksvc-mixed
	mixBlockSize  = 4096
	mixShards     = 4
	admitQueue    = 64
)

var errMismatch = errors.New("bench: read returned a value other than the last acked write")

// rootProbe times one client's calls and, on a traced run, opens the root
// span of every sampled access and publishes it to the first shim below.
type rootProbe struct {
	tr    *tracer
	cur   *cursor
	every int
	n     int
	idx   int32
}

func newRootProbe(tr *tracer, cur *cursor, every int) *rootProbe {
	return &rootProbe{tr: tr, cur: cur, every: every, idx: -1}
}

func (p *rootProbe) start() time.Time {
	if p.tr != nil && p.tr.on.Load() {
		if p.n++; p.n%p.every == 0 {
			idx, ctx := p.tr.beginRoot()
			if p.idx = idx; idx >= 0 {
				p.cur.store(ctx)
			}
		}
	}
	return time.Now()
}

func (p *rootProbe) stop(t0 time.Time) time.Duration {
	d := time.Since(t0)
	if p.idx >= 0 {
		p.cur.store(0)
		p.tr.end(p.idx)
		p.idx = -1
	}
	return d
}

// stack is one assembled workload: clients, daemon, backing, and the
// handles the measurements read.
type stack struct {
	clients int
	gens    []*generator
	// exec runs one operation for client c and returns its client-observed
	// service time. The oracle check runs after the clock has stopped; a
	// wrong value comes back as errMismatch.
	exec func(c int, o *op) (time.Duration, error)

	blocksMoved func() int64 // physical blocks down+up so far, counted under the scheme
	roundTrips  func() int64
	serverBytes int64
	userBytes   int64

	// finalCheck, when set, runs after the last slice and verifies state
	// that only shows after shutdown; it returns how many records it read.
	finalCheck func() (int, error)
	// twin, when set, builds the workload's plaintext twin.
	twin func() (*stack, error)

	closers []func() error // stop clients, daemon, proxy, stores
	dataDir string         // removed by close, after the closers
	down    bool

	// Handles of the traced run.
	listener *countingListener
	ns       *store.Namespaces
	bottom   []*blockShim // the lowest block seam: the server backing
	scheme   *schemeShim
	proxy    *proxy.Proxy
	durable  *durableFiles
	// schemeState reports the scheme client's peak stash and state size.
	schemeState func() (stashMax, stateBytes int)
}

func (st *stack) onClose(f func() error) { st.closers = append(st.closers, f) }

// shutdown stops the stack in reverse order of construction, leaving its
// files in place. It runs once; later calls return nil.
func (st *stack) shutdown() error {
	if st.down {
		return nil
	}
	st.down = true
	var first error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close shuts the stack down and removes its files.
func (st *stack) close() error {
	err := st.shutdown()
	if st.dataDir != "" {
		if rerr := os.RemoveAll(st.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

// startDaemon serves ns with the wire protocol on 127.0.0.1:0, counting
// wire bytes on a traced run, and returns the address. The daemon stops
// with the stack.
func (st *stack) startDaemon(ns *store.Namespaces, tr *tracer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	st.ns = ns
	served := net.Listener(ln)
	if tr != nil {
		st.listener = &countingListener{Listener: ln}
		served = st.listener
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = store.ServeNamespaces(served, ns) // returns net.ErrClosed once the listener closes
	}()
	st.onClose(func() error {
		err := served.Close()
		<-done
		return err
	})
	return ln.Addr().String(), nil
}

func clientCount(cores int) int {
	if cores < 2 {
		return 1
	}
	return 2
}

// blockTarget drives raw block operations: the clients of blocksvc-mixed.
type blockTarget struct {
	srv    []store.BatchServer // one per client
	shadow []*shadow           // one per tenant
	probe  []*rootProbe
	bufs   [][]block.Block
	ops    [][]store.WriteOp
	issued []int64 // blocks asked for, per client
}

func newBlockTarget(srv []store.BatchServer, shadows []*shadow, probes []*rootProbe) *blockTarget {
	t := &blockTarget{srv: srv, shadow: shadows, probe: probes, issued: make([]int64, len(srv))}
	for range srv {
		bufs := make([]block.Block, batchLen)
		for i := range bufs {
			bufs[i] = block.New(mixBlockSize)
		}
		t.bufs = append(t.bufs, bufs)
		t.ops = append(t.ops, make([]store.WriteOp, batchLen))
	}
	return t
}

func (t *blockTarget) exec(c int, o *op) (time.Duration, error) {
	srv, sh, p := t.srv[c], t.shadow[c], t.probe[c]
	t.issued[c] += int64(o.n)
	switch o.kind {
	case opReadBatch:
		t0 := p.start()
		blocks, err := srv.ReadBatch(o.addrs[:o.n])
		d := p.stop(t0)
		if err != nil {
			return d, err
		}
		for i, b := range blocks {
			if !checkBlock(b, o.addrs[i], sh.ver[o.addrs[i]]) {
				return d, errMismatch
			}
		}
		return d, nil
	case opDownload:
		t0 := p.start()
		b, err := srv.Download(o.addrs[0])
		d := p.stop(t0)
		if err != nil {
			return d, err
		}
		if !checkBlock(b, o.addrs[0], sh.ver[o.addrs[0]]) {
			return d, errMismatch
		}
		return d, nil
	case opWriteBatch:
		// Ops apply in order, so an address drawn twice ends at its later
		// version in the store and in the shadow alike.
		ops := t.ops[c][:o.n]
		for i, a := range o.addrs[:o.n] {
			sh.ver[a]++
			fillBlock(t.bufs[c][i], a, sh.ver[a])
			ops[i] = store.WriteOp{Addr: a, Block: t.bufs[c][i]}
		}
		t0 := p.start()
		err := srv.WriteBatch(ops)
		return p.stop(t0), err
	case opUpload:
		a := o.addrs[0]
		sh.ver[a]++
		fillBlock(t.bufs[c][0], a, sh.ver[a])
		t0 := p.start()
		err := srv.Upload(a, t.bufs[c][0])
		return p.stop(t0), err
	}
	return 0, fmt.Errorf("bench: op kind %d on a block target", o.kind)
}

func (t *blockTarget) blocksIssued() int64 {
	var n int64
	for _, v := range t.issued {
		n += v
	}
	return n
}

// buildMixed assembles blocksvc-mixed: store.Pool → TCP → ServeNamespaces
// with admission armed → one sharded in-memory tenant per client.
func buildMixed(cfg *config, tr *tracer, _ bool) (*stack, error) {
	clients := clientCount(cfg.cores)
	st := &stack{clients: clients}
	ns := store.NewNamespaces()
	ns.SetAdmission(store.AdmitOptions{MaxInflight: cfg.cores, MaxQueue: admitQueue})
	toBacking := make([]*cursor, clients)
	for c := range toBacking {
		sm, err := store.NewShardedMem(mixSlots, mixBlockSize, mixShards)
		if err != nil {
			return nil, err
		}
		var backing store.Server = sm
		if tr != nil {
			toBacking[c] = &cursor{}
			shim := &blockShim{seam: seam{tr, layerBacking}, inner: sm, up: toBacking[c]}
			st.bottom = append(st.bottom, shim)
			backing = shim
		}
		ns.Attach(tenantName(c), backing)
	}
	addr, err := st.startDaemon(ns, tr)
	if err != nil {
		return nil, err
	}
	pools := make([]*store.Pool, clients)
	client := make([]store.BatchServer, clients)
	probes := make([]*rootProbe, clients)
	shadows := make([]*shadow, clients)
	for c := range pools {
		pool, err := store.DialNamespacePool(addr, tenantName(c), mixSlots, mixBlockSize, 1)
		if err != nil {
			st.close()
			return nil, err
		}
		st.onClose(pool.Close)
		pools[c], client[c] = pool, pool
		var root *cursor
		if tr != nil {
			root = &cursor{}
			client[c] = &blockShim{seam: seam{tr, layerRemote}, inner: pool, up: root, down: toBacking[c]}
		}
		probes[c] = newRootProbe(tr, root, cfg.traceEvery)
		shadows[c] = newShadow(mixSlots)
		st.gens = append(st.gens, newMixGen(cfg.seed, c, mixSlots))

		// Upload the tenant's database: version 0 of every block.
		w := store.NewBatchWriter(client[c])
		for a := 0; a < mixSlots; a++ {
			b := block.New(mixBlockSize)
			fillBlock(b, a, 0)
			if err := w.Add(a, b); err != nil {
				st.close()
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			st.close()
			return nil, err
		}
	}
	tgt := newBlockTarget(client, shadows, probes)
	st.exec = tgt.exec
	st.blocksMoved = tgt.blocksIssued
	st.roundTrips = func() int64 {
		var n int64
		for _, p := range pools {
			n += p.RoundTrips()
		}
		return n
	}
	st.serverBytes = int64(clients) * mixSlots * mixBlockSize
	st.userBytes = st.serverBytes

	return st, nil
}

func tenantName(c int) string { return fmt.Sprintf("tenant%d", c) }

// twinSalt separates the twin's op stream from the scheme's.
const twinSalt = 0x5eed

// recordTarget drives logical record reads and writes through access.
type recordTarget struct {
	access    func(c, idx int, write bool, data block.Block) (block.Block, error)
	shadow    *shadow
	probe     []*rootProbe
	buf       []block.Block
	checkPrev bool // a write returns the record's previous value
}

func newRecordTarget(clients, recSize int, sh *shadow, probes []*rootProbe, checkPrev bool) *recordTarget {
	t := &recordTarget{shadow: sh, probe: probes, checkPrev: checkPrev}
	for c := 0; c < clients; c++ {
		t.buf = append(t.buf, block.New(recSize))
	}
	return t
}

func (t *recordTarget) exec(c int, o *op) (time.Duration, error) {
	idx, p := o.addrs[0], t.probe[c]
	have := t.shadow.ver[idx]
	if o.kind == opWrite {
		fillBlock(t.buf[c], idx, have+1)
		t0 := p.start()
		prev, err := t.access(c, idx, true, t.buf[c])
		d := p.stop(t0)
		if err != nil {
			return d, err
		}
		t.shadow.ver[idx] = have + 1
		if t.checkPrev && !checkBlock(prev, idx, have) {
			return d, errMismatch
		}
		return d, nil
	}
	t0 := p.start()
	b, err := t.access(c, idx, false, nil)
	d := p.stop(t0)
	if err != nil {
		return d, err
	}
	if !checkBlock(b, idx, have) {
		return d, errMismatch
	}
	return d, nil
}

// newDatabase returns version 0 of n records.
func newDatabase(n, recSize int) (*block.Database, error) {
	db, err := block.NewDatabase(n, recSize)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		fillBlock(db.Get(i), i, 0)
	}
	return db, nil
}

type schemeKind int

const (
	kindDPRAM schemeKind = iota
	kindPathORAM
	kindPlain
)

func (k schemeKind) layer() layerID {
	if k == kindPathORAM {
		return layerPathORAM
	}
	return layerDPRAM
}

// physicalShape returns the server shape scheme k needs for n records.
func physicalShape(k schemeKind, n, recSize int, encrypt bool) (slots, blockSize int) {
	switch k {
	case kindDPRAM:
		return n, dpram.ServerBlockSize(recSize, dpram.Options{DisableEncryption: !encrypt})
	case kindPathORAM:
		return pathoram.TreeShape(n, recSize, pathoram.Options{DisableEncryption: !encrypt})
	}
	return n, recSize
}

// setupScheme runs scheme k's set-up over server: encrypt and upload db.
// It also returns the accessor of the client's peak stash and state size.
func setupScheme(k schemeKind, db *block.Database, server store.BatchServer, seed int64, encrypt bool) (proxy.DurableScheme, func() (int, int), error) {
	src, key := rng.New(seed^0x5c4e3e), crypto.KeyFromSeed(uint64(seed)+1)
	stateLen := func(s proxy.DurableScheme) int {
		b, _ := s.MarshalState() // size probe only; a scheme that cannot marshal reports 0
		return len(b)
	}
	switch k {
	case kindDPRAM:
		c, err := dpram.Setup(db, server, dpram.Options{Rand: src, Key: key, DisableEncryption: !encrypt})
		if err != nil {
			return nil, nil, err
		}
		return c, func() (int, int) { return c.MaxStashSize(), stateLen(c) }, nil
	case kindPathORAM:
		o, err := pathoram.Setup(db, server, pathoram.Options{Rand: src, Key: key, DisableEncryption: !encrypt})
		if err != nil {
			return nil, nil, err
		}
		return o, func() (int, int) { return o.MaxStashSize(), stateLen(o) }, nil
	}
	p, err := setupPlain(db, server)
	if err != nil {
		return nil, nil, err
	}
	return p, func() (int, int) { return 0, stateLen(p) }, nil
}

// buildRemote assembles dpram-remote, pathoram-remote or their plaintext
// twin: scheme client → store.Dial → TCP → single-tenant daemon → Mem.
func buildRemote(k schemeKind) func(cfg *config, tr *tracer, encrypt bool) (*stack, error) {
	return func(cfg *config, tr *tracer, encrypt bool) (*stack, error) {
		st := &stack{clients: 1}
		slots, bs := physicalShape(k, records, remoteRecSize, encrypt)
		mem, err := store.NewMem(slots, bs)
		if err != nil {
			return nil, err
		}
		var backing store.Server = mem
		root, toRemote, toBacking := &cursor{}, &cursor{}, &cursor{}
		if tr != nil {
			shim := &appenderShim{blockShim: blockShim{seam: seam{tr, layerBacking}, inner: mem, up: toBacking}, app: mem}
			st.bottom = append(st.bottom, &shim.blockShim)
			backing = shim
		}
		ns := store.NewNamespaces()
		ns.Attach(store.DefaultNamespace, backing)
		addr, err := st.startDaemon(ns, tr)
		if err != nil {
			return nil, err
		}
		rem, err := store.Dial(addr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.onClose(rem.Close)
		under := &blockShim{seam: seam{tr, layerRemote}, inner: rem, up: toRemote, down: toBacking}
		db, err := newDatabase(records, remoteRecSize)
		if err != nil {
			st.close()
			return nil, err
		}
		scheme, state, err := setupScheme(k, db, under, cfg.seed, encrypt)
		if err != nil {
			st.close()
			return nil, err
		}
		st.schemeState = state
		if tr != nil {
			st.scheme = &schemeShim{seam: seam{tr, k.layer()}, inner: scheme, up: []*cursor{root}, down: toRemote}
			scheme = st.scheme
		}
		salt := int64(0)
		if k == kindPlain {
			salt = twinSalt
		}
		st.gens = []*generator{newRecordGen(cfg.seed+salt, 0, 1, records, 0.10)}
		tgt := newRecordTarget(1, remoteRecSize, newShadow(records), []*rootProbe{newRootProbe(tr, root, cfg.traceEvery)}, k != kindPlain)
		tgt.access = func(_, idx int, write bool, data block.Block) (block.Block, error) {
			q := workload.Query{Index: idx, Op: workload.Read}
			if write {
				q.Op, q.Data = workload.Write, data
			}
			return scheme.Access(q)
		}
		st.exec = tgt.exec
		st.blocksMoved = under.blocks
		st.roundTrips = rem.RoundTrips
		st.serverBytes = int64(slots) * int64(bs)
		st.userBytes = records * remoteRecSize
		if k != kindPlain {
			st.twin = func() (*stack, error) { return buildRemote(kindPlain)(cfg, nil, false) }
		}
		return st, nil
	}
}

// durableFiles names the on-disk state of a served durable stack.
type durableFiles struct {
	dir, base, journal string
}

func (d *durableFiles) bytes() int64 {
	var n int64
	for _, p := range []string{d.base + ".pages", d.base + ".wal", d.journal} {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// buildServed assembles dpram-served-durable or its plaintext twin:
// proxy.Client → TCP → accessor namespace with admission armed → journaled
// proxy → scheme → pipeline → store.Durable (group commit) in a fresh
// directory.
func buildServed(k schemeKind) func(cfg *config, tr *tracer, encrypt bool) (*stack, error) {
	return func(cfg *config, tr *tracer, encrypt bool) (*stack, error) {
		clients := clientCount(cfg.cores)
		st := &stack{clients: clients}
		dir, err := os.MkdirTemp(cfg.tmpDir, "dpbench-durable-")
		if err != nil {
			return nil, err
		}
		st.dataDir = dir
		files := &durableFiles{dir: dir, base: filepath.Join(dir, "blocks"), journal: filepath.Join(dir, "proxy.journal")}
		st.durable = files

		slots, bs := physicalShape(k, records, servedRecSize, encrypt)
		dur, err := store.CreateDurable(files.base, slots, bs, store.DurableOptions{})
		if err != nil {
			st.close()
			return nil, err
		}
		st.onClose(dur.Close)
		toScheme := make([]*cursor, clients)
		toProxy := make([]*cursor, clients)
		roots := make([]*cursor, clients)
		for c := range roots {
			roots[c], toProxy[c], toScheme[c] = &cursor{}, &cursor{}, &cursor{}
		}
		toPipeline, toDurable := &cursor{}, &cursor{}
		var backing store.BatchServer = dur
		if tr != nil {
			shim := &blockShim{seam: seam{tr, layerDurable}, inner: dur, up: toDurable, bgWrites: true}
			st.bottom = append(st.bottom, shim)
			backing = shim
		}
		journal, _, err := proxy.OpenJournal(files.journal, 0)
		if err != nil {
			st.close()
			return nil, err
		}
		// The proxy's Close closes both of these; until it exists — and
		// harmlessly after, both being idempotent — the stack does.
		st.onClose(journal.Close)
		pipe := proxy.NewPipeline(backing)
		st.onClose(pipe.Close)
		under := &blockShim{seam: seam{tr, layerPipeline}, inner: pipe, up: toPipeline, down: toDurable}
		db, err := newDatabase(records, servedRecSize)
		if err != nil {
			st.close()
			return nil, err
		}
		// Set up through the not yet journaled pipeline, land everything,
		// and seed the journal — the daemon's own fresh-start sequence.
		scheme, state, err := setupScheme(k, db, under, cfg.seed, encrypt)
		if err == nil {
			err = pipe.Flush()
		}
		if err == nil {
			// Snapshot and truncate the WAL, so that every run starts from
			// the same on-disk state and storage_blowup_x does not depend
			// on where set-up happened to leave the compaction cycle.
			err = dur.Sync()
		}
		if err != nil {
			st.close()
			return nil, err
		}
		st.schemeState = state
		initial, err := scheme.MarshalState()
		if err == nil {
			err = journal.Append(proxy.Checkpoint{State: initial})
		}
		if err != nil {
			st.close()
			return nil, err
		}
		if tr != nil {
			st.scheme = &schemeShim{seam: seam{tr, k.layer()}, inner: scheme, up: toScheme, down: toPipeline}
			scheme = st.scheme
		}
		prox, err := proxy.NewDurable(scheme, proxy.Options{Pipeline: pipe}, journal)
		if err != nil {
			st.close()
			return nil, err
		}
		st.proxy = prox
		st.onClose(prox.Close) // drains the pipeline, writes the final checkpoint, closes the journal
		st.serverBytes = files.bytes()
		st.userBytes = records * servedRecSize

		var acc store.Accessor = prox
		if tr != nil {
			acc = &accessorShim{seam: seam{tr, layerProxy}, inner: prox, up: toProxy, down: toScheme}
		}
		ns := store.NewNamespaces()
		ns.SetAdmission(store.AdmitOptions{MaxInflight: cfg.cores, MaxQueue: admitQueue})
		ns.AttachAccessor(store.DefaultNamespace, acc)
		addr, err := st.startDaemon(ns, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		conns := make([]*proxy.Client, clients)
		probes := make([]*rootProbe, clients)
		salt := int64(0)
		if k == kindPlain {
			salt = twinSalt
		}
		for c := range conns {
			cl, err := proxy.Dial(addr)
			if err != nil {
				st.close()
				return nil, err
			}
			st.onClose(cl.Close)
			conns[c] = cl
			probes[c] = newRootProbe(tr, roots[c], cfg.traceEvery)
			st.gens = append(st.gens, newRecordGen(cfg.seed+salt, c, clients, records, 0.50))
		}
		sh := newShadow(records)
		tgt := newRecordTarget(clients, servedRecSize, sh, probes, k != kindPlain)
		call := seam{tr, layerRemote}
		tgt.access = func(c, idx int, write bool, data block.Block) (block.Block, error) {
			// The client call is the store.remote span of this stack: what
			// it does not spend inside the proxy it spends on the wire, in
			// the serve loop and in admission.
			idx32 := call.enter(spanAccess, roots[c], toProxy[c])
			defer call.exit(idx32, toProxy[c])
			if write {
				return conns[c].Write(idx, data)
			}
			return conns[c].Read(idx)
		}
		st.exec = tgt.exec
		st.blocksMoved = under.blocks
		st.roundTrips = func() int64 {
			var n int64
			for _, cl := range conns {
				n += cl.RoundTrips()
			}
			return n
		}
		if k == kindDPRAM {
			st.twin = func() (*stack, error) { return buildServed(kindPlain)(cfg, nil, false) }
			st.finalCheck = func() (int, error) {
				// Shut the served stack down, then recover it the way a
				// restarted daemon would and read back every acked write.
				if err := st.shutdown(); err != nil {
					return 0, fmt.Errorf("shutting down: %w", err)
				}
				return recoverAndVerify(files, slots, bs, cfg.seed, sh)
			}
		}
		return st, nil
	}
}

// recoverAndVerify reopens the durable store and the journal, replays the
// pending writes, resumes the DP-RAM client from the checkpointed state and
// reads back every record the run wrote. The verification's own overwrite
// phase needs no durability, so the store is reopened without fsync.
func recoverAndVerify(files *durableFiles, slots, blockSize int, seed int64, sh *shadow) (int, error) {
	dur, err := store.OpenDurable(files.base, slots, blockSize, store.DurableOptions{Sync: store.SyncNone})
	if err != nil {
		return 0, fmt.Errorf("reopening durable store: %w", err)
	}
	defer dur.Close()
	journal, ck, err := proxy.OpenJournal(files.journal, 0)
	if err != nil {
		return 0, fmt.Errorf("reopening journal: %w", err)
	}
	defer journal.Close()
	if ck == nil {
		return 0, errors.New("journal holds no checkpoint after a clean shutdown")
	}
	if err := proxy.ReplayPending(dur, ck); err != nil {
		return 0, err
	}
	client, err := dpram.Resume(dur, ck.State, dpram.Options{Rand: rng.New(seed ^ 0x7e57)})
	if err != nil {
		return 0, fmt.Errorf("resuming dpram: %w", err)
	}
	checked := 0
	for idx, ver := range sh.ver {
		if ver == 0 {
			continue
		}
		b, err := client.Read(idx)
		if err != nil {
			return checked, fmt.Errorf("reading record %d after recovery: %w", idx, err)
		}
		if !checkBlock(b, idx, ver) {
			return checked, fmt.Errorf("record %d after recovery: %w", idx, errMismatch)
		}
		checked++
	}
	return checked, nil
}
