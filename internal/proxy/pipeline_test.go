package proxy

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

// referencePendingSnapshot is PendingSnapshot computed the direct way:
// range over the pending map, then sort by seq. The pipeline's own
// version walks its sequence-ordered log instead and must agree with it
// whenever the pipeline is at rest.
func referencePendingSnapshot(p *Pipeline) ([]store.WriteOp, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	type entry struct {
		seq  uint64
		addr int
	}
	entries := make([]entry, 0, len(p.pending))
	for addr, pb := range p.pending {
		entries = append(entries, entry{seq: pb.seq, addr: addr})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	ops := make([]store.WriteOp, len(entries))
	for i, e := range entries {
		ops[i] = store.WriteOp{Addr: e.addr, Block: p.pending[e.addr].data}
	}
	return ops, p.seq
}

// checkSnapshot compares PendingSnapshot with the reference and with the
// expected number of pending ops.
func checkSnapshot(t *testing.T, p *Pipeline, what string, wantLen int) {
	t.Helper()
	got, gotSeq := p.PendingSnapshot()
	want, wantSeq := referencePendingSnapshot(p)
	if gotSeq != wantSeq {
		t.Fatalf("%s: seq %d, reference %d", what, gotSeq, wantSeq)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d pending ops, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Addr != want[i].Addr || !got[i].Block.Equal(want[i].Block) {
			t.Fatalf("%s: op %d = addr %d, reference addr %d (or data differs)", what, i, got[i].Addr, want[i].Addr)
		}
	}
	if len(got) != wantLen {
		t.Fatalf("%s: %d pending ops, want %d", what, len(got), wantLen)
	}
}

// waitPending waits until exactly n ops are enqueued but not landed; flush
// and discard broadcast on p.cond after every change to the count.
func waitPending(p *Pipeline, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inFlight != n {
		p.cond.Wait()
	}
}

// gateStore holds every inner WriteBatch until open is closed, signalling
// on entered when one arrives.
type gateStore struct {
	store.BatchServer
	entered chan struct{}
	open    chan struct{}
}

func (g *gateStore) WriteBatch(ops []store.WriteOp) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	return g.BatchServer.WriteBatch(ops)
}

func writeOne(t *testing.T, p *Pipeline, addr int, v byte) {
	t.Helper()
	b := block.New(8)
	b[0] = v
	if err := p.WriteBatch([]store.WriteOp{{Addr: addr, Block: b}}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingSnapshotFreshestInSeqOrder drives the pipeline through every
// way its pending set shrinks — landing, release, discard, a failed flush
// — and after a bulk load, and checks at each point of rest that
// PendingSnapshot lists exactly the freshest pending write per address,
// in seq order, as the map-and-sort reference does.
func TestPendingSnapshotFreshestInSeqOrder(t *testing.T) {
	t.Run("repeated writes to one address", func(t *testing.T) {
		mem, _ := store.NewMem(8, 8)
		p := NewJournaledPipeline(mem)
		defer p.Close() //nolint:errcheck
		for v := byte(1); v <= 5; v++ {
			writeOne(t, p, 3, v)
			writeOne(t, p, int(v)%2, v)
		}
		checkSnapshot(t, p, "held", 3)
		ops, _ := p.PendingSnapshot()
		if ops[len(ops)-1].Addr != 1 || ops[len(ops)-1].Block[0] != 5 || ops[len(ops)-2].Block[0] != 5 {
			t.Fatalf("snapshot is not the freshest write per address: %v", ops)
		}
	})

	t.Run("partial flush in journaled hold, then release", func(t *testing.T) {
		mem, _ := store.NewMem(8, 8)
		g := &gateStore{BatchServer: mem, entered: make(chan struct{}, 1), open: make(chan struct{})}
		p := NewJournaledPipeline(g)
		defer p.Close() //nolint:errcheck
		openGate := sync.OnceFunc(func() { close(g.open) })
		defer openGate() // before Close, or a failed check leaves the writer parked
		// One job, so the writer's first group is exactly these two ops.
		b := block.New(8)
		if err := p.WriteBatch([]store.WriteOp{{Addr: 2, Block: b}, {Addr: 4, Block: b}}); err != nil {
			t.Fatal(err)
		}
		_, seq := p.PendingSnapshot()
		p.Release(seq)
		<-g.entered // the first group is inside the inner store
		writeOne(t, p, 2, 2)
		writeOne(t, p, 6, 2)
		writeOne(t, p, 2, 3)
		checkSnapshot(t, p, "first group landing", 3)
		openGate()
		waitPending(p, 3)
		checkSnapshot(t, p, "first group landed, rest held", 2)
		_, seq = p.PendingSnapshot()
		p.Release(seq)
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, p, "all released and landed", 0)
		writeOne(t, p, 7, 4)
		checkSnapshot(t, p, "held after a drained log", 1)
	})

	t.Run("discard after poison", func(t *testing.T) {
		mem, _ := store.NewMem(8, 8)
		p := NewJournaledPipeline(mem)
		defer p.Close() //nolint:errcheck
		for v := byte(1); v <= 4; v++ {
			writeOne(t, p, int(v)%3, v)
		}
		checkSnapshot(t, p, "held", 3)
		p.poison(errors.New("checkpoint failed"))
		waitPending(p, 0)
		checkSnapshot(t, p, "discarded", 0)
	})

	t.Run("failed flush stays pending", func(t *testing.T) {
		mem, _ := store.NewMem(8, 8)
		faulty := store.NewFaulty(mem, 1, nil)
		faulty.FailFrom()
		p := NewPipeline(store.AsBatch(faulty))
		defer p.Close() //nolint:errcheck
		b := block.New(8)
		if err := p.WriteBatch([]store.WriteOp{{Addr: 1, Block: b}, {Addr: 2, Block: b}, {Addr: 1, Block: b}}); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err == nil {
			t.Fatal("flush against a dead store succeeded")
		}
		checkSnapshot(t, p, "after a failed flush", 2)
	})

	t.Run("bulk load then held writes", func(t *testing.T) {
		p := bulkLoadedPipeline(t)
		defer p.Close() //nolint:errcheck
		checkSnapshot(t, p, "after bulk load", 3)
		if walked := len(p.log) - p.logHead; walked != 3 {
			t.Fatalf("PendingSnapshot walks %d log entries after the bulk load, want the 3 held", walked)
		}
	})
}

// bulkLoadedPipeline returns a pipeline that has landed a 2^16-op setup
// upload and now holds 3 writes in journaled mode — the state of a
// freshly set-up durable proxy between two checkpoints.
func bulkLoadedPipeline(tb testing.TB) *Pipeline {
	const n = 1 << 16
	mem, err := store.NewMem(n, 8)
	if err != nil {
		tb.Fatal(err)
	}
	p := NewPipeline(mem)
	w := store.NewBatchWriter(p)
	for a := 0; a < n; a++ {
		if err := w.Add(a, block.New(8)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	p.SetJournaled()
	b := block.New(8)
	for _, a := range []int{5, 70, 5000} {
		if err := p.WriteBatch([]store.WriteOp{{Addr: a, Block: b}}); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkPendingSnapshotAfterBulkLoad times one checkpoint's read of the
// pending set after a 2^16-op load: it must cost the 3 writes held, not
// the load (one allocation, the returned ops slice).
func BenchmarkPendingSnapshotAfterBulkLoad(b *testing.B) {
	p := bulkLoadedPipeline(b)
	defer p.Close() //nolint:errcheck
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ops, _ := p.PendingSnapshot(); len(ops) != 3 {
			b.Fatalf("%d pending ops, want 3", len(ops))
		}
	}
}
