package proxy

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/wire"
)

// newDPRAMProxy builds a DP-RAM over backing (wrapped in a Pipeline when
// pipelined), fully flushed, served by a fresh proxy.
func newDPRAMProxy(t testing.TB, db *block.Database, backing store.Server, seed int64, pipelined bool) *Proxy {
	t.Helper()
	opts := dpram.Options{Rand: rng.New(seed), Key: crypto.KeyFromSeed(uint64(seed))}
	var pipe *Pipeline
	server := store.AsBatch(backing)
	if pipelined {
		pipe = NewPipeline(server)
		server = pipe
	}
	scheme, err := dpram.Setup(db, server, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := New(scheme, Options{Pipeline: pipe})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() }) //nolint:errcheck
	return p
}

func dpramMem(t testing.TB, n, recordSize int) (*block.Database, store.Server) {
	t.Helper()
	db, err := block.PatternDatabase(n, recordSize)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := store.NewMem(n, crypto.CiphertextSize(recordSize))
	if err != nil {
		t.Fatal(err)
	}
	return db, srv
}

// TestProxyReadWrite: the basic single-caller contract, serialized and
// pipelined.
func TestProxyReadWrite(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			const n, rs = 64, 24
			db, srv := dpramMem(t, n, rs)
			p := newDPRAMProxy(t, db, srv, 1, pipelined)
			if p.Records() != n || p.RecordSize() != rs {
				t.Fatalf("shape = %d × %d, want %d × %d", p.Records(), p.RecordSize(), n, rs)
			}
			got, err := p.Read(7)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(db.Get(7)) {
				t.Fatal("read returned wrong initial value")
			}
			want := block.Pattern(999, rs)
			prev, err := p.Write(7, want)
			if err != nil {
				t.Fatal(err)
			}
			if !prev.Equal(db.Get(7)) {
				t.Fatal("write returned wrong previous value")
			}
			for k := 0; k < 8; k++ { // read-your-write through any pipeline state
				got, err = p.Read(7)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("read %d after write returned stale value", k)
				}
			}
			// Hostile inputs are rejected before touching the scheme.
			if _, err := p.Read(n); err == nil {
				t.Fatal("out-of-range read accepted")
			}
			if _, err := p.Write(0, block.New(rs+1)); err == nil {
				t.Fatal("wrong-size write accepted")
			}
		})
	}
}

// TestProxyConcurrentSessions: 16 sessions over one pipelined scheme, each
// owning a disjoint record range — every session must read back exactly
// what it wrote, proving response routing never crosses sessions.
func TestProxyConcurrentSessions(t *testing.T) {
	const sessions, perSession, rs = 16, 8, 24
	const n = sessions * perSession
	db, srv := dpramMem(t, n, rs)
	p := newDPRAMProxy(t, db, srv, 2, true)

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := p.NewSession()
			base := s * perSession
			for i := 0; i < perSession; i++ {
				want := block.Pattern(uint64(1000*s+i), rs)
				if _, err := sess.Write(base+i, want); err != nil {
					errs[s] = err
					return
				}
				got, err := sess.Read(base + i)
				if err != nil {
					errs[s] = err
					return
				}
				if !got.Equal(want) {
					errs[s] = fmt.Errorf("session %d read a foreign value at record %d", s, base+i)
					return
				}
			}
			if sess.Accesses() != 2*perSession {
				errs[s] = fmt.Errorf("session %d metered %d accesses, want %d", s, sess.Accesses(), 2*perSession)
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Accesses(); got != 2*sessions*perSession {
		t.Fatalf("proxy executed %d accesses, want %d", got, 2*sessions*perSession)
	}
}

// slowMem delays every batch by a fixed latency (outside any lock), so
// write-behind jobs stay in flight long enough for reads to overlap them.
type slowMem struct {
	*store.Mem
	delay time.Duration
}

func (s *slowMem) ReadBatch(addrs []int) ([]block.Block, error) {
	time.Sleep(s.delay)
	return s.Mem.ReadBatch(addrs)
}

func (s *slowMem) WriteBatch(ops []store.WriteOp) error {
	time.Sleep(s.delay)
	return s.Mem.WriteBatch(ops)
}

// TestPipelineOverlayConsistency hammers one address with writes and reads
// through a slow store: every read must observe the latest write accepted
// before it, whether served from the wire or the pending overlay.
func TestPipelineOverlayConsistency(t *testing.T) {
	m, err := store.NewMem(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(&slowMem{Mem: m, delay: 200 * time.Microsecond})
	for i := 0; i < 200; i++ {
		want := block.Pattern(uint64(i), 16)
		if err := pipe.WriteBatch([]store.WriteOp{{Addr: 3, Block: want}}); err != nil {
			t.Fatal(err)
		}
		got, err := pipe.ReadBatch([]int{3, 4, 3})
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Equal(want) || !got[2].Equal(want) {
			t.Fatalf("iteration %d: read served a stale value", i)
		}
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if pipe.PendingWrites() != 0 {
		t.Fatalf("%d pending writes after Flush", pipe.PendingWrites())
	}
	// After the flush the inner store itself must hold the final value.
	got, err := m.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(block.Pattern(199, 16)) {
		t.Fatal("inner store stale after Flush")
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.WriteBatch([]store.WriteOp{{Addr: 0, Block: block.New(16)}}); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("write after close: err = %v, want ErrPipelineClosed", err)
	}
}

// TestPipelineConcurrentWritersOrder: racing WriteBatch callers (legal —
// Pipeline is exported as a general BatchServer) must land in seq order:
// whatever value a quiesced read observes through the overlay is the
// value the inner store holds after Flush. A seq/channel-order mismatch
// would let an older write overwrite a newer one.
func TestPipelineConcurrentWritersOrder(t *testing.T) {
	m, err := store.NewMem(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(&slowMem{Mem: m, delay: 20 * time.Microsecond})
	defer pipe.Close() //nolint:errcheck
	for iter := 0; iter < 40; iter++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					b := block.Pattern(uint64(iter*10000+g*100+i), 16)
					if err := pipe.WriteBatch([]store.WriteOp{{Addr: 0, Block: b}}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		before, err := pipe.ReadBatch([]int{0}) // freshest accepted write, via overlay
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.Flush(); err != nil {
			t.Fatal(err)
		}
		after, err := m.Download(0)
		if err != nil {
			t.Fatal(err)
		}
		if !after.Equal(before[0]) {
			t.Fatalf("iteration %d: inner store landed a stale write over a newer one", iter)
		}
	}
}

// TestProxyOverTCP runs the full deployment shape: a Path ORAM behind a
// proxy daemon, concurrent wire clients, and the block-frame trust
// boundary.
func TestProxyOverTCP(t *testing.T) {
	const n, rs = 32, 24
	db, err := block.PatternDatabase(n, rs)
	if err != nil {
		t.Fatal(err)
	}
	oopts := pathoram.Options{Rand: rng.New(7), Key: crypto.KeyFromSeed(7)}
	slots, bs := pathoram.TreeShape(n, rs, oopts)
	backing, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(store.AsBatch(backing))
	oram, err := pathoram.Setup(db, pipe, oopts)
	if err != nil {
		t.Fatal(err)
	}
	p := New(oram, Options{Pipeline: pipe})
	defer p.Close() //nolint:errcheck

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, p) //nolint:errcheck
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[s] = err
				return
			}
			defer c.Close()
			if c.Records() != n || c.RecordSize() != rs {
				errs[s] = fmt.Errorf("handshake shape = %d × %d", c.Records(), c.RecordSize())
				return
			}
			base := s * (n / 4)
			want := block.Pattern(uint64(500+s), rs)
			if _, err := c.Write(base, want); err != nil {
				errs[s] = err
				return
			}
			got, err := c.Read(base)
			if err != nil {
				errs[s] = err
				return
			}
			if !got.Equal(want) {
				errs[s] = fmt.Errorf("client %d read a stale or foreign value", s)
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The trust boundary: a block-protocol client may handshake (it sees
	// the logical shape) but every block frame must be rejected.
	rc, err := store.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Size() != n || rc.BlockSize() != rs {
		t.Fatalf("block handshake reported %d × %d, want logical %d × %d", rc.Size(), rc.BlockSize(), n, rs)
	}
	var re *wire.RemoteError
	if _, err := rc.Download(0); !errors.As(err, &re) {
		t.Fatalf("download on proxy namespace: err = %v, want a server-side rejection", err)
	}
	if _, err := rc.ReadBatch([]int{0, 1}); !errors.As(err, &re) {
		t.Fatalf("read batch on proxy namespace: err = %v, want a server-side rejection", err)
	}
	// Writes are posted, so the rejection arrives with the barrier (and
	// fails the connection: last check on it).
	if err := rc.Upload(0, block.New(rs)); err != nil {
		t.Fatalf("posting an upload: %v", err)
	}
	var pw *store.PostedWriteError
	if err := rc.Flush(); !errors.As(err, &pw) || !errors.As(err, &re) {
		t.Fatalf("upload on proxy namespace: flush err = %v, want a posted server-side rejection", err)
	}
}

// TestProxyNamespaceOverTCP hosts a proxy and a block store side by side
// on one daemon and opens each by name.
func TestProxyNamespaceOverTCP(t *testing.T) {
	const n, rs = 16, 16
	db, srv := dpramMem(t, n, rs)
	opts := dpram.Options{Rand: rng.New(3), Key: crypto.KeyFromSeed(3)}
	scheme, err := dpram.Setup(db, srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := New(scheme, Options{})
	defer p.Close() //nolint:errcheck

	blocks, err := store.NewMem(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	ns := store.NewNamespaces()
	ns.AttachAccessor("tenants/alice", p)
	ns.Attach("raw", blocks)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go store.ServeNamespaces(ln, ns) //nolint:errcheck
	addr := ln.Addr().String()

	c, err := DialNamespace(addr, "tenants/alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Get(5)) {
		t.Fatal("proxy namespace served the wrong record")
	}

	// The block namespace still works, and opening the proxy namespace
	// with the block client is allowed only as far as the handshake.
	rc, err := store.DialNamespace(addr, "raw", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Download(0); err != nil {
		t.Fatal(err)
	}
	// A proxy client pointed at a block namespace handshakes (the open
	// reports the store's shape) but its access frames must be rejected
	// server-side.
	pc, err := DialNamespace(addr, "raw")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var re *wire.RemoteError
	if _, err := pc.Read(0); !errors.As(err, &re) {
		t.Fatalf("access frame on block namespace: err = %v, want a server-side rejection", err)
	}
}
