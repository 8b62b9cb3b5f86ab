package store

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/wire"
)

// Tests for the posted-write contract of a Remote: nil from WriteBatch /
// Upload means "queued on this connection", later calls on the connection
// observe the write, Flush is the barrier, and a deferred failure is typed
// and sticky.

// errInjected is the transport failure flakyConn injects.
var errInjected = errors.New("injected transport failure")

// flakyConn fails one Read or one Write after a byte budget, then keeps
// working — the shape of a timeout or a transient reset, and the case in
// which a client that carried on would read the rest of an old response as
// the answer to its next request. A negative budget never fires. Only the
// Remote's own goroutine (under its mutex) and the arming test touch it.
type flakyConn struct {
	net.Conn
	readLeft, writeLeft int
}

func (c *flakyConn) Read(p []byte) (int, error) {
	if c.readLeft == 0 {
		c.readLeft = -1
		return 0, errInjected
	}
	if c.readLeft > 0 && len(p) > c.readLeft {
		p = p[:c.readLeft]
	}
	n, err := c.Conn.Read(p)
	if c.readLeft > 0 {
		c.readLeft -= n
	}
	return n, err
}

func (c *flakyConn) Write(p []byte) (int, error) {
	if c.writeLeft >= 0 && len(p) > c.writeLeft {
		n, _ := c.Conn.Write(p[:c.writeLeft])
		c.writeLeft = -1
		return n, errInjected
	}
	if c.writeLeft > 0 {
		c.writeLeft -= len(p)
	}
	return c.Conn.Write(p)
}

// dialFlaky dials addr through a flakyConn with both budgets disarmed.
func dialFlaky(t *testing.T, addr string) (*Remote, *flakyConn) {
	t.Helper()
	var fc *flakyConn
	rs, err := DialWrapped(addr, func(c net.Conn) net.Conn {
		fc = &flakyConn{Conn: c, readLeft: -1, writeLeft: -1}
		return fc
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs, fc
}

// patternMem returns a Mem whose slot a holds block.Pattern(a).
func patternMem(t *testing.T, slots, blockSize int) *Mem {
	t.Helper()
	m, err := NewMem(slots, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < slots; a++ {
		if err := m.Upload(a, block.Pattern(uint64(a), blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestRemoteTransportErrorIsSticky: a response cut off after k bytes fails
// that call and every later one with the same error — the bytes that
// arrive afterwards belong to the old response and must never be parsed as
// the next one. A well-formed error answer, by contrast, leaves the
// connection usable.
func TestRemoteTransportErrorIsSticky(t *testing.T) {
	const slots, bs = 64, 32
	addr := serveOn(t, patternMem(t, slots, bs), 0)
	rs, fc := dialFlaky(t, addr)

	var remote *wire.RemoteError
	if _, err := rs.Download(slots); !errors.As(err, &remote) {
		t.Fatalf("out-of-range download: err = %v, want a server error", err)
	}
	got, err := rs.Download(5)
	if err != nil || !got.Equal(block.Pattern(5, bs)) {
		t.Fatalf("download after a well-formed error answer: %v (a server error must not fail the connection)", err)
	}

	for _, k := range []int{0, 3, 5, 20} { // before the header, inside it, after it, inside the payload
		rs, fc = dialFlaky(t, addr)
		fc.readLeft = k
		_, first := rs.ReadBatch([]int{1, 2, 3, 4, 5, 6, 7, 8})
		if !errors.Is(first, errInjected) {
			t.Fatalf("k=%d: read batch err = %v, want the injected failure", k, first)
		}
		// The conn works again and the rest of the old response is still
		// in flight: a client that carried on would mis-parse it.
		if b, err := rs.Download(9); err != first {
			t.Fatalf("k=%d: download after the failure = (%x, %v), want the first error again", k, b, err)
		}
		if _, err := rs.ReadBatch([]int{1}); err != first {
			t.Fatalf("k=%d: read batch after the failure: %v, want the first error again", k, err)
		}
		if err := rs.WriteBatch([]WriteOp{{Addr: 1, Block: block.New(bs)}}); err != first {
			t.Fatalf("k=%d: write batch after the failure: %v, want the first error again", k, err)
		}
		if err := rs.Flush(); err != first {
			t.Fatalf("k=%d: flush after the failure: %v, want the first error again", k, err)
		}
		if err := rs.Close(); err != first {
			t.Fatalf("k=%d: close after the failure: %v, want the first error again", k, err)
		}
	}

	// The write side: the posted frame and the read request behind it die
	// in the flush; the failure is the posted write's.
	rs, fc = dialFlaky(t, addr)
	if err := rs.WriteBatch([]WriteOp{{Addr: 1, Block: block.New(bs)}}); err != nil {
		t.Fatal(err)
	}
	fc.writeLeft = 7
	_, first := rs.ReadBatch([]int{1})
	var posted *PostedWriteError
	if !errors.As(first, &posted) || !errors.Is(first, errInjected) {
		t.Fatalf("read batch over a dying write side: %v, want a posted-write error wrapping the injected failure", first)
	}
	if _, err := rs.Download(2); err != first {
		t.Fatalf("download after the failure: %v, want the first error again", err)
	}
}

// TestPostedWritesReadYourWrites: post W(a,v), read a — 10⁴ times on one
// connection, batch and per-block frames alternating, never stale. No
// overlay makes this true; the server's in-order execution does.
func TestPostedWritesReadYourWrites(t *testing.T) {
	const slots, bs = 64, 32
	mem, err := NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Dial(serveOn(t, mem, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	base := rs.RoundTrips()
	for i := 0; i < 10000; i++ {
		a, want := (i*7)%slots, block.Pattern(uint64(i), bs)
		var got block.Block
		if i%2 == 0 {
			if err := rs.WriteBatch([]WriteOp{{Addr: a, Block: want}}); err != nil {
				t.Fatal(err)
			}
			blocks, err := rs.ReadBatch([]int{a})
			if err != nil {
				t.Fatal(err)
			}
			got = blocks[0]
		} else {
			if err := rs.Upload(a, want); err != nil {
				t.Fatal(err)
			}
			if got, err = rs.Download(a); err != nil {
				t.Fatal(err)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("iteration %d: read of slot %d is stale", i, a)
		}
	}
	// Posting changes who waits, not what is exchanged.
	if n := rs.RoundTrips() - base; n != 20000 {
		t.Fatalf("%d exchanges for 10⁴ write+read pairs, want 20000", n)
	}
}

// TestPostedWritesNoPipeliningDeadlock: 10⁵ one-block writes with no read
// in between complete against a real daemon, and the unread acks stay
// under the bound throughout — the burst settles itself.
func TestPostedWritesNoPipeliningDeadlock(t *testing.T) {
	const slots, bs, writes = 50, 256, 100000 // slots divides writes
	mem, err := NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Dial(serveOn(t, mem, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	done := make(chan error, 1)
	go func() {
		op := make([]WriteOp, 1)
		for i := 0; i < writes; i++ {
			op[0] = WriteOp{Addr: i % slots, Block: block.Pattern(uint64(i), bs)}
			if err := rs.WriteBatch(op); err != nil {
				done <- err
				return
			}
			rs.mu.Lock()
			n := rs.nPosted
			rs.mu.Unlock()
			if n >= postedAckBound {
				done <- fmt.Errorf("write %d left %d acks unread, bound is %d", i, n, postedAckBound)
				return
			}
		}
		done <- rs.Flush()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("write-only burst wedged")
	}
	for a := 0; a < slots; a++ {
		got, err := mem.Download(a)
		if err != nil {
			t.Fatal(err)
		}
		if want := block.Pattern(uint64(writes-slots+a), bs); !got.Equal(want) {
			t.Fatalf("slot %d does not hold the burst's last write", a)
		}
	}
}

// rejectingStore fails every write to one address, as a backing store with
// a bad sector would: the one kind of rejection a client cannot rule out
// from the handshake shape.
type rejectingStore struct {
	Server
	bad int
}

func (r *rejectingStore) Upload(addr int, b block.Block) error {
	if addr == r.bad {
		return fmt.Errorf("slot %d is unwritable", addr)
	}
	return r.Server.Upload(addr, b)
}

// assertFailedFor checks that a connection is failed for good with first:
// every call, Flush and Close report it.
func assertFailedFor(t *testing.T, rs *Remote, first error, blockSize int) {
	t.Helper()
	var posted *PostedWriteError
	if !errors.As(first, &posted) {
		t.Fatalf("deferred failure is %T (%v), want a *PostedWriteError", first, first)
	}
	if _, err := rs.Download(0); err != first {
		t.Fatalf("download on the failed connection: %v, want %v", err, first)
	}
	if err := rs.Upload(0, block.New(blockSize)); err != first {
		t.Fatalf("upload on the failed connection: %v, want %v", err, first)
	}
	if err := rs.Flush(); err != first {
		t.Fatalf("flush on the failed connection: %v, want %v", err, first)
	}
	if err := rs.Close(); err != first {
		t.Fatalf("close on the failed connection: %v, want %v", err, first)
	}
}

// TestPostedWriteRejected: a posted write the server rejects fails the
// next call — not the write, which already returned nil — with a typed
// error, then every later call. An argument the handshake shape rules out
// never becomes a frame, so it fails its own call and nothing else.
func TestPostedWriteRejected(t *testing.T) {
	const slots, bs, bad = 16, 32, 11
	mem, err := NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, &rejectingStore{Server: mem, bad: bad}, 0)
	rs, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteBatch([]WriteOp{{Addr: slots, Block: block.New(bs)}}); !errors.Is(err, ErrAddr) {
		t.Fatalf("out-of-range write batch: %v, want ErrAddr from the client", err)
	}
	if err := rs.Upload(0, block.New(bs+1)); !errors.Is(err, block.ErrSize) {
		t.Fatalf("wrong-size upload: %v, want ErrSize from the client", err)
	}
	if err := rs.WriteBatch([]WriteOp{{Addr: 1, Block: block.Pattern(1, bs)}, {Addr: bad, Block: block.Pattern(2, bs)}}); err != nil {
		t.Fatalf("posting a write the server will reject: %v, want nil", err)
	}
	_, first := rs.ReadBatch([]int{1})
	var remote *wire.RemoteError
	if !errors.As(first, &remote) {
		t.Fatalf("call after the rejected write: %v, want the server's rejection", first)
	}
	assertFailedFor(t, rs, first, bs)

	// Flush finds it just as well as the next call does.
	rs, err = Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Upload(bad, block.New(bs)); err != nil {
		t.Fatal(err)
	}
	first = rs.Flush()
	if !errors.As(first, &remote) {
		t.Fatalf("flush after the rejected upload: %v, want the server's rejection", first)
	}
	assertFailedFor(t, rs, first, bs)
}

// TestPostedWriteShed: admission sheds a posted write (one slot, no queue,
// a second connection parked inside the backend holding it). The busy
// frame is the write's deferred failure: typed, still recognisable as
// busy, and sticky.
func TestPostedWriteShed(t *testing.T) {
	const slots, bs = 16, 32
	mem, err := NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	gated := &blockingStore{Server: mem, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	ns := NewNamespaces()
	ns.Attach(DefaultNamespace, gated)
	ns.SetAdmission(AdmitOptions{MaxInflight: 1, MaxQueue: 0})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeNamespaces(ln, ns) //nolint:errcheck

	holder, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.Download(3)
		holderDone <- err
	}()
	<-gated.entered // the slot is now provably held

	rs, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteBatch([]WriteOp{{Addr: 1, Block: block.Pattern(1, bs)}}); err != nil {
		t.Fatalf("posting a write the server will shed: %v, want nil", err)
	}
	_, first := rs.ReadBatch([]int{1})
	if _, busy := wire.IsBusy(first); !busy {
		t.Fatalf("call after the shed write: %v, want the busy answer", first)
	}
	close(gated.gate)
	if err := <-holderDone; err != nil {
		t.Fatal(err)
	}
	// The slot is free again, but the write is lost and its caller was
	// told nil: the connection stays failed.
	assertFailedFor(t, rs, first, bs)
	if got, err := mem.Download(1); err != nil || !got.IsZero() {
		t.Fatalf("the shed write reached the store (%v)", err)
	}
}

// TestAckSynchronousWriters: the three clients whose nil from WriteBatch
// is read as "the server has it" — a Pool (the next call may ride another
// connection), a Remote armed with a RetryPolicy (a shed write must be seen
// to be retried) and a DialCluster (a quorum counts acks) — return only
// once the backing store, inspected directly, holds the write.
func TestAckSynchronousWriters(t *testing.T) {
	const slots, bs, rounds = 32, 32, 500
	check := func(t *testing.T, s BatchServer, backings ...*Mem) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			a, want := (i*5)%slots, block.Pattern(uint64(i+1), bs)
			var err error
			if i%2 == 0 {
				err = s.WriteBatch([]WriteOp{{Addr: a, Block: want}})
			} else {
				err = s.Upload(a, want)
			}
			if err != nil {
				t.Fatal(err)
			}
			for r, m := range backings {
				if got, _ := m.Download(a); !got.Equal(want) {
					t.Fatalf("write %d returned before backing %d applied it", i, r)
				}
			}
		}
	}
	newMem := func(t *testing.T) *Mem {
		t.Helper()
		m, err := NewMem(slots, bs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("pool", func(t *testing.T) {
		mem := newMem(t)
		p, err := DialPool(serveOn(t, mem, 0), 3)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		check(t, p, mem)
	})

	t.Run("pool-rejection-is-synchronous", func(t *testing.T) {
		const bad = 7
		p, err := DialPool(serveOn(t, &rejectingStore{Server: newMem(t), bad: bad}, 0), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var remote *wire.RemoteError
		var posted *PostedWriteError
		if err := p.Upload(bad, block.New(bs)); !errors.As(err, &remote) || errors.As(err, &posted) {
			t.Fatalf("rejected pool upload: %v, want the server's rejection from the call itself", err)
		}
		// An awaited rejection is a well-formed answer: the pool's only
		// connection is still good.
		if err := p.Upload(bad+1, block.New(bs)); err != nil {
			t.Fatalf("pool upload after a rejected one: %v", err)
		}
	})

	t.Run("retry-policy", func(t *testing.T) {
		mem := newMem(t)
		rs, err := Dial(serveOn(t, mem, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		rs.SetRetryPolicy(DefaultRetryPolicy())
		check(t, rs, mem)
	})

	t.Run("cluster", func(t *testing.T) {
		mems := []*Mem{newMem(t), newMem(t), newMem(t)}
		addrs := make([]string, len(mems))
		for i, m := range mems {
			addrs[i] = serveOn(t, m, 0)
		}
		rep, err := DialCluster(addrs, ClusterOptions{Replicated: ReplicatedOptions{WriteQuorum: len(mems)}})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close() //nolint:errcheck
		check(t, rep, mems...)
	})
}
