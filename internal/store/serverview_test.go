package store_test

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/trace"
	"dpstore/internal/workload"
)

// The server's view under posted writes. Posting changes when the client
// waits, never what it sends or in which order: the (op, address) sequence
// the backing store sees over Dial → Serve equals the in-process run's, and
// the shape of the flights — the sizes of the client's socket writes — is a
// function of the frame types alone, so it cannot tell a hot-spot query
// sequence from a uniform one.

const (
	viewN       = 256
	viewRecSize = 32
	viewQueries = 400
)

// sizeConn records the size of every client→server socket write.
type sizeConn struct {
	net.Conn
	mu     sync.Mutex
	writes []int
}

func (c *sizeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *sizeConn) sizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.writes)
}

// viewScheme is one scheme under test: its server shape and a seeded
// set-up over any server, returning the access function.
type viewScheme struct {
	name  string
	shape func() (slots, blockSize int)
	setup func(db *block.Database, srv store.Server) (func(workload.Query) (block.Block, error), error)
}

var viewSchemes = []viewScheme{
	{
		name: "dpram",
		shape: func() (int, int) {
			return viewN, dpram.ServerBlockSize(viewRecSize, dpram.Options{})
		},
		setup: func(db *block.Database, srv store.Server) (func(workload.Query) (block.Block, error), error) {
			c, err := dpram.Setup(db, srv, dpram.Options{Rand: rng.New(42), Key: crypto.KeyFromSeed(42)})
			if err != nil {
				return nil, err
			}
			return c.Access, nil
		},
	},
	{
		name: "pathoram",
		shape: func() (int, int) {
			return pathoram.TreeShape(viewN, viewRecSize, pathoram.Options{})
		},
		setup: func(db *block.Database, srv store.Server) (func(workload.Query) (block.Block, error), error) {
			o, err := pathoram.Setup(db, srv, pathoram.Options{Rand: rng.New(42), Key: crypto.KeyFromSeed(42)})
			if err != nil {
				return nil, err
			}
			return o.Access, nil
		},
	},
}

// viewQuerySeq builds viewQueries queries with a fixed op pattern (every
// fourth a write) over indices drawn by pick.
func viewQuerySeq(pick func(k int) int) workload.Sequence {
	seq := make(workload.Sequence, viewQueries)
	for k := range seq {
		seq[k] = workload.Query{Index: pick(k), Op: workload.Read}
		if k%4 == 3 {
			seq[k].Op = workload.Write
			seq[k].Data = block.Pattern(uint64(k), viewRecSize)
		}
	}
	return seq
}

// runView sets the scheme up and runs seq, in process (remote false) or
// over Dial → Serve, with a Recorder directly above the Mem either way. It
// returns the recorded transcript and, for the remote run, the client's
// socket write sizes.
func runView(t *testing.T, sc viewScheme, seq workload.Sequence, remote bool) (string, []int) {
	t.Helper()
	db, err := block.PatternDatabase(viewN, viewRecSize)
	if err != nil {
		t.Fatal(err)
	}
	slots, bs := sc.shape()
	mem, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(mem)
	var srv store.Server = rec
	var conn *sizeConn
	if remote {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go store.Serve(ln, rec) //nolint:errcheck
		rs, err := store.DialWrapped(ln.Addr().String(), func(c net.Conn) net.Conn {
			conn = &sizeConn{Conn: c}
			return conn
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		srv = rs
	}
	access, err := sc.setup(db, srv)
	if err != nil {
		t.Fatal(err)
	}
	for k, q := range seq {
		if _, err := access(q); err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
	}
	// The Recorder is read out of band: the last access's posted upload
	// belongs to the view only once it is flushed.
	if err := store.Flush(srv); err != nil {
		t.Fatal(err)
	}
	if !remote {
		return rec.Transcript().Key(), nil
	}
	return rec.Transcript().Key(), conn.sizes()
}

func TestServerViewUnchangedByPostedWrites(t *testing.T) {
	src := rng.New(7)
	uniform := viewQuerySeq(func(int) int { return src.Intn(viewN) })
	hot := viewQuerySeq(func(k int) int { return k % 2 }) // two records, over and over
	for _, sc := range viewSchemes {
		t.Run(sc.name, func(t *testing.T) {
			local, _ := runView(t, sc, uniform, false)
			wire, uniformSizes := runView(t, sc, uniform, true)
			if local != wire {
				t.Fatalf("the (op, addr) sequence over Dial → Serve differs from the in-process run's (lengths %d vs %d)", len(wire), len(local))
			}
			_, hotSizes := runView(t, sc, hot, true)
			if !slices.Equal(uniformSizes, hotSizes) {
				t.Fatalf("socket write sizes depend on the addresses queried:\nuniform %s\nhot     %s", head(uniformSizes), head(hotSizes))
			}
			if len(uniformSizes) == 0 {
				t.Fatal("no socket writes recorded")
			}
		})
	}
}

// head renders the first few sizes and the count.
func head(sizes []int) string {
	n := min(len(sizes), 12)
	return fmt.Sprintf("%v… (%d writes)", sizes[:n], len(sizes))
}
