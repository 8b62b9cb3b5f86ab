package store

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"dpstore/internal/block"
)

// exercise runs a common conformance suite against any Server.
func exercise(t *testing.T, s Server, n, bs int) {
	t.Helper()
	if s.Size() != n || s.BlockSize() != bs {
		t.Fatalf("shape = (%d,%d), want (%d,%d)", s.Size(), s.BlockSize(), n, bs)
	}
	// Fresh slots read back zero.
	b, err := s.Download(0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsZero() {
		t.Fatal("fresh slot not zero")
	}
	// Round trip.
	want := block.Pattern(123, bs)
	if err := s.Upload(n-1, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Download(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("round trip mismatch")
	}
	// Download returns a copy: mutating it must not affect the store.
	got[0] ^= 0xff
	again, _ := s.Download(n - 1)
	if !again.Equal(want) {
		t.Fatal("Download returned aliased storage")
	}
	// Upload copies: mutating the source later must not affect the store.
	src := block.Pattern(7, bs)
	if err := s.Upload(1, src); err != nil {
		t.Fatal(err)
	}
	src[0] ^= 0xff
	b1, _ := s.Download(1)
	if !b1.Equal(block.Pattern(7, bs)) {
		t.Fatal("Upload kept a reference to caller memory")
	}
	// Address range errors.
	if _, err := s.Download(-1); err == nil {
		t.Fatal("negative address accepted")
	}
	if _, err := s.Download(n); err == nil {
		t.Fatal("address == size accepted")
	}
	if err := s.Upload(n, want); err == nil {
		t.Fatal("upload out of range accepted")
	}
	// Size errors.
	if err := s.Upload(0, block.New(bs+1)); err == nil {
		t.Fatal("wrong-size upload accepted")
	}
}

func TestMemConformance(t *testing.T) {
	m, err := NewMem(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	exercise(t, m, 8, 32)
}

func TestMemRejectsBadShape(t *testing.T) {
	if _, err := NewMem(0, 32); err == nil {
		t.Fatal("accepted zero slots")
	}
	if _, err := NewMem(4, 0); err == nil {
		t.Fatal("accepted zero block size")
	}
}

func TestNewMemFrom(t *testing.T) {
	db, _ := block.PatternDatabase(4, 16)
	m, err := NewMemFrom(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b, _ := m.Download(i)
		if !block.CheckPattern(b, uint64(i)) {
			t.Fatalf("slot %d does not hold pattern", i)
		}
	}
	// Mutating db afterwards must not affect the server.
	db.Get(0)[0] ^= 0xff
	b, _ := m.Download(0)
	if !block.CheckPattern(b, 0) {
		t.Fatal("server aliases the source database")
	}
}

func TestFileConformance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	f, err := CreateFile(path, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exercise(t, f, 8, 32)
}

func TestFilePersistsAcrossOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	f, err := CreateFile(path, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := block.Pattern(5, 16)
	if err := f.Upload(2, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(path, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := g.Download(2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("data did not persist")
	}
}

func TestOpenFileValidatesShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	f, _ := CreateFile(path, 4, 16)
	f.Close()
	if _, err := OpenFile(path, 5, 16); err == nil {
		t.Fatal("wrong shape accepted")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing"), 4, 16); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCountingMeters(t *testing.T) {
	m, _ := NewMem(8, 16)
	c := NewCounting(m)
	exercise(t, c, 8, 16) // conformance holds through the wrapper

	c.Reset()
	b := block.Pattern(1, 16)
	for i := 0; i < 3; i++ {
		if _, err := c.Download(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Upload(5, b); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Downloads != 3 || st.Uploads != 1 {
		t.Fatalf("ops = (%d,%d), want (3,1)", st.Downloads, st.Uploads)
	}
	if st.Ops() != 4 {
		t.Fatalf("Ops() = %d, want 4", st.Ops())
	}
	if st.BytesDown != 48 || st.BytesUp != 16 {
		t.Fatalf("bytes = (%d,%d), want (48,16)", st.BytesDown, st.BytesUp)
	}
	if st.TouchedUnique != 2 {
		t.Fatalf("touched = %d, want 2", st.TouchedUnique)
	}
	// Failed operations are not counted.
	if _, err := c.Download(100); err == nil {
		t.Fatal("expected error")
	}
	if c.Stats().Downloads != 3 {
		t.Fatal("failed download was counted")
	}
	c.Reset()
	if c.Stats().Ops() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCountingConcurrent(t *testing.T) {
	m, _ := NewMem(16, 16)
	c := NewCounting(m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Download(i % 16); err != nil {
					t.Error(err)
					return
				}
				if err := c.Upload(i%16, block.New(16)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Downloads != 800 || st.Uploads != 800 {
		t.Fatalf("ops = (%d,%d), want (800,800)", st.Downloads, st.Uploads)
	}
}

func TestRemoteOverLoopback(t *testing.T) {
	backing, _ := NewMem(8, 32)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck // returns on listener close

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	exercise(t, r, 8, 32)

	// Writes through the remote are visible in the backing store once
	// flushed (a Remote posts its writes).
	want := block.Pattern(9, 32)
	if err := r.Upload(3, want); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := backing.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("remote upload did not reach backing store")
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	backing, _ := NewMem(32, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			for i := 0; i < 50; i++ {
				addr := (g*8 + i) % 32
				if err := r.Upload(addr, block.Pattern(uint64(addr), 16)); err != nil {
					t.Error(err)
					return
				}
				b, err := r.Download(addr)
				if err != nil {
					t.Error(err)
					return
				}
				if !block.CheckPattern(b, uint64(addr)) {
					t.Errorf("slot %d corrupted", addr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRemoteServerSideErrors(t *testing.T) {
	backing, _ := NewMem(4, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Download(99); err == nil {
		t.Fatal("out-of-range download succeeded over the wire")
	}
	// The connection must survive a server-side error.
	if _, err := r.Download(0); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestMemQuickAgainstMap(t *testing.T) {
	// Property: Mem behaves like a map from address to last uploaded value.
	m, _ := NewMem(16, 16)
	ref := make(map[int]block.Block)
	f := func(addr uint8, id uint64, write bool) bool {
		a := int(addr) % 16
		if write {
			b := block.Pattern(id, 16)
			if err := m.Upload(a, b); err != nil {
				return false
			}
			ref[a] = b
			return true
		}
		got, err := m.Download(a)
		if err != nil {
			return false
		}
		want, ok := ref[a]
		if !ok {
			return got.IsZero()
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErrAddrWrapped(t *testing.T) {
	m, _ := NewMem(2, 16)
	_, err := m.Download(5)
	if !errors.Is(err, ErrAddr) {
		t.Fatalf("err = %v, want ErrAddr", err)
	}
}
