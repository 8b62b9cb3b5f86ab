package dpram

import (
	"bytes"
	"errors"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

// TestFaultPropagationEveryOffset injects a failure at every operation
// offset of a query window and checks the client surfaces an error (never
// panics) and that queries before the fault are unaffected.
func TestFaultPropagationEveryOffset(t *testing.T) {
	const n = 32
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Setup costs n uploads; queries cost 3 ops each. Probe offsets across
	// the first handful of queries.
	for offset := int64(1); offset <= 12; offset++ {
		srv, err := store.NewMem(n, crypto.CiphertextSize(16))
		if err != nil {
			t.Fatal(err)
		}
		faulty := store.NewFaulty(srv, int64(n)+offset, nil)
		c, err := Setup(db, faulty, Options{Rand: rng.New(int64(offset)), Key: crypto.KeyFromSeed(1)})
		if err != nil {
			t.Fatalf("offset %d: setup must precede the fault: %v", offset, err)
		}
		var sawErr bool
		for i := 0; i < 8; i++ {
			_, err := c.Read(i % n)
			if err != nil {
				if !errors.Is(err, store.ErrInjected) {
					t.Fatalf("offset %d: error lost its cause: %v", offset, err)
				}
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Fatalf("offset %d: fault never surfaced", offset)
		}
	}
}

// TestFaultDuringSetup checks setup fails cleanly when the server dies
// mid-initialization.
func TestFaultDuringSetup(t *testing.T) {
	db, _ := block.PatternDatabase(32, 16)
	srv, _ := store.NewMem(32, crypto.CiphertextSize(16))
	faulty := store.NewFaulty(srv, 10, nil)
	if _, err := Setup(db, faulty, Options{Rand: rng.New(1)}); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestFaultedAccessPreservesStash: a failed download phase must not
// destroy the stash entry it was about to serve — the stash holds the only
// up-to-date copy of a stashed record (the server ciphertext is stale by
// design), so a transient fault followed by a retry must still return the
// current value.
func TestFaultedAccessPreservesStash(t *testing.T) {
	const n = 8
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := store.NewMem(n, crypto.CiphertextSize(16))
	if err != nil {
		t.Fatal(err)
	}
	// StashParam = n gives p = 1: every record is stashed, every access
	// re-stashes, so the server copy of record 0 stays permanently stale.
	// Ops: setup = n uploads; the write = ops n+1..n+3; fault the first op
	// of the next access (its decoy download).
	faulty := store.NewFaulty(srv, int64(n)+4, nil)
	c, err := Setup(db, faulty, Options{Rand: rng.New(1), Key: crypto.KeyFromSeed(1), StashParam: n})
	if err != nil {
		t.Fatal(err)
	}
	want := block.Pattern(999, 16)
	if _, err := c.Write(0, want); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("faulted read: err = %v, want ErrInjected", err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("retry returned stale data: got pattern ok=%v, want the written value", block.CheckPattern(got, 999))
	}
}

// TestFaultedOverwritePreservesStash covers the write phase: with the
// record stashed and the non-stash branch chosen, the overwrite upload is
// the only place the current value can reach the server — if it fails, the
// stash entry must survive so a retry still serves the current value.
func TestFaultedOverwritePreservesStash(t *testing.T) {
	const n = 8
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := store.NewMem(n, crypto.CiphertextSize(16))
	if err != nil {
		t.Fatal(err)
	}
	// StashParam 0 ⇒ p = 0: nothing stashes and the overwrite coin always
	// takes the non-stash branch. Fault the access's upload (op n+3).
	faulty := store.NewFaulty(srv, int64(n)+3, nil)
	c, err := Setup(db, faulty, Options{Rand: rng.New(1), Key: crypto.KeyFromSeed(1), StashParam: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a stash entry by hand: its value differs from the (stale)
	// server ciphertext, so only the stash can serve it.
	want := block.Pattern(31337, 16)
	c.claim(0, []block.Block{want})
	if _, err := c.Read(0); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("faulted overwrite: err = %v, want ErrInjected", err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("retry returned stale data: failed overwrite dropped the stash entry")
	}
}

// TestBucketRAMFaultedOverwritePreservesStash is the same invariant at
// bucket granularity: a stashed bucket whose write-home upload fails must
// keep its dirty-map claims until the write lands.
func TestBucketRAMFaultedOverwritePreservesStash(t *testing.T) {
	const plain = 16
	buckets := [][]int{{0, 1}, {2, 3}, {4, 5}, {0, 2}}
	srv, err := store.NewMem(6, crypto.CiphertextSize(plain))
	if err != nil {
		t.Fatal(err)
	}
	// Setup = 6 uploads; access = 2s reads then s uploads (s = 2). Fault
	// the first upload of the first access (op 6+4+1).
	faulty := store.NewFaulty(srv, 6+4+1, nil)
	r, err := NewBucketRAM(faulty, buckets, nil, plain, BucketOptions{
		Rand: rng.New(3), Key: crypto.KeyFromSeed(3), StashParam: 0, // p = 0: never stash, never refresh
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []block.Block{block.Pattern(71, plain), block.Pattern(72, plain)}
	r.claim(0, want) // plant: bucket 0's current contents live client-side only
	if _, err := r.Access(0, nil); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("faulted bucket overwrite: err = %v, want ErrInjected", err)
	}
	got, err := r.Access(0, nil)
	if err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("node %d stale after retried access: failed overwrite dropped the stash claims", k)
		}
	}
}

// TestBucketRAMFailedHomeWriteLeavesStateUnchanged: an update to a
// stashed bucket whose upload fails must leave the client exactly as it
// was — the update reaches neither the bucket's own stashed copy nor the
// overlapping stashed bucket's, and every claim stays. The seeds cover
// both overwrite branches; the write home is the one that takes the
// bucket out of the stash once it lands.
func TestBucketRAMFailedHomeWriteLeavesStateUnchanged(t *testing.T) {
	const plain = 16
	buckets := overlappingBuckets()
	homes := 0
	for seed := int64(1); seed <= 16; seed++ {
		srv, err := store.NewMem(6, crypto.CiphertextSize(plain))
		if err != nil {
			t.Fatal(err)
		}
		// Setup = 6 uploads; access = 2s reads then s uploads (s = 3).
		// Fault the first upload of the first access.
		faulty := store.NewFaulty(srv, 6+6+1, nil)
		r, err := NewBucketRAM(faulty, buckets, nil, plain, BucketOptions{
			Rand: rng.New(seed), Key: crypto.KeyFromSeed(4), StashParam: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Plant buckets 0 and 1, which share nodes 4 and 5: their
		// current contents live client-side only.
		r.claim(0, []block.Block{block.Pattern(70, plain), block.Pattern(71, plain), block.Pattern(72, plain)})
		r.claim(1, []block.Block{block.Pattern(80, plain), block.Pattern(71, plain), block.Pattern(72, plain)})
		before, err := r.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		// Algorithm 3's coins for a stash hit: the decoy, then the stash coin.
		coins := rng.New(seed)
		coins.Intn(len(buckets))
		home := coins.Intn(len(buckets)) >= 1
		_, err = r.Access(0, func(nodes []block.Block) {
			for k := range nodes {
				copy(nodes[k], block.Pattern(uint64(90+k), plain))
			}
		})
		if !errors.Is(err, store.ErrInjected) {
			t.Fatalf("seed %d: faulted upload: err = %v, want ErrInjected", seed, err)
		}
		after, _ := r.MarshalState()
		if !bytes.Equal(before, after) || !bytes.Equal(before, r.encodeState()) {
			t.Fatalf("seed %d (home branch %v): a failed upload changed the client state", seed, home)
		}
		if home {
			homes++
		}
	}
	if homes == 0 {
		t.Fatal("no seed drew the write-home branch")
	}
}

// TestBucketRAMFaultPropagation does the same for the Appendix E variant.
func TestBucketRAMFaultPropagation(t *testing.T) {
	const plain = 16
	buckets := overlappingBuckets()
	setupOps := int64(6) // six node uploads at initialization
	for offset := int64(1); offset <= 9; offset++ {
		srv, _ := store.NewMem(6, crypto.CiphertextSize(plain))
		faulty := store.NewFaulty(srv, setupOps+offset, nil)
		r, err := NewBucketRAM(faulty, buckets, nil, plain, BucketOptions{
			Rand: rng.New(int64(offset)), Key: crypto.KeyFromSeed(2), StashParam: 2,
		})
		if err != nil {
			t.Fatalf("offset %d: setup failed early: %v", offset, err)
		}
		var sawErr bool
		for i := 0; i < 6; i++ {
			if _, err := r.Access(i%4, nil); err != nil {
				if !errors.Is(err, store.ErrInjected) {
					t.Fatalf("offset %d: error lost its cause: %v", offset, err)
				}
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Fatalf("offset %d: fault never surfaced", offset)
		}
	}
}
