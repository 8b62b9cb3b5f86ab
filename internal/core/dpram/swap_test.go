package dpram

import (
	"errors"
	"maps"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

// swapSlots exchanges the ciphertexts of server slots a and b behind the
// client's back — what a striping, rebase or resync bug (or a malicious
// server) does.
func swapSlots(t *testing.T, mem *store.Mem, a, b int) {
	t.Helper()
	ca, err := mem.Download(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := mem.Download(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Upload(a, cb); err != nil {
		t.Fatal(err)
	}
	if err := mem.Upload(b, ca); err != nil {
		t.Fatal(err)
	}
}

func equalBlocks(a, b block.Block) bool { return a.Equal(b) }

// cloneBlocks deep-copies a client-side block map, so a later in-place
// write to any block shows up as a difference.
func cloneBlocks(m map[int]block.Block) map[int]block.Block {
	out := make(map[int]block.Block, len(m))
	for k, b := range m {
		out[k] = b.Copy()
	}
	return out
}

// TestSwappedSlotsFailAuth: every record is sealed bound to its address,
// so each place DP-RAM opens a downloaded block — the download phase's
// A[i] and the stash branch's refresh of A[d2] — must reject a block that
// another slot's ciphertext replaced, with crypto.ErrAuth and an unchanged
// stash. Undoing the swap heals it.
func TestSwappedSlotsFailAuth(t *testing.T) {
	setup := func(t *testing.T, n, stashParam int) (*Client, *store.Mem) {
		t.Helper()
		db, err := block.PatternDatabase(n, 16)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := store.NewMem(n, crypto.CiphertextSize(16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Setup(db, mem, Options{Rand: rng.New(12), Key: crypto.KeyFromSeed(12), StashParam: stashParam})
		if err != nil {
			t.Fatal(err)
		}
		return c, mem
	}

	t.Run("download", func(t *testing.T) {
		c, mem := setup(t, 16, 4)
		i := 0
		for c.stash[i] != nil {
			i++ // an unstashed record is served from A[i]
		}
		j := (i + 1) % c.n
		swapSlots(t, mem, i, j)
		stash := cloneBlocks(c.stash)
		if _, err := c.Read(i); !errors.Is(err, crypto.ErrAuth) {
			t.Fatalf("read of a swapped slot: err = %v, want crypto.ErrAuth", err)
		}
		if !maps.EqualFunc(stash, c.stash, equalBlocks) {
			t.Fatal("a failed open changed the stash")
		}
		swapSlots(t, mem, i, j)
		got, err := c.Read(i)
		if err != nil {
			t.Fatalf("read after undoing the swap: %v", err)
		}
		if !block.CheckPattern(got, uint64(i)) {
			t.Fatalf("record %d corrupted after the swap was undone", i)
		}
	})

	t.Run("refresh", func(t *testing.T) {
		// n = 2 and p = 1: both records are stashed, every access is a stash
		// hit (its download is a discarded decoy), and every overwrite
		// refreshes A[d2] with d2 ∈ {0, 1} — so with the two slots swapped
		// the refresh is the open that must fail, and the write must not
		// reach the stash.
		c, mem := setup(t, 2, 2)
		swapSlots(t, mem, 0, 1)
		stash := cloneBlocks(c.stash)
		want := block.Pattern(777, 16)
		if _, err := c.Write(0, want); !errors.Is(err, crypto.ErrAuth) {
			t.Fatalf("refresh of a swapped slot: err = %v, want crypto.ErrAuth", err)
		}
		if !maps.EqualFunc(stash, c.stash, equalBlocks) {
			t.Fatal("a failed refresh changed the stash")
		}
		swapSlots(t, mem, 0, 1)
		if _, err := c.Write(0, want); err != nil {
			t.Fatalf("write after undoing the swap: %v", err)
		}
		if got, err := c.Read(0); err != nil || !got.Equal(want) {
			t.Fatalf("read back after the healed write: %v", err)
		}
	})
}

// TestBucketRAMSwappedSlotsFailAuth is the same check at bucket
// granularity: a swapped node fails to open in the download phase and in
// the refresh, and neither failure changes the stash, the dirty map or its
// reference counts.
func TestBucketRAMSwappedSlotsFailAuth(t *testing.T) {
	const plain = 16
	type snapshot struct {
		stashed map[int]bool
		dirty   map[int]block.Block
		refcnt  map[int]int
	}
	snap := func(r *BucketRAM) snapshot {
		return snapshot{maps.Clone(r.stashed), cloneBlocks(r.dirty), maps.Clone(r.refcnt)}
	}
	same := func(a, b snapshot) bool {
		return maps.Equal(a.stashed, b.stashed) && maps.EqualFunc(a.dirty, b.dirty, equalBlocks) && maps.Equal(a.refcnt, b.refcnt)
	}
	setup := func(t *testing.T, buckets [][]int, stashParam int) (*BucketRAM, *store.Mem) {
		t.Helper()
		mem, err := store.NewMem(6, crypto.CiphertextSize(plain))
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]block.Block, 6)
		for a := range initial {
			initial[a] = block.Pattern(uint64(a), plain)
		}
		r, err := NewBucketRAM(mem, buckets, initial, plain, BucketOptions{
			Rand: rng.New(13), Key: crypto.KeyFromSeed(13), StashParam: stashParam,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, mem
	}
	update := func(nodes []block.Block) { copy(nodes[0], block.Pattern(99, plain)) }

	t.Run("download", func(t *testing.T) {
		// p = 0: nothing is stashed, so bucket 0 is decoded from the server.
		r, mem := setup(t, overlappingBuckets(), 0)
		swapSlots(t, mem, r.buckets[0][0], 1)
		before := snap(r)
		if _, err := r.Access(0, update); !errors.Is(err, crypto.ErrAuth) {
			t.Fatalf("access over a swapped node: err = %v, want crypto.ErrAuth", err)
		}
		if !same(before, snap(r)) {
			t.Fatal("a failed node open changed the stash or dirty map")
		}
		swapSlots(t, mem, r.buckets[0][0], 1)
		if _, err := r.Access(0, nil); err != nil {
			t.Fatalf("access after undoing the swap: %v", err)
		}
	})

	t.Run("refresh", func(t *testing.T) {
		// Two buckets over the same nodes and p = 1: the first access
		// stashes bucket 0, so bucket 1 is then served from the dirty map
		// and only the refresh of d2 ∈ {0, 1} opens the (swapped) nodes.
		r, mem := setup(t, [][]int{{0, 1}, {1, 0}}, 2)
		if _, err := r.Access(0, nil); err != nil {
			t.Fatal(err)
		}
		swapSlots(t, mem, 0, 1)
		before := snap(r)
		if _, err := r.Access(1, update); !errors.Is(err, crypto.ErrAuth) {
			t.Fatalf("refresh over swapped nodes: err = %v, want crypto.ErrAuth", err)
		}
		if !same(before, snap(r)) {
			t.Fatal("a failed refresh changed the stash or dirty map")
		}
		swapSlots(t, mem, 0, 1)
		got, err := r.Access(1, update)
		if err != nil {
			t.Fatalf("access after undoing the swap: %v", err)
		}
		if !got[0].Equal(block.Pattern(99, plain)) {
			t.Fatal("update lost after the swap was undone")
		}
	})
}
