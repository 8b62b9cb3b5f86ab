package dpram

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// stateGoldenAccesses is the length of each seeded run below: long enough
// at these small shapes to hit every branch (stash hit and miss, stash
// branch and home write, read and write) many times over.
const stateGoldenAccesses = 400

// TestStateFormatGoldenClient pins the DPRAMST1 bytes: SHA-256 over the
// MarshalState output after setup and after every access of a seeded
// mixed read/write run. Journals on disk hold these bytes, so any drift —
// a reordered field, a changed stash law, a moved coin — fails here.
func TestStateFormatGoldenClient(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ro     bool
		golden string
	}{
		{"encrypted", false, "7c8ec54801bc8f7ffe31b7fd3485bf49894f64eb05199a05d1454750e3755af8"},
		{"retrievalOnly", true, "c81c80b45f5b1ccfdfcbfb01b94a25fd9bd77344670c7fa2d72d688f750c7ce5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, rec = 16, 16
			opts := Options{Rand: rng.New(61), Key: crypto.KeyFromSeed(61), StashParam: 6, RetrievalOnly: tc.ro}
			db, err := block.PatternDatabase(n, rec)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := store.NewMem(n, ServerBlockSize(rec, opts))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Setup(db, mem, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashState := func() {
				st, err := c.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(st)
			}
			hashState()
			coins := rng.New(62)
			for k := 0; k < stateGoldenAccesses; k++ {
				i := coins.Intn(n)
				var err error
				if !tc.ro && coins.Intn(2) == 0 {
					_, err = c.Write(i, block.Pattern(uint64(1000+k), rec))
				} else {
					_, err = c.Access(workload.Query{Index: i, Op: workload.Read})
				}
				if err != nil {
					t.Fatalf("access %d: %v", k, err)
				}
				hashState()
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.golden {
				t.Fatalf("DPRAMST1 state bytes drifted:\n got %s\nwant %s", got, tc.golden)
			}
		})
	}
}

// TestStateFormatGoldenBucketRAM pins the BKRAMST1 bytes the same way,
// over the overlapping repertoire so the dirty map carries reference
// counts above one.
func TestStateFormatGoldenBucketRAM(t *testing.T) {
	const golden = "dff4856de522f95328bbd93f89430ec6e7e2586b3a315f9dd28f9448b7c4e3c2"
	const plain = 16
	mem, err := store.NewMem(6, crypto.CiphertextSize(plain))
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]block.Block, 6)
	for a := range initial {
		initial[a] = block.Pattern(uint64(a), plain)
	}
	buckets := overlappingBuckets()
	r, err := NewBucketRAM(mem, buckets, initial, plain, BucketOptions{
		Rand: rng.New(63), Key: crypto.KeyFromSeed(63), StashParam: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashState := func() {
		st, err := r.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(st)
	}
	hashState()
	coins := rng.New(64)
	for k := 0; k < stateGoldenAccesses; k++ {
		bi := coins.Intn(len(buckets))
		var update func([]block.Block)
		if coins.Intn(2) == 0 {
			node, pat := coins.Intn(len(buckets[bi])), block.Pattern(uint64(2000+k), plain)
			update = func(nodes []block.Block) { copy(nodes[node], pat) }
		}
		if _, err := r.Access(bi, update); err != nil {
			t.Fatalf("access %d: %v", k, err)
		}
		hashState()
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("BKRAMST1 state bytes drifted:\n got %s\nwant %s", got, golden)
	}
}
