package pathoram

import (
	"errors"
	"maps"
	"slices"
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

// TestSwappedSlotsFailAuth: every slot is sealed bound to its address, so
// a path read that returns another slot's ciphertext must fail with
// crypto.ErrAuth — not ingest another slot's block — and leave the stash
// and position map exactly as they were. Undoing the swap heals it.
func TestSwappedSlotsFailAuth(t *testing.T) {
	const n = 16
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rand: rng.New(11), Key: crypto.KeyFromSeed(11)}
	slots, bs := TreeShape(n, 16, opts)
	mem, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Setup(db, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	const i = 5
	pos := o.pos.(localPosMap)
	// Swap a slot of the leaf bucket on i's path with the same slot of the
	// sibling leaf's bucket, which no path through i's leaf reads.
	onPath := (o.numLeaves-1+pos[i])*o.z + 1
	offPath := (o.numLeaves-1+(pos[i]^1))*o.z + 1
	swapSlots(t, mem, onPath, offPath)

	stash := make(map[int]stashEntry, len(o.stash))
	for id, e := range o.stash {
		stash[id] = stashEntry{pos: e.pos, data: e.data.Copy()}
	}
	positions := slices.Clone(pos)
	if _, err := o.Read(i); !errors.Is(err, crypto.ErrAuth) {
		t.Fatalf("read over a swapped slot: err = %v, want crypto.ErrAuth", err)
	}
	if !maps.EqualFunc(stash, o.stash, func(a, b stashEntry) bool { return a.pos == b.pos && a.data.Equal(b.data) }) {
		t.Fatal("a failed path open changed the stash")
	}
	if !slices.Equal(positions, pos) {
		t.Fatal("a failed path open left the position map remapped")
	}

	swapSlots(t, mem, onPath, offPath)
	got, err := o.Read(i)
	if err != nil {
		t.Fatalf("read after undoing the swap: %v", err)
	}
	if !block.CheckPattern(got, i) {
		t.Fatalf("record %d corrupted after the swap was undone", i)
	}
}
