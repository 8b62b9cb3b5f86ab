// Package pathoram implements Path ORAM (Stefanov et al. [48]), the
// oblivious-RAM baseline the paper positions DP-RAM against.
//
// Path ORAM provides full obliviousness (ε = 0, δ = negl(n)) at the
// Ω(log n) overhead the ORAM lower bounds [27, 37] make unavoidable: every
// access reads and rewrites one root-to-leaf path of a binary tree with
// Z-slot buckets, moving 2·Z·(height+1) = Θ(log n) blocks. The recursive
// variant (see recursive.go) outsources the position map the way Root
// ORAM [50] does, paying Θ(log n) round trips per access — the comparison
// point for the paper's claim that DP-RAM needs only O(1) round trips and
// O(1) overhead at ε = Θ(log n).
package pathoram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/mathx"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// dummyID marks an empty slot.
const dummyID = ^uint64(0)

// slotHeader is the slot metadata: 8-byte id plus 4-byte position tag. Real
// blocks carry their current leaf assignment with them (the standard
// denormalization that lets eviction run without position-map lookups,
// which is what makes the recursive variant workable).
const slotHeader = 12

// Options configures a Path ORAM client.
type Options struct {
	// Z is the bucket size; zero selects the standard Z = 4.
	Z int
	// Key is the client master key (zero means sample fresh).
	Key crypto.Key
	// Rand is the coin source. Required.
	Rand *rng.Source
	// DisableEncryption stores plaintext slots while preserving the access
	// pattern; for measurement only.
	DisableEncryption bool
}

// positionMap abstracts where the client keeps pos[i]: a local slice for
// flat Path ORAM, or the next recursion level's ORAM.
type positionMap interface {
	// Swap sets pos[i] = newLeaf and returns the previous value.
	Swap(i, newLeaf int) (old int, err error)
}

type localPosMap []int

func (m localPosMap) Swap(i, newLeaf int) (int, error) {
	old := m[i]
	m[i] = newLeaf
	return old, nil
}

// stashEntry is a block waiting in the client stash, tagged with its
// current leaf assignment.
type stashEntry struct {
	pos  int
	data block.Block
}

// ORAM is a Path ORAM client. Not safe for concurrent use.
type ORAM struct {
	n         int
	z         int
	height    int // tree levels are 0 (root) .. height (leaves)
	numLeaves int
	server    store.BatchServer
	cipher    *crypto.Cipher
	key       crypto.Key // master key behind cipher; serialized by MarshalState
	pos       positionMap
	stash     map[int]stashEntry
	src       *rng.Source

	plainSize int
	slotPlain int
	plaintext bool

	// A path write that fails leaves the tree holding stale copies of the
	// blocks that were being evicted (the stash keeps the current ones).
	// The sealed rewrite is buffered here and replayed before the next
	// access, restoring the one-live-copy-per-block invariant as soon as
	// the transport heals; the stash entries in pendingEvict are released
	// only when the replay lands.
	pendingWrite []store.WriteOp
	pendingEvict []int

	// Per-access scratch, reused across accesses (ORAM is single-threaded).
	// BatchServer implementations never retain the caller's slices or blocks
	// past the call, so reuse is safe — with one exception: when a path
	// write fails, evict parks its op list (and the slab backing the parked
	// blocks: slotSlab in plaintext mode, ctSlab in encrypted mode) in
	// pendingWrite for replay, so those scratches are surrendered (nil'd)
	// there and reallocated lazily on the next access.
	pathBuf  []int           // pathNodes result
	addrBuf  []int           // read-phase address list
	opBuf    []store.WriteOp // eviction write ops
	evictBuf []int           // ids placed by the current eviction
	taken    map[int]bool    // ids already placed on the current path
	placed   []int           // per-bucket placement list
	ctView   [][]byte        // read-phase OpenBatch input lens
	ptSlab   []byte          // read-phase OpenBatch output (decrypted path)
	slotSlab []byte          // eviction slot plaintext staging (both modes)
	ctSlab   []byte          // eviction SealBatch output (encrypted mode)

	maxStash   int
	roundTrips int64
	accesses   int64
}

// TreeShape returns (slots, serverBlockSize) for a Path ORAM over n records
// of plainSize bytes: a binary tree with 2^⌈lg n⌉ leaves, Z slots per
// bucket, each slot an (id ‖ posTag ‖ payload) record, encrypted unless
// disabled.
func TreeShape(n, plainSize int, opts Options) (slots, blockSize int) {
	z := opts.Z
	if z == 0 {
		z = 4
	}
	leaves := mathx.NextPow2(n)
	nodes := 2*leaves - 1
	slotPlain := slotHeader + plainSize
	bs := slotPlain
	if !opts.DisableEncryption {
		bs = crypto.CiphertextSize(slotPlain)
	}
	return nodes * z, bs
}

// Setup builds a Path ORAM holding db on the given server, which must match
// TreeShape. Every block is assigned a uniform leaf and placed greedily
// into the deepest non-full bucket on its path; overflow starts in the
// stash (rare at Z = 4).
func Setup(db *block.Database, server store.Server, opts Options) (*ORAM, error) {
	if opts.Rand == nil {
		return nil, errors.New("pathoram: Options.Rand is required")
	}
	n := db.Len()
	if n < 2 {
		return nil, fmt.Errorf("pathoram: database must hold ≥ 2 records, got %d", n)
	}
	z := opts.Z
	if z == 0 {
		z = 4
	}
	wantSlots, wantBS := TreeShape(n, db.BlockSize(), opts)
	if server.Size() != wantSlots || server.BlockSize() != wantBS {
		return nil, fmt.Errorf("pathoram: server shape (%d,%d), want (%d,%d)",
			server.Size(), server.BlockSize(), wantSlots, wantBS)
	}
	leaves := mathx.NextPow2(n)
	o := &ORAM{
		n:         n,
		z:         z,
		height:    mathx.FloorLog2(leaves),
		numLeaves: leaves,
		server:    store.AsBatch(server),
		stash:     make(map[int]stashEntry),
		src:       opts.Rand,
		plainSize: db.BlockSize(),
		slotPlain: slotHeader + db.BlockSize(),
		plaintext: opts.DisableEncryption,
	}
	pm := make(localPosMap, n)
	for i := range pm {
		pm[i] = o.src.Intn(leaves)
	}
	o.pos = pm
	if !o.plaintext {
		key := opts.Key
		if key == (crypto.Key{}) {
			k, err := crypto.NewKey()
			if err != nil {
				return nil, err
			}
			key = k
		}
		o.key = key
		o.cipher = crypto.NewCipher(key)
	}

	// Initial placement, all client-side, then one bulk upload.
	occupancy := make([][]int, 2*leaves-1) // node → block ids
	for i := 0; i < n; i++ {
		placed := false
		for _, node := range o.pathNodes(pm[i]) { // deepest first
			if len(occupancy[node]) < z {
				occupancy[node] = append(occupancy[node], i)
				placed = true
				break
			}
		}
		if !placed {
			o.stash[i] = stashEntry{pos: pm[i], data: db.Get(i).Copy()}
		}
	}
	w := store.NewBatchWriter(o.server)
	for node, ids := range occupancy {
		for zi := 0; zi < z; zi++ {
			var sl block.Block
			if zi < len(ids) {
				id := ids[zi]
				sl = o.sealSlot(node*z+zi, uint64(id), pm[id], db.Get(id))
			} else {
				sl = o.sealSlot(node*z+zi, dummyID, 0, nil)
			}
			if err := w.Add(node*z+zi, sl); err != nil {
				return nil, fmt.Errorf("pathoram: setup upload: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("pathoram: setup upload: %w", err)
	}
	o.trackStash()
	return o, nil
}

// positions snapshots the local position map; only meaningful before an
// external map replaces it (recursion construction time).
func (o *ORAM) positions() []int {
	pm, ok := o.pos.(localPosMap)
	if !ok {
		panic("pathoram: positions() after position map replacement")
	}
	return append([]int(nil), pm...)
}

// setPositionMap replaces the position map. The new map must already hold
// the same assignments as the old one; the recursion constructor guarantees
// this by building the next level from positions().
func (o *ORAM) setPositionMap(pm positionMap) { o.pos = pm }

// pathNodes returns the tree node indices on the path of leaf, ordered
// deepest (leaf bucket) to root. Node 0 is the root; node i has children
// 2i+1 and 2i+2; leaf ℓ is node numLeaves−1+ℓ. The returned slice is the
// reusable o.pathBuf scratch: valid until the next pathNodes call, which
// every caller (the setup placement loop and access) respects.
func (o *ORAM) pathNodes(leaf int) []int {
	if cap(o.pathBuf) < o.height+1 {
		o.pathBuf = make([]int, 0, o.height+1)
	}
	nodes := o.pathBuf[:0]
	node := o.numLeaves - 1 + leaf
	for {
		nodes = append(nodes, node)
		if node == 0 {
			return nodes
		}
		node = (node - 1) / 2
	}
}

// stageSlot writes the (id ‖ posTag ‖ payload) slot plaintext into pt,
// which must be exactly slotPlain bytes. A nil payload stages a dummy with
// a cleared body so stale bytes never leak into a sealed slot.
func stageSlot(pt block.Block, id uint64, pos int, payload block.Block) {
	pt.SetUint64(id)
	binary.BigEndian.PutUint32(pt[8:12], uint32(pos))
	if payload != nil {
		copy(pt[slotHeader:], payload)
	} else {
		clear(pt[slotHeader:])
	}
}

// sealSlot allocates and seals one slot bound to server address addr —
// the setup path, where the batch writer retains blocks until its flush.
func (o *ORAM) sealSlot(addr int, id uint64, pos int, payload block.Block) block.Block {
	pt := block.New(o.slotPlain)
	stageSlot(pt, id, pos, payload)
	if o.plaintext {
		return pt
	}
	return block.Block(o.cipher.Encrypt(pt, addr))
}

// ingestSlot parses a decrypted slot and moves a real, not-yet-stashed
// block into the stash. pt is a view into per-access scratch (or the read
// slab), so the payload is copied only when it is actually kept — dummies
// and already-stashed duplicates cost nothing.
func (o *ORAM) ingestSlot(pt block.Block) {
	id := pt.Uint64()
	if id == dummyID {
		return
	}
	if _, ok := o.stash[int(id)]; !ok {
		pos := int(binary.BigEndian.Uint32(pt[8:12]))
		o.stash[int(id)] = stashEntry{pos: pos, data: block.Block(pt[slotHeader:]).Copy()}
	}
}

func (o *ORAM) trackStash() {
	if len(o.stash) > o.maxStash {
		o.maxStash = len(o.stash)
	}
}

// SetIVReader replaces the cipher's IV source so seeded tests can pin the
// exact slot IVs; see crypto.Cipher.SetIVReader. No-op in plaintext mode.
// Only tests should call it.
func (o *ORAM) SetIVReader(r io.Reader) {
	if o.cipher != nil {
		o.cipher.SetIVReader(r)
	}
}

// N returns the number of logical records.
func (o *ORAM) N() int { return o.n }

// RecordSize returns the plaintext record size in bytes.
func (o *ORAM) RecordSize() int { return o.plainSize }

// Z returns the bucket size.
func (o *ORAM) Z() int { return o.z }

// Height returns the tree height (levels − 1).
func (o *ORAM) Height() int { return o.height }

// BlocksPerAccess returns the exact blocks moved per access:
// 2·Z·(height+1).
func (o *ORAM) BlocksPerAccess() int { return 2 * o.z * (o.height + 1) }

// StashSize returns the current stash occupancy.
func (o *ORAM) StashSize() int { return len(o.stash) }

// MaxStashSize returns the stash high-water mark.
func (o *ORAM) MaxStashSize() int { return o.maxStash }

// RoundTrips returns the cumulative client–server round trips (one read
// batch plus one write batch per access, plus whatever the position map
// costs in the recursive variant).
func (o *ORAM) RoundTrips() int64 { return o.roundTrips }

// Accesses returns the number of completed accesses.
func (o *ORAM) Accesses() int64 { return o.accesses }

// Read retrieves record i.
func (o *ORAM) Read(i int) (block.Block, error) {
	return o.Access(workload.Query{Index: i, Op: workload.Read})
}

// Write overwrites record i and returns the previous value.
func (o *ORAM) Write(i int, b block.Block) (block.Block, error) {
	if len(b) != o.plainSize {
		return nil, fmt.Errorf("%w: got %d want %d", block.ErrSize, len(b), o.plainSize)
	}
	return o.Access(workload.Query{Index: i, Op: workload.Write, Data: b})
}

// Access performs one Path ORAM access: remap, read the old path into the
// stash, serve the request, evict the stash back onto the path.
func (o *ORAM) Access(q workload.Query) (block.Block, error) {
	var prev block.Block
	err := o.access(q.Index, func(cur block.Block) block.Block {
		prev = cur.Copy()
		if q.Op == workload.Write {
			return q.Data.Copy()
		}
		return cur
	})
	if err != nil {
		return nil, err
	}
	return prev, nil
}

// access is the generalized read-modify-write underlying Access; the
// recursive position map uses it to update packed position blocks in one
// physical access.
func (o *ORAM) access(i int, mutate func(cur block.Block) block.Block) error {
	if i < 0 || i >= o.n {
		return fmt.Errorf("pathoram: index %d out of range [0,%d)", i, o.n)
	}
	if err := o.flushPending(); err != nil {
		return err
	}
	newLeaf := o.src.Intn(o.numLeaves)
	oldLeaf, err := o.pos.Swap(i, newLeaf)
	if err != nil {
		return err
	}
	path := o.pathNodes(oldLeaf)

	// Read phase: the whole path in one ReadBatch — now genuinely one
	// round trip on a batch-capable transport, not just one in accounting.
	addrs := o.addrBuf[:0]
	for _, node := range path {
		for zi := 0; zi < o.z; zi++ {
			addrs = append(addrs, node*o.z+zi)
		}
	}
	o.addrBuf = addrs
	// The remap already happened, but until the path is read and verified
	// the block has not left its old path: on failure, roll the position
	// back so a retry reads the right path. (For the recursive variant this
	// costs one extra map access, on the failure path only.)
	rollback := func(what string, err error) error {
		if _, rerr := o.pos.Swap(i, oldLeaf); rerr != nil {
			return fmt.Errorf("pathoram: %s: %v; position rollback failed: %w", what, err, rerr)
		}
		return fmt.Errorf("pathoram: %s: %w", what, err)
	}
	cts, err := o.server.ReadBatch(addrs)
	if err != nil {
		return rollback("path read", err)
	}
	// Open the whole path in one batch kernel call, each slot bound to its
	// address (verify-then-decrypt for every slot before any stash
	// mutation), then ingest slot by slot.
	if o.plaintext {
		for _, ct := range cts {
			o.ingestSlot(ct)
		}
	} else {
		view := o.ctView[:0]
		for _, ct := range cts {
			view = append(view, ct)
		}
		o.ctView = view
		pt, derr := o.cipher.OpenBatch(o.ptSlab[:0], view, addrs...)
		if derr != nil {
			return rollback("decrypting slot", derr)
		}
		o.ptSlab = pt
		for k := range cts {
			o.ingestSlot(block.Block(pt[k*o.slotPlain : (k+1)*o.slotPlain]))
		}
	}
	o.roundTrips++

	entry, ok := o.stash[i]
	if !ok {
		// The invariant places block i on path(oldLeaf) or in the stash, so
		// this indicates corruption.
		return fmt.Errorf("pathoram: block %d missing from path and stash", i)
	}
	entry.pos = newLeaf
	entry.data = mutate(entry.data)
	o.stash[i] = entry

	// Write phase (eviction): deepest bucket first, greedy.
	if err := o.evict(oldLeaf, path, addrs); err != nil {
		return err
	}
	o.roundTrips++
	o.accesses++
	o.trackStash()
	return nil
}

// evict writes the path back, placing each stash block into the deepest
// bucket its current position tag allows. All Z·(height+1) slot plaintexts
// are staged contiguously in the slot slab, sealed with one SealBatch
// kernel call (encrypted mode) bound to addrs — the path's slot addresses
// in the read phase's order, which is also the order slots are staged in —
// and shipped as a single WriteBatch: one round trip for the whole write
// phase. The op list, placement bookkeeping, and slabs all come from
// per-ORAM scratch; see the ownership note on the scratch fields for the
// failed-write handoff.
func (o *ORAM) evict(leaf int, path, addrs []int) error {
	total := len(path) * o.z
	ops := o.opBuf[:0]
	evicted := o.evictBuf[:0]
	if o.taken == nil {
		o.taken = make(map[int]bool, total)
	}
	clear(o.taken)
	if cap(o.slotSlab) < total*o.slotPlain {
		o.slotSlab = make([]byte, total*o.slotPlain)
	}
	slab := o.slotSlab[:total*o.slotPlain]
	for li, node := range path {
		level := o.height - li // depth of this bucket
		placed := o.placed[:0]
		for id, e := range o.stash {
			if len(placed) == o.z {
				break
			}
			if !o.taken[id] && sameAncestor(e.pos, leaf, level, o.height) {
				placed = append(placed, id)
				o.taken[id] = true
			}
		}
		o.placed = placed
		for zi := 0; zi < o.z; zi++ {
			slot := len(ops)
			pt := block.Block(slab[slot*o.slotPlain : (slot+1)*o.slotPlain : (slot+1)*o.slotPlain])
			if zi < len(placed) {
				id := placed[zi]
				e := o.stash[id]
				stageSlot(pt, uint64(id), e.pos, e.data)
				evicted = append(evicted, id)
			} else {
				stageSlot(pt, dummyID, 0, nil)
			}
			// Plaintext mode uploads the staged slot directly; encrypted mode
			// patches in the sealed view after the batch kernel below.
			ops = append(ops, store.WriteOp{Addr: node*o.z + zi, Block: pt})
		}
	}
	if !o.plaintext {
		o.ctSlab = o.cipher.SealBatch(o.ctSlab[:0], slab, total, o.slotPlain, addrs...)
		ctSize := crypto.CiphertextSize(o.slotPlain)
		for k := range ops {
			ops[k].Block = block.Block(o.ctSlab[k*ctSize : (k+1)*ctSize])
		}
	}
	o.opBuf, o.evictBuf = ops, evicted
	if err := o.server.WriteBatch(ops); err != nil {
		// The stash still holds every placed block, and the rewrite is
		// parked for replay: a failed path write must neither orphan data
		// that never reached the server nor leave stale tree copies behind
		// for a later read to resurrect. The parked ops — and the slab their
		// blocks live in (slotSlab in plaintext mode, ctSlab in encrypted
		// mode) — now belong to pendingWrite: surrender the scratches so the
		// next access cannot scribble over them.
		o.pendingWrite, o.pendingEvict = ops, evicted
		o.opBuf, o.evictBuf = nil, nil
		if o.plaintext {
			o.slotSlab = nil
		} else {
			o.ctSlab = nil
		}
		return fmt.Errorf("pathoram: path write: %w", err)
	}
	for _, id := range evicted {
		delete(o.stash, id)
	}
	for k := range ops {
		ops[k].Block = nil // don't pin sealed slots between accesses
	}
	return nil
}

// flushPending replays an interrupted path write. Replaying the full batch
// is idempotent: a partial first attempt applied a prefix of the same
// ciphertexts to the same slots.
func (o *ORAM) flushPending() error {
	if o.pendingWrite == nil {
		return nil
	}
	if err := o.server.WriteBatch(o.pendingWrite); err != nil {
		return fmt.Errorf("pathoram: replaying interrupted path write: %w", err)
	}
	o.roundTrips++
	for _, id := range o.pendingEvict {
		delete(o.stash, id)
	}
	o.pendingWrite, o.pendingEvict = nil, nil
	return nil
}

// sameAncestor reports whether leaves a and b share the ancestor at the
// given level (root = level 0) of a tree with the given height.
func sameAncestor(a, b, level, height int) bool {
	shift := uint(height - level)
	return a>>shift == b>>shift
}
