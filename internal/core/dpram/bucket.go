package dpram

import (
	"errors"
	"fmt"
	"io"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

// BucketRAM is the Appendix E generalization of DP-RAM: queries range over
// a repertoire Σ of b buckets, each a fixed-length list of server addresses,
// and buckets may overlap (two buckets may contain the same block). The
// server stores only the underlying node blocks once; a bucket request
// fetches the member blocks individually, so server storage does not grow
// by the bucket-size factor.
//
// The access-pattern distribution is Algorithm 3 verbatim at bucket
// granularity: per query, one bucket-download (the queried bucket or a
// stashed-hit decoy) followed by one bucket-download-and-upload (a random
// refresh with probability p, else the queried bucket written home).
//
// Overlap needs client-side coherence, which Appendix E sketches and this
// type implements precisely: while a bucket sits in the client stash, its
// blocks' authoritative values live in a dirty map keyed by server address
// with a reference count (several stashed buckets may share a block).
// Downloads merge server data with dirty overrides; real updates write
// through to the dirty copies of any overlapping stashed bucket.
type BucketRAM struct {
	server  store.BatchServer
	buckets [][]int // bucket index → member server addresses
	size    int     // common bucket length s
	c       int     // stash parameter C over buckets: p = C/b
	cipher  *crypto.Cipher
	key     crypto.Key // master key behind cipher; serialized by MarshalState
	src     *rng.Source

	stashed map[int]bool        // bucket index → in stash
	dirty   map[int]block.Block // addr → authoritative plaintext
	refcnt  map[int]int         // addr → number of stashed buckets holding it

	plainSize int
	plaintext bool
	maxDirty  int

	// Per-query scratch (BucketRAM is single-threaded): the 2s-address read
	// set and the s-op write set of one bucket query, plus the batch-kernel
	// staging slabs of the overwrite phase (plaintexts in ptSlab, sealed
	// ciphertexts in ctSlab, with ctView the [][]byte lens over a downloaded
	// bucket that OpenBatch takes). Safe to reuse across queries because
	// BatchServer implementations never retain the caller's slices or
	// blocks; op block references are cleared after each upload.
	addrScratch []int
	opScratch   []store.WriteOp
	ptSlab      []byte
	ctSlab      []byte
	ctView      [][]byte
}

// BucketOptions configures a BucketRAM.
type BucketOptions struct {
	// StashParam is C: each queried bucket is stashed with probability
	// C/len(buckets). Zero selects DefaultStashParam(len(buckets)).
	StashParam int
	// Key is the master key (zero means sample fresh).
	Key crypto.Key
	// Rand is the coin source. Required.
	Rand *rng.Source
	// DisableEncryption keeps plaintext on the server while preserving the
	// access pattern; see Options.DisableEncryption.
	DisableEncryption bool
}

// NewBucketRAM initializes the server with encryptions of the given initial
// node contents and returns the client. buckets defines Σ: every bucket
// must have the same length (pad with repeated addresses if necessary —
// Appendix E pads Π(u) the same way), and every address must be a valid
// index into nodes. initial may be nil for an all-zero store.
func NewBucketRAM(server store.Server, buckets [][]int, initial []block.Block, plainSize int, opts BucketOptions) (*BucketRAM, error) {
	r, err := buildBucketRAM(server, buckets, plainSize, opts)
	if err != nil {
		return nil, err
	}
	m := server.Size()
	zero := block.New(plainSize)
	w := store.NewBatchWriter(r.server)
	for a := 0; a < m; a++ {
		pt := zero
		if initial != nil && a < len(initial) && initial[a] != nil {
			if len(initial[a]) != plainSize {
				return nil, fmt.Errorf("dpram: initial node %d has %d bytes, want %d", a, len(initial[a]), plainSize)
			}
			pt = initial[a]
		}
		if err := w.Add(a, r.seal(pt, a)); err != nil {
			return nil, fmt.Errorf("dpram: setup upload: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("dpram: setup upload: %w", err)
	}
	return r, nil
}

// buildBucketRAM validates the repertoire and builds the client without
// touching the server — the shared path of NewBucketRAM (which then
// uploads the initial contents) and ResumeBucketRAM (which restores over
// a server that already holds them).
func buildBucketRAM(server store.Server, buckets [][]int, plainSize int, opts BucketOptions) (*BucketRAM, error) {
	if opts.Rand == nil {
		return nil, errors.New("dpram: BucketOptions.Rand is required")
	}
	b := len(buckets)
	if b < 2 {
		return nil, fmt.Errorf("dpram: repertoire must hold ≥ 2 buckets, got %d", b)
	}
	size := len(buckets[0])
	if size == 0 {
		return nil, errors.New("dpram: empty bucket in repertoire")
	}
	m := server.Size()
	for bi, addrs := range buckets {
		if len(addrs) != size {
			return nil, fmt.Errorf("dpram: bucket %d has %d members, want %d (uniform s)", bi, len(addrs), size)
		}
		for _, a := range addrs {
			if a < 0 || a >= m {
				return nil, fmt.Errorf("dpram: bucket %d references address %d outside [0,%d)", bi, a, m)
			}
		}
	}
	c := opts.StashParam
	if c == 0 {
		c = DefaultStashParam(b)
	}
	if c < 0 || c > b {
		return nil, fmt.Errorf("dpram: stash parameter %d outside [0,%d]", c, b)
	}
	wantBS := plainSize
	if !opts.DisableEncryption {
		wantBS = crypto.CiphertextSize(plainSize)
	}
	if server.BlockSize() != wantBS {
		return nil, fmt.Errorf("dpram: server block size %d, want %d", server.BlockSize(), wantBS)
	}

	r := &BucketRAM{
		server:    store.AsBatch(server),
		buckets:   buckets,
		size:      size,
		c:         c,
		src:       opts.Rand,
		stashed:   make(map[int]bool),
		dirty:     make(map[int]block.Block),
		refcnt:    make(map[int]int),
		plainSize: plainSize,
		plaintext: opts.DisableEncryption,
	}
	if !r.plaintext {
		key := opts.Key
		if key == (crypto.Key{}) {
			k, err := crypto.NewKey()
			if err != nil {
				return nil, err
			}
			key = k
		}
		r.key = key
		r.cipher = crypto.NewCipher(key)
	}
	return r, nil
}

// seal encrypts the node at address addr into a fresh owned buffer — the
// setup path, where the batch writer retains blocks until its flush.
func (r *BucketRAM) seal(b block.Block, addr int) block.Block {
	if r.plaintext {
		return b.Copy()
	}
	return block.Block(r.cipher.Encrypt(b, addr))
}

// open decrypts the node downloaded from addr into a fresh owned buffer
// (decodeBucket's contract: the returned bucket contents are handed to the
// caller and the stash).
func (r *BucketRAM) open(ct block.Block, addr int) (block.Block, error) {
	if r.plaintext {
		return ct.Copy(), nil
	}
	pt, err := r.cipher.DecryptInto(make([]byte, 0, r.plainSize), ct, addr)
	if err != nil {
		return nil, fmt.Errorf("dpram: decrypting node: %w", err)
	}
	return block.Block(pt), nil
}

// sealBucket stages s plaintext nodes contiguously in ptSlab and seals them
// with one SealBatch call into ctSlab, appending one write op per node.
// The sealed blocks are views into ctSlab, valid until the next query.
func (r *BucketRAM) sealBucket(ops []store.WriteOp, addrs []int, contents []block.Block) []store.WriteOp {
	pt := r.ptSlab[:0]
	for _, b := range contents {
		pt = append(pt, b...)
	}
	r.ptSlab = pt
	r.ctSlab = r.cipher.SealBatch(r.ctSlab[:0], pt, len(addrs), r.plainSize, addrs...)
	ctSize := crypto.CiphertextSize(r.plainSize)
	for k, a := range addrs {
		ops = append(ops, store.WriteOp{Addr: a, Block: block.Block(r.ctSlab[k*ctSize : (k+1)*ctSize])})
	}
	return ops
}

// refreshBucket opens a downloaded bucket (raw ciphertexts, in bucket
// order) with one OpenBatch call and reseals every node with fresh IVs via
// one SealBatch call — the batched masking move of Algorithm 3's stash
// branch at bucket granularity.
func (r *BucketRAM) refreshBucket(ops []store.WriteOp, addrs []int, raw []block.Block) ([]store.WriteOp, error) {
	view := r.ctView[:0]
	for _, ct := range raw {
		view = append(view, ct)
	}
	r.ctView = view
	pt, err := r.cipher.OpenBatch(r.ptSlab[:0], view, addrs...)
	if err != nil {
		return nil, fmt.Errorf("dpram: decrypting node: %w", err)
	}
	r.ptSlab = pt
	r.ctSlab = r.cipher.SealBatch(r.ctSlab[:0], pt, len(addrs), r.plainSize, addrs...)
	ctSize := crypto.CiphertextSize(r.plainSize)
	for k, a := range addrs {
		ops = append(ops, store.WriteOp{Addr: a, Block: block.Block(r.ctSlab[k*ctSize : (k+1)*ctSize])})
	}
	return ops, nil
}

// SetIVReader replaces the cipher's IV source; see Client.SetIVReader.
// No-op in plaintext mode. Only tests should call it.
func (r *BucketRAM) SetIVReader(rd io.Reader) {
	if r.cipher != nil {
		r.cipher.SetIVReader(rd)
	}
}

// Buckets returns the repertoire size b.
func (r *BucketRAM) Buckets() int { return len(r.buckets) }

// BucketSize returns the common bucket length s.
func (r *BucketRAM) BucketSize() int { return r.size }

// StashProb returns p = C/b.
func (r *BucketRAM) StashProb() float64 { return float64(r.c) / float64(len(r.buckets)) }

// ClientBlocks returns the current client storage in node blocks (the dirty
// map), i.e. the DP-RAM block stash of Theorem 7.1's accounting.
func (r *BucketRAM) ClientBlocks() int { return len(r.dirty) }

// MaxClientBlocks returns the high-water mark of client storage.
func (r *BucketRAM) MaxClientBlocks() int { return r.maxDirty }

// decodeBucket turns the raw ciphertexts of bucket bi (as fetched by a
// ReadBatch over its member addresses) into plaintexts with dirty
// overrides applied.
func (r *BucketRAM) decodeBucket(bi int, raw []block.Block) ([]block.Block, error) {
	addrs := r.buckets[bi]
	out := make([]block.Block, len(addrs))
	for k, a := range addrs {
		if d, ok := r.dirty[a]; ok {
			out[k] = d.Copy()
			continue
		}
		pt, err := r.open(raw[k], a)
		if err != nil {
			return nil, err
		}
		out[k] = pt
	}
	return out, nil
}

// readFromStash returns copies of bucket bi's authoritative stash
// contents without releasing its dirty-map claims.
func (r *BucketRAM) readFromStash(bi int) []block.Block {
	addrs := r.buckets[bi]
	out := make([]block.Block, len(addrs))
	for k, a := range addrs {
		out[k] = r.dirty[a].Copy()
	}
	return out
}

// takeFromStash removes bucket bi from the stash, releasing its dirty-map
// claims. Called only after the bucket's contents are safely back on the
// server.
func (r *BucketRAM) takeFromStash(bi int) {
	delete(r.stashed, bi)
	for _, a := range r.buckets[bi] {
		r.refcnt[a]--
		if r.refcnt[a] <= 0 {
			delete(r.refcnt, a)
			delete(r.dirty, a)
		}
	}
}

// putInStash inserts bucket bi with the given contents, claiming its
// addresses in the dirty map.
func (r *BucketRAM) putInStash(bi int, contents []block.Block) {
	addrs := r.buckets[bi]
	r.stashed[bi] = true
	for k, a := range addrs {
		r.refcnt[a]++
		r.dirty[a] = contents[k].Copy()
	}
	if len(r.dirty) > r.maxDirty {
		r.maxDirty = len(r.dirty)
	}
}

// writeThrough updates the authoritative dirty copies (if any) for the
// addresses of bucket bi with the new contents, keeping overlapping stashed
// buckets coherent after a real update.
func (r *BucketRAM) writeThrough(bi int, contents []block.Block) {
	for k, a := range r.buckets[bi] {
		if _, ok := r.dirty[a]; ok {
			r.dirty[a] = contents[k].Copy()
		}
	}
}

// Access performs one bucket query, Algorithm 3 at bucket granularity. The
// update callback receives the bucket's current plaintext node blocks (one
// per member address, in bucket order) and may mutate them in place; pass
// nil for a read. Access returns the bucket contents as seen by the query
// (after the update, if any).
//
// Like Client.Access, the query's address sets depend only on client coins,
// so they are sampled first (in Algorithm 3's draw order) and the whole
// query becomes one 2s-address ReadBatch plus one s-op WriteBatch — 2
// round trips per bucket query instead of 3s, with the identical 3s-block
// transcript.
func (r *BucketRAM) Access(bi int, update func(nodes []block.Block)) ([]block.Block, error) {
	if bi < 0 || bi >= len(r.buckets) {
		return nil, fmt.Errorf("dpram: bucket %d out of range [0,%d)", bi, len(r.buckets))
	}
	b := len(r.buckets)

	// --- Coins ---
	stashedHit := r.stashed[bi]
	d1 := bi
	if stashedHit {
		d1 = r.src.Intn(b) // decoy bucket; its blocks are discarded
	}
	toStash := r.src.Intn(b) < r.c
	d2 := bi // non-stash branch: re-read the queried bucket before writing it home
	if toStash {
		d2 = r.src.Intn(b) // stash branch: refresh a random bucket
	}

	// --- Download phase (both buckets, one round trip) ---
	s := r.size
	addrs := append(r.addrScratch[:0], r.buckets[d1]...)
	addrs = append(addrs, r.buckets[d2]...)
	r.addrScratch = addrs
	raw, err := r.server.ReadBatch(addrs)
	if err != nil {
		return nil, fmt.Errorf("dpram: bucket download: %w", err)
	}

	var contents []block.Block
	if stashedHit {
		contents = r.readFromStash(bi) // claims released only after the write lands
	} else {
		got, err := r.decodeBucket(bi, raw[:s])
		if err != nil {
			return nil, err
		}
		contents = got
	}

	if update != nil {
		update(contents)
	}

	// --- Overwrite phase (one round trip) ---
	// Every node this query opens is opened before the stash or the dirty
	// map changes, so a node that fails to open leaves both as they were.
	ops := r.opScratch[:0]
	if toStash {
		// Refresh bucket d2: re-encrypt the server's own blocks with fresh
		// randomness — one OpenBatch + one SealBatch over all s nodes, the
		// masking move of Algorithm 3's stash branch. In the plaintext mode
		// re-encryption is the identity and the slab blocks (owned by this
		// query) are uploaded as-is.
		if r.plaintext {
			for k, a := range r.buckets[d2] {
				ops = append(ops, store.WriteOp{Addr: a, Block: raw[s+k]})
			}
		} else {
			var err error
			ops, err = r.refreshBucket(ops, r.buckets[d2], raw[s:s+s])
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Write the queried bucket home in one SealBatch; the second read of
		// it above was the transcript-shaping re-read and is discarded.
		if r.plaintext {
			for k, a := range r.buckets[bi] {
				ops = append(ops, store.WriteOp{Addr: a, Block: contents[k].Copy()})
			}
		} else {
			ops = r.sealBucket(ops, r.buckets[bi], contents)
		}
	}
	if update != nil {
		// Coherence: overlapping stashed buckets (and, on a stash hit, this
		// bucket's own stashed copy) must observe the update.
		r.writeThrough(bi, contents)
	}
	if toStash && !stashedHit {
		r.putInStash(bi, contents)
	}
	r.opScratch = ops
	err = r.server.WriteBatch(ops)
	for k := range ops {
		ops[k].Block = nil // don't pin sealed blocks between queries
	}
	if err != nil {
		// On a stash hit the bucket is still stashed with current contents:
		// a failed overwrite must not orphan the authoritative copy.
		return nil, fmt.Errorf("dpram: bucket upload: %w", err)
	}
	if !toStash && stashedHit {
		// The bucket is now safely home on the server; release its stash
		// claims only after the write landed.
		r.takeFromStash(bi)
	}
	return contents, nil
}
