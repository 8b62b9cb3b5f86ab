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

// core is Algorithm 3 over a repertoire of units, each a list of s server
// addresses. Client runs it over the identity repertoire (unit i is
// address i, s = 1, with no slice per unit); BucketRAM over the buckets of
// Appendix E, which may overlap.
//
// The stash is one representation for both: the stashed units, plus the
// authoritative plaintext of every address a stashed unit holds (dirty),
// with the number of stashed units holding it (refcnt). Downloads merge
// server data with dirty values; an update writes through to the dirty
// copies of any overlapping stashed unit. Only claim, release, writeThrough
// and install change the stash, and each drops the cached encoding.
type core struct {
	server    store.BatchServer
	buckets   [][]int // unit → addresses; nil for the identity repertoire
	units     int     // number of units: n records or b buckets
	size      int     // addresses per unit s
	c         int     // stash parameter C; p = C/units
	plainSize int
	cipher    *crypto.Cipher // nil in the plaintext modes
	key       crypto.Key     // master key behind cipher; serialized by MarshalState
	src       *rng.Source

	retrievalOnly bool
	plaintext     bool

	stashed  map[int]bool        // unit → in stash
	dirty    map[int]block.Block // address → authoritative plaintext
	refcnt   map[int]int         // address → stashed units holding it
	maxDirty int                 // high-water mark of len(dirty)

	// state is the slice the last MarshalState returned while the stash
	// and maxDirty have not changed since; nil once either has. A rebuild
	// always allocates a new slice, so a slice once returned is never
	// written again.
	state []byte

	// Per-query scratch (the client is single-threaded by contract). The
	// BatchServer implementations never retain the caller's slices or
	// blocks past the call, so reusing these across queries is safe; op
	// block references are cleared after each upload. A block handed out
	// past a query (stash insertion, a returned value) is always copied
	// out of the scratch first.
	self  [1]int          // the identity repertoire's unit
	addrs []int           // the 2s-address read set
	ops   []store.WriteOp // the s-op write set
	nodes []block.Block   // the queried unit's nodes: views into pt
	pt    []byte          // the queried unit's plaintext
	fresh []byte          // the refreshed unit's plaintext
	ct    []byte          // the sealed upload
}

// init validates what every construction shares and builds the core with
// an empty stash, generating a key if the options carry none.
func (c *core) init(server store.Server, buckets [][]int, units, plainSize int, opts Options) error {
	if opts.Rand == nil {
		return errors.New("dpram: Options.Rand is required")
	}
	if units < 2 {
		return fmt.Errorf("dpram: need ≥ 2 records or buckets, got %d", units)
	}
	stashParam := opts.StashParam
	if stashParam == 0 {
		stashParam = DefaultStashParam(units)
	}
	if stashParam < 0 || stashParam > units {
		return fmt.Errorf("dpram: stash parameter %d outside [0,%d]", stashParam, units)
	}
	if want := ServerBlockSize(plainSize, opts); server.BlockSize() != want {
		return fmt.Errorf("dpram: server block size %d, want %d", server.BlockSize(), want)
	}
	*c = core{
		server:        store.AsBatch(server),
		buckets:       buckets,
		units:         units,
		size:          1,
		c:             stashParam,
		plainSize:     plainSize,
		src:           opts.Rand,
		retrievalOnly: opts.RetrievalOnly,
		plaintext:     opts.RetrievalOnly || opts.DisableEncryption,
		stashed:       make(map[int]bool),
		dirty:         make(map[int]block.Block),
		refcnt:        make(map[int]int),
	}
	if buckets != nil {
		c.size = len(buckets[0])
	}
	if !c.plaintext {
		key := opts.Key
		if key == (crypto.Key{}) {
			k, err := crypto.NewKey()
			if err != nil {
				return err
			}
			key = k
		}
		c.setKey(key)
	}
	return nil
}

func (c *core) setKey(key crypto.Key) {
	c.key = key
	if !c.plaintext {
		c.cipher = crypto.NewCipher(key)
	}
}

// unit returns the server addresses of unit u. Under the identity
// repertoire that is a view of c.self, valid until the next call.
func (c *core) unit(u int) []int {
	if c.buckets == nil {
		c.self[0] = u
		return c.self[:]
	}
	return c.buckets[u]
}

// upload seals node(a), which must be one record long, for every server
// address a, in order, through a bounded batch writer: one round trip per
// store.ScanWindow nodes and O(window) client memory at any size. The
// writer keeps blocks until it flushes, so each is sealed into a fresh
// buffer.
func (c *core) upload(node func(a int) block.Block) error {
	w := store.NewBatchWriter(c.server)
	for a := 0; a < c.server.Size(); a++ {
		b := node(a)
		if len(b) != c.plainSize {
			return fmt.Errorf("dpram: initial node %d has %d bytes, want %d", a, len(b), c.plainSize)
		}
		if c.plaintext {
			b = b.Copy()
		} else {
			b = c.cipher.Encrypt(b, a)
		}
		if err := w.Add(a, b); err != nil {
			return fmt.Errorf("dpram: setup upload: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("dpram: setup upload: %w", err)
	}
	return nil
}

// SetIVReader replaces the cipher's IV source so seeded tests can pin the
// exact upload bytes; see crypto.Cipher.SetIVReader. No-op in the plaintext
// modes. Only tests should call it.
func (c *core) SetIVReader(r io.Reader) {
	if c.cipher != nil {
		c.cipher.SetIVReader(r)
	}
}

// StashProb returns p = C/n for a Client and C/b for a BucketRAM: the
// probability that a query leaves its record or bucket in the stash.
func (c *core) StashProb() float64 { return float64(c.c) / float64(c.units) }

// access runs Algorithm 3 for unit u. update, if non-nil, receives the
// unit's plaintext nodes in unit order and may change them in place; it
// must not keep them. access returns the nodes after the update, as views
// into the scratch that are valid until the next query.
//
// The query's addresses are functions of the client's coins alone (never
// of server data), so the coins are flipped up front — in exactly the draw
// order Algorithm 3 specifies, keeping seeded transcripts bit-identical to
// the per-block execution — and the whole query runs as one 2s-address
// ReadBatch followed by one s-op WriteBatch: 2 server round trips, still
// exactly 2s downloads + s uploads of accounting. The stash changes only
// after the write has landed, so a failed access — at the download, at an
// open, or at the upload — leaves it as it was: it may hold the only
// current copy of a unit.
func (c *core) access(u int, update func(nodes []block.Block)) ([]block.Block, error) {
	if u < 0 || u >= c.units {
		return nil, fmt.Errorf("dpram: index %d out of range [0,%d)", u, c.units)
	}
	// --- Coins of the download phase ---
	hit := c.stashed[u]
	d1 := u
	if hit {
		d1 = c.src.Intn(c.units) // decoy; the downloaded blocks are discarded
	}
	// --- Coins of the overwrite phase ---
	// Retrieval-only mode (Section 6, "Discussion about encryption") skips
	// the overwrite phase wholesale; its stash coin is flipped after the
	// download, below, preserving Algorithm 3's draw order.
	toStash := false
	d2 := u // non-stash branch: re-download u (discarded) before writing it home
	addrs := append(c.addrs[:0], c.unit(d1)...)
	if !c.retrievalOnly {
		toStash = c.src.Intn(c.units) < c.c
		if toStash {
			d2 = c.src.Intn(c.units) // stash branch: refresh a random unit
		}
		addrs = append(addrs, c.unit(d2)...)
	}
	c.addrs = addrs

	// --- Download phase: one round trip ---
	raw, err := c.server.ReadBatch(addrs)
	if err != nil {
		return nil, fmt.Errorf("dpram: download: %w", err)
	}
	// On a stash hit every node of u is dirty, so the decoy is never opened.
	pt, err := c.openUnit(c.pt[:0], u, raw[:c.size], true)
	if err != nil {
		return nil, err
	}
	c.pt = pt
	ps := c.plainSize
	nodes := c.nodes[:0]
	for k := range c.size {
		nodes = append(nodes, block.Block(pt[k*ps:(k+1)*ps:(k+1)*ps]))
	}
	c.nodes = nodes
	if update != nil {
		update(nodes)
	}

	if c.retrievalOnly {
		// The stash coin is still flipped client-side so the per-record
		// stash law stays Bernoulli(p), preserving the download-phase
		// distribution across queries.
		if hit {
			c.release(u)
		}
		if c.src.Intn(c.units) < c.c {
			c.claim(u, nodes)
		}
		return nodes, nil
	}

	// --- Overwrite phase: one upload in one round trip ---
	var ops []store.WriteOp
	if toStash {
		// Refresh unit d2 — the server's own blocks, re-encrypted with
		// fresh IVs — to mask the choice; u enters the stash once the
		// refresh has landed.
		fresh, err := c.openUnit(c.fresh[:0], d2, raw[c.size:], false)
		if err != nil {
			return nil, err
		}
		c.fresh = fresh
		ops = c.seal(d2, fresh)
	} else {
		// Write u home; the second download was the transcript-shaping
		// re-read of it and is discarded.
		ops = c.seal(u, pt)
	}
	err = c.server.WriteBatch(ops)
	clear(ops) // don't pin sealed blocks between queries
	if err != nil {
		return nil, fmt.Errorf("dpram: overwrite upload: %w", err)
	}
	if update != nil {
		// Coherence: overlapping stashed units (and, on a stash hit, this
		// unit's own stashed copy) must observe the update.
		c.writeThrough(u, nodes)
	}
	switch {
	case toStash && !hit:
		c.claim(u, nodes)
	case !toStash && hit:
		c.release(u) // the unit is home on the server now
	}
	return nodes, nil
}

// openUnit appends the plaintext of unit u's nodes to dst: each opened
// from raw, the blocks downloaded from u's addresses, unless merge is set
// and a stashed unit holds the node's authoritative value in the dirty map.
func (c *core) openUnit(dst []byte, u int, raw []block.Block, merge bool) ([]byte, error) {
	for k, a := range c.unit(u) {
		if d, ok := c.dirty[a]; ok && merge {
			dst = append(dst, d...)
			continue
		}
		if c.plaintext {
			dst = append(dst, raw[k]...)
			continue
		}
		var err error
		if dst, err = c.cipher.DecryptInto(dst, raw[k], a); err != nil {
			return nil, fmt.Errorf("dpram: decrypting: %w", err)
		}
	}
	return dst, nil
}

// seal encrypts unit u's plaintext (its s nodes, contiguous in pt) node by
// node into the upload scratch and returns the write set.
func (c *core) seal(u int, pt []byte) []store.WriteOp {
	addrs := c.unit(u)
	ps := c.plainSize
	ct := c.ct[:0]
	for k, a := range addrs {
		if c.plaintext {
			ct = append(ct, pt[k*ps:(k+1)*ps]...)
		} else {
			ct = c.cipher.EncryptInto(ct, pt[k*ps:(k+1)*ps], a)
		}
	}
	c.ct = ct
	cs := len(ct) / len(addrs)
	ops := c.ops[:0]
	for k, a := range addrs {
		ops = append(ops, store.WriteOp{Addr: a, Block: block.Block(ct[k*cs : (k+1)*cs])})
	}
	c.ops = ops
	return ops
}

// claim stashes unit u with the given contents, claiming its addresses in
// the dirty map.
func (c *core) claim(u int, nodes []block.Block) {
	c.stashed[u] = true
	for k, a := range c.unit(u) {
		c.refcnt[a]++
		c.dirty[a] = nodes[k].Copy()
	}
	c.maxDirty = max(c.maxDirty, len(c.dirty))
	c.state = nil
}

// release removes unit u from the stash, dropping the dirty value of every
// address no other stashed unit holds.
func (c *core) release(u int) {
	delete(c.stashed, u)
	for _, a := range c.unit(u) {
		c.refcnt[a]--
		if c.refcnt[a] <= 0 {
			delete(c.refcnt, a)
			delete(c.dirty, a)
		}
	}
	c.state = nil
}

// writeThrough copies unit u's updated contents over the dirty values of
// its addresses that a stashed unit holds, dropping the cached encoding
// only if a value changed.
func (c *core) writeThrough(u int, nodes []block.Block) {
	for k, a := range c.unit(u) {
		if d, ok := c.dirty[a]; ok && !d.Equal(nodes[k]) {
			copy(d, nodes[k])
			c.state = nil
		}
	}
}
