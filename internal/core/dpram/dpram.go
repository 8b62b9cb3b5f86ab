// Package dpram implements the errorless differentially private RAM of
// Section 6 of the paper (Algorithms 2 and 3 in Appendix H), plus the
// bucket-generalized variant of Appendix E that DP-KVS builds on.
//
// The construction: the server holds an array A of n independently
// encrypted records. The client keeps a stash in which each record lives
// independently with probability p = C/n. A query for record i runs two
// phases, each touching exactly one server address:
//
//	Download phase — if i is stashed, download a uniformly random address
//	(a decoy) and serve i from the stash; otherwise download A[i].
//
//	Overwrite phase — with probability p, put the (possibly updated) record
//	into the stash and refresh a uniformly random address (download,
//	re-encrypt, upload); otherwise download A[i] again and upload a fresh
//	encryption of the current record to A[i].
//
// Every query therefore costs exactly 2 downloads + 1 upload and 2
// round trips, independent of n. Theorem 6.1 proves the transcript
// distribution is ε-DP with ε = O(log n) when p ≤ Φ(n)/n for any
// Φ(n) = ω(log n), and Lemma D.1 bounds the stash by O(Φ(n)) except with
// negligible probability.
package dpram

import (
	"errors"
	"fmt"
	"io"
	"math"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/privacy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// DefaultStashParam returns the paper-recommended stash parameter
// C = Φ(n) = ⌈lg n · lg lg n⌉, which is ω(log n) as Theorem 6.1 requires
// while keeping expected client storage tiny. Floored at 4 for small n.
func DefaultStashParam(n int) int {
	if n < 4 {
		return 4
	}
	lg := math.Log2(float64(n))
	c := int(math.Ceil(lg * math.Log2(lg)))
	if c < 4 {
		c = 4
	}
	if c > n {
		c = n
	}
	return c
}

// Options configures a DP-RAM client.
type Options struct {
	// StashParam is the integer C of Algorithms 2–3: each record enters the
	// stash with probability p = C/n. Zero selects DefaultStashParam(n).
	StashParam int
	// Key is the client's master key. The zero key means "sample a fresh
	// random key at setup".
	Key crypto.Key
	// Rand is the client's coin source. Required.
	Rand *rng.Source
	// RetrievalOnly enables the unencrypted read-only mode discussed at the
	// end of Section 6: the server stores public plaintext, the overwrite
	// phase is skipped entirely (1 download per query, no uploads), and
	// privacy holds against computationally unbounded adversaries. Write
	// calls are rejected.
	RetrievalOnly bool
	// DisableEncryption stores plaintext while keeping the exact access
	// pattern of the encrypted scheme. It exists for the empirical privacy
	// estimator, which needs millions of queries and only ever inspects
	// addresses (Definition 2.1's view excludes ciphertext contents under
	// the IND-CPA reduction). Never use it to store private data with
	// overwrites.
	DisableEncryption bool
}

// Client is a DP-RAM client. It is not safe for concurrent use: like the
// paper's client, it is a single stateful party.
type Client struct {
	server    store.BatchServer
	n         int
	plainSize int
	c         int // stash parameter C; p = C/n
	cipher    *crypto.Cipher
	key       crypto.Key // master key behind cipher; serialized by MarshalState
	stash     map[int]block.Block
	src       *rng.Source

	retrievalOnly bool
	plaintext     bool

	// Per-query scratch (the client is single-threaded by contract): the
	// two-address read set and the single-op write set of Algorithm 3, plus
	// the decrypt/encrypt staging slabs of the crypto kernels. BatchServer
	// implementations never retain the caller's slices or blocks past the
	// call (Durable copies ops up front before handing them to its
	// committer), so reusing these across queries is safe; the op's block
	// reference is cleared after each upload so the scratch never pins a
	// sealed block. A block handed out past a query (stash insertion, the
	// returned previous value) is always copied out of the scratch first.
	addrBuf [2]int
	opBuf   [1]store.WriteOp
	ptBuf   []byte // plaintext staging: open/refresh decrypt target
	sealBuf []byte // ciphertext staging: the overwrite upload

	maxStash int

	// state is the slice the last MarshalState returned while the stash
	// and maxStash have not changed since; nil once either has. Every
	// stash mutation goes through stashPut/stashDrop (or RestoreState),
	// which drop it, and a rebuild always allocates a new slice, so a
	// slice once returned is never written again.
	state []byte
}

// ServerBlockSize returns the server slot size a DP-RAM over records of
// plainSize bytes requires under the given options (ciphertext expansion
// unless encryption is off).
func ServerBlockSize(plainSize int, opts Options) int {
	if opts.RetrievalOnly || opts.DisableEncryption {
		return plainSize
	}
	return crypto.CiphertextSize(plainSize)
}

// Setup runs DP-RAM.Setup (Algorithm 2): it encrypts the database record by
// record into the server and populates the stash by independent p-coins.
// The server must be empty with Size() == db.Len() and
// BlockSize() == ServerBlockSize(db.BlockSize(), opts).
func Setup(db *block.Database, server store.Server, opts Options) (*Client, error) {
	if opts.Rand == nil {
		return nil, errors.New("dpram: Options.Rand is required")
	}
	n := db.Len()
	if n < 2 {
		return nil, fmt.Errorf("dpram: database must hold ≥ 2 records, got %d", n)
	}
	c := opts.StashParam
	if c == 0 {
		c = DefaultStashParam(n)
	}
	if c < 0 || c > n {
		return nil, fmt.Errorf("dpram: stash parameter %d outside [0,%d]", c, n)
	}
	if server.Size() != n {
		return nil, fmt.Errorf("dpram: server size %d != database size %d", server.Size(), n)
	}
	wantBS := ServerBlockSize(db.BlockSize(), opts)
	if server.BlockSize() != wantBS {
		return nil, fmt.Errorf("dpram: server block size %d, want %d", server.BlockSize(), wantBS)
	}

	cl := &Client{
		server:        store.AsBatch(server),
		n:             n,
		plainSize:     db.BlockSize(),
		c:             c,
		stash:         make(map[int]block.Block),
		src:           opts.Rand,
		retrievalOnly: opts.RetrievalOnly,
		plaintext:     opts.RetrievalOnly || opts.DisableEncryption,
	}
	if !cl.plaintext {
		key := opts.Key
		if key == (crypto.Key{}) {
			k, err := crypto.NewKey()
			if err != nil {
				return nil, err
			}
			key = k
		}
		cl.key = key
		cl.cipher = crypto.NewCipher(key)
	}

	// Encrypt and upload in bounded windows: one round trip per
	// store.ScanWindow records, O(window) client memory at any n.
	w := store.NewBatchWriter(cl.server)
	for i := 0; i < n; i++ {
		if err := w.Add(i, cl.seal(db.Get(i), i)); err != nil {
			return nil, fmt.Errorf("dpram: setup upload: %w", err)
		}
		// Algorithm 2: pick r uniform from [N]; if r ≤ C, stash B_i.
		if cl.src.Intn(n) < c {
			cl.stash[i] = db.Get(i).Copy()
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("dpram: setup upload: %w", err)
	}
	cl.trackStash()
	return cl, nil
}

// seal encrypts b for address addr into a fresh buffer — the setup path,
// where the batch writer retains blocks until its flush.
func (c *Client) seal(b block.Block, addr int) block.Block {
	if c.plaintext {
		return b.Copy()
	}
	return block.Block(c.cipher.Encrypt(b, addr))
}

// sealScratch encrypts b for address addr into the per-query upload
// scratch, valid until the next seal on this client. The write batch it
// feeds is issued before the next query touches the scratch.
func (c *Client) sealScratch(b block.Block, addr int) block.Block {
	if c.plaintext {
		return b.Copy()
	}
	c.sealBuf = c.cipher.EncryptInto(c.sealBuf[:0], b, addr)
	return block.Block(c.sealBuf)
}

// refresh re-encrypts the block downloaded from addr for upload back to
// addr with fresh randomness (the masking move of Algorithm 3's stash
// branch), staging both halves in the per-query scratch. In the plaintext
// modes re-encryption is the identity, and the downloaded slab block —
// owned by this query — is uploaded as-is, skipping the decrypt/encrypt
// copies on the measurement hot path.
func (c *Client) refresh(ct block.Block, addr int) (block.Block, error) {
	if c.plaintext {
		return ct, nil
	}
	pt, err := c.cipher.DecryptInto(c.ptBuf[:0], ct, addr)
	if err != nil {
		return nil, fmt.Errorf("dpram: decrypting: %w", err)
	}
	c.ptBuf = pt
	c.sealBuf = c.cipher.EncryptInto(c.sealBuf[:0], pt, addr)
	return block.Block(c.sealBuf), nil
}

// open decrypts the block downloaded from addr into the per-query scratch;
// the result is valid until the next open/refresh on this client, and
// callers that keep it (stash insertion) copy it out first. The plaintext
// modes return an owned copy — retrieval-only stashes the opened block
// directly.
func (c *Client) open(ct block.Block, addr int) (block.Block, error) {
	if c.plaintext {
		return ct.Copy(), nil
	}
	pt, err := c.cipher.DecryptInto(c.ptBuf[:0], ct, addr)
	if err != nil {
		return nil, fmt.Errorf("dpram: decrypting: %w", err)
	}
	c.ptBuf = pt
	return block.Block(pt), nil
}

func (c *Client) trackStash() {
	if len(c.stash) > c.maxStash {
		c.maxStash = len(c.stash)
	}
}

// stashPut makes b record i's stash entry and drops the cached state.
func (c *Client) stashPut(i int, b block.Block) {
	c.stash[i] = b
	c.state = nil
	c.trackStash()
}

// stashDrop removes record i's stash entry and drops the cached state.
func (c *Client) stashDrop(i int) {
	delete(c.stash, i)
	c.state = nil
}

// SetIVReader replaces the cipher's IV source so seeded tests can pin the
// exact upload bytes; see crypto.Cipher.SetIVReader. No-op in the plaintext
// modes. Only tests should call it.
func (c *Client) SetIVReader(r io.Reader) {
	if c.cipher != nil {
		c.cipher.SetIVReader(r)
	}
}

// N returns the number of records.
func (c *Client) N() int { return c.n }

// RecordSize returns the plaintext record size in bytes.
func (c *Client) RecordSize() int { return c.plainSize }

// StashParam returns the configured C.
func (c *Client) StashParam() int { return c.c }

// StashProb returns p = C/n.
func (c *Client) StashProb() float64 { return float64(c.c) / float64(c.n) }

// StashSize returns the current number of stashed records (client storage
// in blocks, excluding the constant-size working set of one query).
func (c *Client) StashSize() int { return len(c.stash) }

// MaxStashSize returns the high-water mark of the stash since setup.
func (c *Client) MaxStashSize() int { return c.maxStash }

// EpsUpperBound returns the ε certified by the Theorem 6.1 proof for this
// configuration.
func (c *Client) EpsUpperBound() float64 {
	return privacy.DPRAMEpsUpperBound(c.n, c.StashProb())
}

// Read retrieves the current value of record i.
func (c *Client) Read(i int) (block.Block, error) {
	return c.Access(workload.Query{Index: i, Op: workload.Read})
}

// Write overwrites record i with b and returns the previous value.
func (c *Client) Write(i int, b block.Block) (block.Block, error) {
	if len(b) != c.plainSize {
		return nil, fmt.Errorf("%w: got %d want %d", block.ErrSize, len(b), c.plainSize)
	}
	return c.Access(workload.Query{Index: i, Op: workload.Write, Data: b})
}

// Access runs DP-RAM.Query (Algorithm 3) for q and returns the record value
// after applying the operation for reads, or the previous value for writes.
//
// Both phases' addresses are functions of the client's coins alone (never
// of server data), so the coins are flipped up front — in exactly the draw
// order Algorithm 3 specifies, keeping seeded transcripts bit-identical to
// the per-block execution — and the whole query runs as one two-address
// ReadBatch followed by one single-op WriteBatch: 2 server round trips
// instead of 3, still exactly 2 downloads + 1 upload of accounting.
func (c *Client) Access(q workload.Query) (block.Block, error) {
	i := q.Index
	if i < 0 || i >= c.n {
		return nil, fmt.Errorf("dpram: index %d out of range [0,%d)", i, c.n)
	}
	if q.Op == workload.Write && c.retrievalOnly {
		return nil, errors.New("dpram: write rejected in retrieval-only mode")
	}

	// --- Coins of the download phase ---
	stashed, hit := c.stash[i]
	d1 := i
	if hit {
		d1 = c.src.Intn(c.n) // decoy; the downloaded block is discarded
	}
	// --- Coins of the overwrite phase ---
	// Retrieval-only mode (Section 6, "Discussion about encryption") skips
	// the overwrite phase wholesale; its stash coin is flipped after the
	// download, below, preserving Algorithm 3's draw order.
	var toStash bool
	d2 := i // non-stash branch: re-download A[i] (discarded) before writing home
	c.addrBuf[0] = d1
	addrs := c.addrBuf[:1]
	if !c.retrievalOnly {
		toStash = c.src.Intn(c.n) < c.c
		if toStash {
			d2 = c.src.Intn(c.n) // stash branch: refresh a random address
		}
		c.addrBuf[1] = d2
		addrs = c.addrBuf[:2]
	}

	// --- Download phase: one round trip ---
	blocks, err := c.server.ReadBatch(addrs)
	if err != nil {
		// The stash entry (if any) is still intact: a failed access must
		// not destroy the only authoritative copy of a stashed record.
		return nil, fmt.Errorf("dpram: download: %w", err)
	}
	// owned tracks whether cur may outlive this query's scratch: stash
	// entries and fresh copies are owned; an encrypted open returns a view
	// of c.ptBuf, which refresh below will reuse.
	cur, owned := stashed, true
	if !hit {
		pt, err := c.open(blocks[0], d1)
		if err != nil {
			return nil, err
		}
		cur, owned = pt, c.plaintext
	}
	prev := cur.Copy()
	if q.Op == workload.Write {
		cur, owned = q.Data.Copy(), true
	}

	if c.retrievalOnly {
		// The stash coin is still flipped client-side so the per-record
		// stash law stays Bernoulli(p), preserving the download-phase
		// distribution across queries.
		if hit {
			c.stashDrop(i)
		}
		if c.src.Intn(c.n) < c.c {
			c.stashPut(i, cur)
		}
		return prev, nil
	}

	// --- Overwrite phase: one upload in one round trip ---
	if toStash {
		// Refresh the random address to mask the choice, then stash the
		// record (overwriting the old entry on a stash hit). The refresh
		// opens d2 first, so a block that fails to open leaves the stash
		// untouched. The stash keeps blocks past the query, so a
		// scratch-backed cur is copied out before refresh reuses the
		// decrypt scratch.
		if !owned {
			cur = cur.Copy()
		}
		fresh, err := c.refresh(blocks[1], d2)
		if err != nil {
			return nil, err
		}
		c.stashPut(i, cur)
		c.opBuf[0] = store.WriteOp{Addr: d2, Block: fresh}
	} else {
		// Write the record home; the second downloaded block was the
		// transcript-shaping re-read of A[i] and is discarded.
		c.opBuf[0] = store.WriteOp{Addr: i, Block: c.sealScratch(cur, i)}
	}
	err = c.server.WriteBatch(c.opBuf[:])
	c.opBuf[0] = store.WriteOp{}
	if err != nil {
		// On a stash hit the entry is still present (old value, or the new
		// one if the stash branch already replaced it): a failed overwrite
		// must not orphan the only authoritative copy.
		return nil, fmt.Errorf("dpram: overwrite upload: %w", err)
	}
	if !toStash && hit {
		// The record is now safely home on the server; release the stash
		// entry only after the write landed.
		c.stashDrop(i)
	}
	return prev, nil
}
