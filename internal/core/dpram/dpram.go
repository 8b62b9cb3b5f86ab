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
//
// Client and BucketRAM run one implementation of Algorithm 3 (core.go),
// over the identity repertoire and over Appendix E's buckets respectively.
package dpram

import (
	"errors"
	"fmt"
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

// Client is a DP-RAM client: the core over the identity repertoire, where
// record i is server address i. It is not safe for concurrent use: like
// the paper's client, it is a single stateful party.
type Client struct{ core }

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
	n := db.Len()
	if server.Size() != n {
		return nil, fmt.Errorf("dpram: server size %d != database size %d", server.Size(), n)
	}
	cl := &Client{}
	if err := cl.init(server, nil, n, db.BlockSize(), opts); err != nil {
		return nil, err
	}
	if err := cl.upload(db.Get); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		// Algorithm 2: pick r uniform from [N]; if r ≤ C, stash B_i.
		if cl.src.Intn(n) < cl.c {
			cl.claim(i, []block.Block{db.Get(i)})
		}
	}
	return cl, nil
}

// N returns the number of records.
func (c *Client) N() int { return c.units }

// RecordSize returns the plaintext record size in bytes.
func (c *Client) RecordSize() int { return c.plainSize }

// StashParam returns the configured C.
func (c *Client) StashParam() int { return c.c }

// StashSize returns the current number of stashed records (client storage
// in blocks, excluding the constant-size working set of one query).
func (c *Client) StashSize() int { return len(c.dirty) }

// MaxStashSize returns the high-water mark of the stash since setup.
func (c *Client) MaxStashSize() int { return c.maxDirty }

// EpsUpperBound returns the ε certified by the Theorem 6.1 proof for this
// configuration.
func (c *Client) EpsUpperBound() float64 {
	return privacy.DPRAMEpsUpperBound(c.units, c.StashProb())
}

// Read retrieves the current value of record i.
func (c *Client) Read(i int) (block.Block, error) {
	return c.Access(workload.Query{Index: i, Op: workload.Read})
}

// Write overwrites record i with b and returns the previous value.
func (c *Client) Write(i int, b block.Block) (block.Block, error) {
	return c.Access(workload.Query{Index: i, Op: workload.Write, Data: b})
}

// Access runs DP-RAM.Query (Algorithm 3) for q and returns the record value
// after applying the operation for reads, or the previous value for writes.
// A query the client cannot run — an index out of range, a write in
// retrieval-only mode or of the wrong size — is rejected before any coin
// is drawn or any address is touched.
func (c *Client) Access(q workload.Query) (block.Block, error) {
	write := q.Op == workload.Write
	if write && c.retrievalOnly {
		return nil, errors.New("dpram: write rejected in retrieval-only mode")
	}
	if write && len(q.Data) != c.plainSize {
		return nil, fmt.Errorf("%w: got %d want %d", block.ErrSize, len(q.Data), c.plainSize)
	}
	var prev block.Block
	if _, err := c.access(q.Index, func(nodes []block.Block) {
		prev = nodes[0].Copy()
		if write {
			copy(nodes[0], q.Data)
		}
	}); err != nil {
		return nil, err
	}
	return prev, nil
}
