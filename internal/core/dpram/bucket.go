package dpram

import (
	"fmt"
	"slices"

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
// granularity — the core Client runs, over Σ instead of the identity
// repertoire: per query, one bucket-download (the queried bucket or a
// stashed-hit decoy) followed by one bucket-download-and-upload (a random
// refresh with probability p, else the queried bucket written home).
//
// Overlap needs client-side coherence, which Appendix E sketches and the
// core implements precisely: while a bucket sits in the client stash, its
// blocks' authoritative values live in a dirty map keyed by server address
// with a reference count (several stashed buckets may share a block).
// Downloads merge server data with dirty overrides; real updates write
// through to the dirty copies of any overlapping stashed bucket.
type BucketRAM struct{ core }

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
	zero := block.New(plainSize)
	if err := r.upload(func(a int) block.Block {
		if a < len(initial) && initial[a] != nil {
			return initial[a]
		}
		return zero
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// buildBucketRAM validates the repertoire and builds the client without
// touching the server — the shared path of NewBucketRAM (which then
// uploads the initial contents) and ResumeBucketRAM (which restores over
// a server that already holds them).
func buildBucketRAM(server store.Server, buckets [][]int, plainSize int, opts BucketOptions) (*BucketRAM, error) {
	m := server.Size()
	for bi, addrs := range buckets {
		if len(addrs) == 0 || len(addrs) != len(buckets[0]) {
			return nil, fmt.Errorf("dpram: bucket %d has %d members, want a common s ≥ 1 (bucket 0 has %d)", bi, len(addrs), len(buckets[0]))
		}
		for _, a := range addrs {
			if a < 0 || a >= m {
				return nil, fmt.Errorf("dpram: bucket %d references address %d outside [0,%d)", bi, a, m)
			}
		}
	}
	r := &BucketRAM{}
	err := r.init(server, buckets, len(buckets), plainSize, Options{
		StashParam: opts.StashParam, Key: opts.Key, Rand: opts.Rand, DisableEncryption: opts.DisableEncryption,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Buckets returns the repertoire size b.
func (r *BucketRAM) Buckets() int { return r.units }

// BucketSize returns the common bucket length s.
func (r *BucketRAM) BucketSize() int { return r.size }

// ClientBlocks returns the current client storage in node blocks (the dirty
// map), i.e. the DP-RAM block stash of Theorem 7.1's accounting.
func (r *BucketRAM) ClientBlocks() int { return len(r.dirty) }

// MaxClientBlocks returns the high-water mark of client storage.
func (r *BucketRAM) MaxClientBlocks() int { return r.maxDirty }

// Access performs one bucket query, Algorithm 3 at bucket granularity. The
// update callback receives the bucket's current plaintext node blocks (one
// per member address, in bucket order) and may mutate them in place, but
// must not keep them; pass nil for a read. Access returns a copy of the
// bucket contents as seen by the query (after the update, if any).
//
// Like Client.Access, the whole query becomes one 2s-address ReadBatch
// plus one s-op WriteBatch — 2 round trips per bucket query instead of 3s,
// with the identical 3s-block transcript.
func (r *BucketRAM) Access(bi int, update func(nodes []block.Block)) ([]block.Block, error) {
	nodes, err := r.access(bi, update)
	if err != nil {
		return nil, err
	}
	buf := slices.Clone(r.pt)
	out := make([]block.Block, len(nodes))
	ps := r.plainSize
	for k := range out {
		out[k] = buf[k*ps : (k+1)*ps : (k+1)*ps]
	}
	return out, nil
}
