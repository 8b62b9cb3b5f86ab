// Client-state serialization for DP-RAM and BucketRAM.
//
// The client (stash, master key, dirty set) is one half of the scheme; the
// encrypted array on the server is the other. A restartable deployment —
// the durable proxy of internal/proxy, checkpointing through the
// write-ahead engine of internal/store — must persist both halves
// consistently: MarshalState captures the client half at an access
// boundary, RestoreState/Resume rebuild it over a server that already
// holds the matching array. The format is versioned binary (big-endian,
// magic-tagged); integrity is the storage layer's job (the proxy journal
// CRC-frames every checkpoint), so no checksum is repeated here.
//
// The coin source is deliberately NOT serialized: every query's address
// distribution is independent of past coins (fresh Bernoulli and uniform
// draws), so a resumed client with a fresh seed has exactly the
// transcript distribution Theorem 6.1 analyzes — and the recovery
// obliviousness regression pins that the resumed trace *shape* is
// identical to an uninterrupted run.
package dpram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/statecodec"
	"dpstore/internal/store"
)

// State-format magics. Bumping a format means a new magic; readers reject
// what they do not know rather than guessing.
var (
	clientStateMagic = [8]byte{'D', 'P', 'R', 'A', 'M', 'S', 'T', '1'}
	bucketStateMagic = [8]byte{'B', 'K', 'R', 'A', 'M', 'S', 'T', '1'}
)

// ErrState reports client-state bytes that cannot be restored (wrong
// magic, truncated, or inconsistent with the construction's shape).
var ErrState = errors.New("dpram: invalid client state")

const (
	stFlagRetrievalOnly = 1 << 0
	stFlagPlaintext     = 1 << 1
)

// MarshalState serializes the client's private state: shape parameters,
// master key, the stash (for a BucketRAM: the stashed buckets, then the
// dirty map with its reference counts), and the stash high-water mark. The
// bytes are sensitive (they contain the key and plaintext records) and
// belong on the trusted side only — the proxy's journal, never the block
// server. The repertoire of a BucketRAM is configuration, not state —
// ResumeBucketRAM takes it as an argument, exactly like NewBucketRAM.
//
// The returned slice is never written again, by the client or (by
// contract) by the caller. While the state is unchanged, MarshalState
// returns that same slice without re-encoding it — Algorithm 3 changes
// the stash on ≈ 2p of accesses, so a checkpoint after most accesses
// costs nothing here, and proxy.Journal recognises the slice without
// reading it.
func (c *core) MarshalState() ([]byte, error) {
	if c.state == nil {
		c.state = c.encodeState()
	}
	return c.state, nil
}

// encodeState builds a fresh encoding of the client's private state:
// DPRAMST1 under the identity repertoire, BKRAMST1 over buckets.
func (c *core) encodeState() []byte {
	bucket := c.buckets != nil
	addrs := slices.Sorted(maps.Keys(c.dirty))
	out := make([]byte, 0, 64+len(c.stashed)*8+len(addrs)*(8+4+c.plainSize))
	if bucket {
		out = append(out, bucketStateMagic[:]...)
		out = binary.BigEndian.AppendUint64(out, uint64(c.units))
		out = binary.BigEndian.AppendUint32(out, uint32(c.size))
		out = binary.BigEndian.AppendUint32(out, uint32(c.c))
		out = binary.BigEndian.AppendUint32(out, uint32(c.plainSize))
	} else {
		out = append(out, clientStateMagic[:]...)
		out = binary.BigEndian.AppendUint64(out, uint64(c.units))
		out = binary.BigEndian.AppendUint32(out, uint32(c.plainSize))
		out = binary.BigEndian.AppendUint32(out, uint32(c.c))
	}
	var flags byte
	if c.retrievalOnly {
		flags |= stFlagRetrievalOnly
	}
	if c.plaintext {
		flags |= stFlagPlaintext
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(c.maxDirty))
	out = append(out, c.key[:]...)
	if bucket {
		stashed := slices.Sorted(maps.Keys(c.stashed))
		out = binary.BigEndian.AppendUint32(out, uint32(len(stashed)))
		for _, u := range stashed {
			out = binary.BigEndian.AppendUint64(out, uint64(u))
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(addrs)))
	for _, a := range addrs {
		out = binary.BigEndian.AppendUint64(out, uint64(a))
		if bucket {
			out = binary.BigEndian.AppendUint32(out, uint32(c.refcnt[a]))
		}
		out = append(out, c.dirty[a]...)
	}
	return out
}

// decodeState parses a BKRAMST1 (bucket) or DPRAMST1 state into the
// core fields it carries, checking what the bytes alone can show; install
// checks them against a client. A DPRAMST1 stash entry for record i is
// unit i holding address i.
func decodeState(data []byte, bucket bool) (*core, error) {
	r := statecodec.NewReader(data)
	magic := clientStateMagic
	if bucket {
		magic = bucketStateMagic
	}
	if !r.Magic(magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrState)
	}
	st := &core{size: 1, stashed: map[int]bool{}, dirty: map[int]block.Block{}, refcnt: map[int]int{}}
	st.units = int(r.U64())
	if bucket {
		st.size, st.c, st.plainSize = int(r.U32()), int(r.U32()), int(r.U32())
	} else {
		st.plainSize, st.c = int(r.U32()), int(r.U32())
	}
	flags := r.U8()
	st.retrievalOnly = flags&stFlagRetrievalOnly != 0
	st.plaintext = flags&stFlagPlaintext != 0
	st.maxDirty = int(r.U32())
	copy(st.key[:], r.Bytes(crypto.KeySize))
	if r.Err() == nil && (st.units < 2 || st.size <= 0 || st.plainSize <= 0) {
		return nil, fmt.Errorf("%w: implausible shape units=%d s=%d recordSize=%d", ErrState, st.units, st.size, st.plainSize)
	}
	if bucket {
		count := int(r.U32())
		for j := 0; j < count && r.Err() == nil; j++ {
			u := int(r.U64())
			if r.Err() == nil && (u < 0 || u >= st.units) {
				return nil, fmt.Errorf("%w: stashed bucket %d outside [0,%d)", ErrState, u, st.units)
			}
			st.stashed[u] = true
		}
	}
	count := int(r.U32())
	for j := 0; j < count && r.Err() == nil; j++ {
		a, refs := int(r.U64()), 1
		if bucket {
			refs = int(r.U32())
		} else {
			st.stashed[a] = true
		}
		b := r.Bytes(st.plainSize)
		if r.Err() == nil && (a < 0 || refs <= 0) {
			return nil, fmt.Errorf("%w: stash entry for address %d with %d references", ErrState, a, refs)
		}
		st.dirty[a], st.refcnt[a] = block.Block(b).Copy(), refs
	}
	if err := r.Drained(); err != nil {
		return nil, err
	}
	return st, nil
}

// RestoreState replaces the client's private state with a snapshot
// produced by MarshalState on a client of the identical configuration. The
// server must already hold the array the snapshot was taken against — this
// is a state transplant, not a setup.
func (c *core) RestoreState(data []byte) error {
	st, err := decodeState(data, c.buckets != nil)
	if err != nil {
		return err
	}
	return c.install(st)
}

// install checks decoded state against the client's shape and makes it
// the client's state.
func (c *core) install(st *core) error {
	if st.units != c.units || st.size != c.size || st.c != c.c || st.plainSize != c.plainSize ||
		st.retrievalOnly != c.retrievalOnly || st.plaintext != c.plaintext {
		return fmt.Errorf("%w: snapshot shape (units=%d s=%d C=%d rec=%d ro=%v pt=%v) does not match client (units=%d s=%d C=%d rec=%d ro=%v pt=%v)",
			ErrState, st.units, st.size, st.c, st.plainSize, st.retrievalOnly, st.plaintext,
			c.units, c.size, c.c, c.plainSize, c.retrievalOnly, c.plaintext)
	}
	for a := range st.dirty {
		if a >= c.server.Size() {
			return fmt.Errorf("%w: stash entry for address %d outside [0,%d)", ErrState, a, c.server.Size())
		}
	}
	c.stashed, c.dirty, c.refcnt, c.maxDirty = st.stashed, st.dirty, st.refcnt, st.maxDirty
	c.state = nil
	c.setKey(st.key)
	return nil
}

// Resume rebuilds a DP-RAM client from a MarshalState snapshot over a
// server that already holds the matching encrypted array (for example, a
// crash-recovered store.Durable). Nothing is uploaded. Options supply the
// coin source (required) and mode flags, which must match the snapshot;
// Options.Key and StashParam are taken from the snapshot.
func Resume(server store.Server, state []byte, opts Options) (*Client, error) {
	st, err := decodeState(state, false)
	if err != nil {
		return nil, err
	}
	if opts.RetrievalOnly != st.retrievalOnly || (opts.RetrievalOnly || opts.DisableEncryption) != st.plaintext {
		return nil, fmt.Errorf("%w: snapshot mode (retrieval-only=%v plaintext=%v) does not match the options", ErrState, st.retrievalOnly, st.plaintext)
	}
	if server.Size() != st.units {
		return nil, fmt.Errorf("dpram: server size %d != snapshot size %d", server.Size(), st.units)
	}
	opts.StashParam, opts.Key = st.c, st.key
	cl := &Client{}
	if err := cl.init(server, nil, st.units, st.plainSize, opts); err != nil {
		return nil, err
	}
	if err := cl.install(st); err != nil {
		return nil, err
	}
	return cl, nil
}

// ResumeBucketRAM rebuilds a BucketRAM from a MarshalState snapshot over a
// server that already holds the node array. The repertoire and options
// must match the original construction; nothing is uploaded.
func ResumeBucketRAM(server store.Server, buckets [][]int, plainSize int, state []byte, opts BucketOptions) (*BucketRAM, error) {
	r, err := buildBucketRAM(server, buckets, plainSize, opts)
	if err != nil {
		return nil, err
	}
	if err := r.RestoreState(state); err != nil {
		return nil, err
	}
	return r, nil
}
