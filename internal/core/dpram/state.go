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
	"sort"

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
// master key, stash contents, and the stash high-water mark. The bytes are
// sensitive (they contain the key and plaintext records) and belong on the
// trusted side only — the proxy's journal, never the block server.
//
// The returned slice is never written again, by the client or (by
// contract) by the caller. While the state is unchanged, MarshalState
// returns that same slice without re-encoding it — Algorithm 3 changes
// the stash on ≈ 2p of accesses, so a checkpoint after most accesses
// costs nothing here, and proxy.Journal recognises the slice without
// reading it.
func (c *Client) MarshalState() ([]byte, error) {
	if c.state == nil {
		c.state = c.encodeState()
	}
	return c.state, nil
}

// encodeState builds a fresh encoding of the client's private state.
func (c *Client) encodeState() []byte {
	idxs := make([]int, 0, len(c.stash))
	for i := range c.stash {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	size := 8 + 8 + 4 + 4 + 1 + 4 + crypto.KeySize + 4 + len(idxs)*(8+c.plainSize)
	out := make([]byte, 0, size)
	out = append(out, clientStateMagic[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(c.n))
	out = binary.BigEndian.AppendUint32(out, uint32(c.plainSize))
	out = binary.BigEndian.AppendUint32(out, uint32(c.c))
	var flags byte
	if c.retrievalOnly {
		flags |= stFlagRetrievalOnly
	}
	if c.plaintext {
		flags |= stFlagPlaintext
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(c.maxStash))
	out = append(out, c.key[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(idxs)))
	for _, i := range idxs {
		out = binary.BigEndian.AppendUint64(out, uint64(i))
		out = append(out, c.stash[i]...)
	}
	return out
}

// clientState is the decoded form of MarshalState's output.
type clientState struct {
	n, plainSize, c int
	retrievalOnly   bool
	plaintext       bool
	maxStash        int
	key             crypto.Key
	stash           map[int]block.Block
}

func decodeClientState(data []byte) (*clientState, error) {
	r := statecodec.NewReader(data)
	if !r.Magic(clientStateMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrState)
	}
	st := &clientState{}
	st.n = int(r.U64())
	st.plainSize = int(r.U32())
	st.c = int(r.U32())
	flags := r.U8()
	st.retrievalOnly = flags&stFlagRetrievalOnly != 0
	st.plaintext = flags&stFlagPlaintext != 0
	st.maxStash = int(r.U32())
	copy(st.key[:], r.Bytes(crypto.KeySize))
	count := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if st.n < 2 || st.plainSize <= 0 || count < 0 || count > st.n {
		return nil, fmt.Errorf("%w: implausible shape n=%d recordSize=%d stash=%d", ErrState, st.n, st.plainSize, count)
	}
	st.stash = make(map[int]block.Block, count)
	for j := 0; j < count; j++ {
		i := int(r.U64())
		b := r.Bytes(st.plainSize)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if i < 0 || i >= st.n {
			return nil, fmt.Errorf("%w: stash index %d outside [0,%d)", ErrState, i, st.n)
		}
		st.stash[i] = block.Block(b).Copy()
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
func (c *Client) RestoreState(data []byte) error {
	st, err := decodeClientState(data)
	if err != nil {
		return err
	}
	if st.n != c.n || st.plainSize != c.plainSize || st.c != c.c ||
		st.retrievalOnly != c.retrievalOnly || st.plaintext != c.plaintext {
		return fmt.Errorf("%w: snapshot shape (n=%d rec=%d C=%d ro=%v pt=%v) does not match client (n=%d rec=%d C=%d ro=%v pt=%v)",
			ErrState, st.n, st.plainSize, st.c, st.retrievalOnly, st.plaintext,
			c.n, c.plainSize, c.c, c.retrievalOnly, c.plaintext)
	}
	c.stash = st.stash
	c.maxStash = st.maxStash
	c.state = nil
	c.key = st.key
	if !c.plaintext {
		c.cipher = crypto.NewCipher(st.key)
	}
	return nil
}

// Resume rebuilds a DP-RAM client from a MarshalState snapshot over a
// server that already holds the matching encrypted array (for example, a
// crash-recovered store.Durable). Nothing is uploaded. Options supply the
// coin source (required) and mode flags, which must match the snapshot;
// Options.Key and StashParam are taken from the snapshot.
func Resume(server store.Server, state []byte, opts Options) (*Client, error) {
	if opts.Rand == nil {
		return nil, errors.New("dpram: Options.Rand is required")
	}
	st, err := decodeClientState(state)
	if err != nil {
		return nil, err
	}
	if opts.RetrievalOnly != st.retrievalOnly {
		return nil, fmt.Errorf("%w: snapshot retrieval-only=%v, options say %v", ErrState, st.retrievalOnly, opts.RetrievalOnly)
	}
	if plaintext := opts.RetrievalOnly || opts.DisableEncryption; plaintext != st.plaintext {
		return nil, fmt.Errorf("%w: snapshot plaintext=%v, options say %v", ErrState, st.plaintext, plaintext)
	}
	if server.Size() != st.n {
		return nil, fmt.Errorf("dpram: server size %d != snapshot size %d", server.Size(), st.n)
	}
	wantBS := ServerBlockSize(st.plainSize, opts)
	if server.BlockSize() != wantBS {
		return nil, fmt.Errorf("dpram: server block size %d, want %d", server.BlockSize(), wantBS)
	}
	cl := &Client{
		server:        store.AsBatch(server),
		n:             st.n,
		plainSize:     st.plainSize,
		c:             st.c,
		stash:         st.stash,
		src:           opts.Rand,
		retrievalOnly: st.retrievalOnly,
		plaintext:     st.plaintext,
		maxStash:      st.maxStash,
		key:           st.key,
	}
	if !cl.plaintext {
		cl.cipher = crypto.NewCipher(st.key)
	}
	return cl, nil
}

// --- BucketRAM ---------------------------------------------------------------

// MarshalState serializes the BucketRAM client: stash membership, the
// dirty map with its reference counts, key, and high-water mark. The
// repertoire Σ itself is configuration, not state — ResumeBucketRAM takes
// it as an argument, exactly like NewBucketRAM.
func (r *BucketRAM) MarshalState() ([]byte, error) {
	stashed := make([]int, 0, len(r.stashed))
	for bi := range r.stashed {
		stashed = append(stashed, bi)
	}
	sort.Ints(stashed)
	addrs := make([]int, 0, len(r.dirty))
	for a := range r.dirty {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)

	out := make([]byte, 0, 64+len(stashed)*8+len(addrs)*(8+4+r.plainSize))
	out = append(out, bucketStateMagic[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(r.buckets)))
	out = binary.BigEndian.AppendUint32(out, uint32(r.size))
	out = binary.BigEndian.AppendUint32(out, uint32(r.c))
	out = binary.BigEndian.AppendUint32(out, uint32(r.plainSize))
	var flags byte
	if r.plaintext {
		flags |= stFlagPlaintext
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(r.maxDirty))
	out = append(out, r.key[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(stashed)))
	for _, bi := range stashed {
		out = binary.BigEndian.AppendUint64(out, uint64(bi))
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(addrs)))
	for _, a := range addrs {
		out = binary.BigEndian.AppendUint64(out, uint64(a))
		out = binary.BigEndian.AppendUint32(out, uint32(r.refcnt[a]))
		out = append(out, r.dirty[a]...)
	}
	return out, nil
}

// RestoreState replaces the client's private state with a MarshalState
// snapshot from an identically configured BucketRAM.
func (r *BucketRAM) RestoreState(data []byte) error {
	rd := statecodec.NewReader(data)
	if !rd.Magic(bucketStateMagic) {
		return fmt.Errorf("%w: bad magic", ErrState)
	}
	b := int(rd.U64())
	size := int(rd.U32())
	c := int(rd.U32())
	plainSize := int(rd.U32())
	flags := rd.U8()
	maxDirty := int(rd.U32())
	var key crypto.Key
	copy(key[:], rd.Bytes(crypto.KeySize))
	if rd.Err() != nil {
		return rd.Err()
	}
	if b != len(r.buckets) || size != r.size || c != r.c || plainSize != r.plainSize ||
		(flags&stFlagPlaintext != 0) != r.plaintext {
		return fmt.Errorf("%w: snapshot shape (b=%d s=%d C=%d rec=%d) does not match client (b=%d s=%d C=%d rec=%d)",
			ErrState, b, size, c, plainSize, len(r.buckets), r.size, r.c, r.plainSize)
	}
	stashedCount := int(rd.U32())
	if rd.Err() != nil || stashedCount < 0 || stashedCount > b {
		return fmt.Errorf("%w: stashed bucket count %d", ErrState, stashedCount)
	}
	stashed := make(map[int]bool, stashedCount)
	for j := 0; j < stashedCount; j++ {
		bi := int(rd.U64())
		if rd.Err() != nil || bi < 0 || bi >= b {
			return fmt.Errorf("%w: stashed bucket %d", ErrState, bi)
		}
		stashed[bi] = true
	}
	dirtyCount := int(rd.U32())
	if rd.Err() != nil || dirtyCount < 0 {
		return fmt.Errorf("%w: dirty count %d", ErrState, dirtyCount)
	}
	dirty := make(map[int]block.Block, dirtyCount)
	refcnt := make(map[int]int, dirtyCount)
	for j := 0; j < dirtyCount; j++ {
		a := int(rd.U64())
		cnt := int(rd.U32())
		data := rd.Bytes(plainSize)
		if rd.Err() != nil {
			return rd.Err()
		}
		if a < 0 || a >= r.server.Size() || cnt <= 0 {
			return fmt.Errorf("%w: dirty entry addr=%d (server size %d) refcnt=%d", ErrState, a, r.server.Size(), cnt)
		}
		dirty[a] = block.Block(data).Copy()
		refcnt[a] = cnt
	}
	if err := rd.Drained(); err != nil {
		return err
	}
	r.stashed = stashed
	r.dirty = dirty
	r.refcnt = refcnt
	r.maxDirty = maxDirty
	r.key = key
	if !r.plaintext {
		r.cipher = crypto.NewCipher(key)
	}
	return nil
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
