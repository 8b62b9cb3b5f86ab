package dpstore

// IV-source freeze tests: the crypto-kernel counterpart of the transcript
// freeze. The cipher builds nonces from a per-Cipher counter, but under
// SetIVReader it must draw one 12-byte nonce per sealed block from the
// injected reader, in record order, batch or not — otherwise seeded
// encrypted transcripts (and any replay tooling built on them) silently
// change meaning. The goldens pin, for a seeded encrypted run of each
// scheme:
//
//   - every server operation (read addresses, write addresses) in order,
//   - the uploaded bytes (DP-RAM, BucketRAM: full ciphertexts; Path ORAM:
//     the 12-byte nonce prefix of every slot — eviction's stash-map
//     iteration order legitimately permutes which block lands in which
//     slot, so full slot bytes are not run-deterministic, but the nonce
//     consumed by slot k of a batch is),
//   - every query's returned record bytes.
//
// The goldens were re-captured once when AES-256-GCM with the slot address
// as additional data replaced AES-CTR + HMAC-SHA256: every ciphertext byte
// and the nonce length changed, while the (op, address) sequence, the
// order of nonce draws and every returned record stayed the same — the
// transcript-freeze goldens, which hash exactly those, did not move.
//
// Setup runs before the hasher is armed (the deterministic IV reader is
// injected after Setup), so the goldens cover the steady-state access path
// — exactly the part the batched kernels rewrite.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// ivPrefixLen is the length of the nonce at the front of every ciphertext
// (see crypto.Overhead = nonce + GCM tag).
const ivPrefixLen = 12

// seededIVs is a deterministic io.Reader for SetIVReader: a 64-bit LCG
// emitting its high byte. Not random in any cryptographic sense — the
// point is exactly that the byte sequence is reproducible.
type seededIVs struct{ s uint64 }

func (r *seededIVs) Read(p []byte) (int, error) {
	for i := range p {
		r.s = r.s*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.s >> 56)
	}
	return len(p), nil
}

// ivFreezeStore is a Server+BatchServer over a Mem that feeds every
// operation — and the bytes that cross it — into one hash. Unlike
// trace.Recorder it is batch-native, so schemes execute their real batched
// shape, and it captures upload bytes, which the trace's (op, addr) view
// does not.
type ivFreezeStore struct {
	mem    *store.Mem
	h      hash.Hash
	armed  bool
	ivOnly bool // hash only the IV prefix of uploads, not full ciphertexts
}

func (s *ivFreezeStore) tag(op byte, addr int) {
	if !s.armed {
		return
	}
	var buf [9]byte
	buf[0] = op
	binary.BigEndian.PutUint64(buf[1:], uint64(addr))
	s.h.Write(buf[:])
}

func (s *ivFreezeStore) hashUpload(addr int, b block.Block) {
	if !s.armed {
		return
	}
	s.tag('W', addr)
	if s.ivOnly {
		s.h.Write(b[:ivPrefixLen])
	} else {
		s.h.Write(b)
	}
}

func (s *ivFreezeStore) Download(addr int) (block.Block, error) {
	s.tag('R', addr)
	return s.mem.Download(addr)
}

func (s *ivFreezeStore) Upload(addr int, b block.Block) error {
	s.hashUpload(addr, b)
	return s.mem.Upload(addr, b)
}

func (s *ivFreezeStore) ReadBatch(addrs []int) ([]block.Block, error) {
	for _, a := range addrs {
		s.tag('R', a)
	}
	return s.mem.ReadBatch(addrs)
}

func (s *ivFreezeStore) WriteBatch(ops []store.WriteOp) error {
	for _, op := range ops {
		s.hashUpload(op.Addr, op.Block)
	}
	return s.mem.WriteBatch(ops)
}

func (s *ivFreezeStore) Size() int      { return s.mem.Size() }
func (s *ivFreezeStore) BlockSize() int { return s.mem.BlockSize() }

// ivFrozenWorkload drives the same seeded mixed workload as frozenWorkload,
// folding the returned record bytes into the freeze hash.
func ivFrozenWorkload(t *testing.T, s *ivFreezeStore, src *rng.Source,
	access func(q workload.Query) (block.Block, error)) string {
	t.Helper()
	for k := 0; k < freezeQueries; k++ {
		q := workload.Query{Index: src.Intn(freezeN), Op: workload.Read}
		if src.Intn(4) == 0 {
			q.Op = workload.Write
			q.Data = block.Pattern(uint64(k), freezeBlockSize)
		}
		got, err := access(q)
		if err != nil {
			t.Fatal(err)
		}
		s.h.Write(got)
	}
	return hex.EncodeToString(s.h.Sum(nil))
}

type ivSetter interface{ SetIVReader(io.Reader) }

// armIVFreeze injects the deterministic IV stream and starts hashing.
func armIVFreeze(s *ivFreezeStore, c ivSetter) {
	c.SetIVReader(&seededIVs{s: 0x5eed})
	s.armed = true
}

// TestIVFreezeDPRAMEncrypted pins the encrypted DP-RAM steady state: full
// upload ciphertexts under a seeded key and IV stream.
func TestIVFreezeDPRAMEncrypted(t *testing.T) {
	const golden = "44d7967c88114da12eed052e0d880d74c927b3053e6d274b853b56da2dd42e2a"
	db, err := block.PatternDatabase(freezeN, freezeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	opts := dpram.Options{Rand: rng.New(42), Key: crypto.KeyFromSeed(7)}
	mem, err := store.NewMem(freezeN, dpram.ServerBlockSize(freezeBlockSize, opts))
	if err != nil {
		t.Fatal(err)
	}
	s := &ivFreezeStore{mem: mem, h: sha256.New()}
	c, err := dpram.Setup(db, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	armIVFreeze(s, c)
	got := ivFrozenWorkload(t, s, rng.New(1007), c.Access)
	if got != golden {
		t.Fatalf("seeded encrypted DP-RAM run drifted:\n got %s\nwant %s\n(an IV draw moved, a ciphertext byte changed, or an op reordered)", got, golden)
	}
}

// TestIVFreezePathORAMEncrypted pins the encrypted Path ORAM steady state:
// per-slot IV prefixes (see the file comment for why not full slots) plus
// addresses and returned records.
func TestIVFreezePathORAMEncrypted(t *testing.T) {
	const golden = "f99b214e4fce0aa3036b561fbe9123ecbd841c7a65c36c23872e1c92c818675a"
	db, err := block.PatternDatabase(freezeN, freezeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	opts := pathoram.Options{Rand: rng.New(42), Key: crypto.KeyFromSeed(7)}
	slots, bs := pathoram.TreeShape(freezeN, freezeBlockSize, opts)
	mem, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	s := &ivFreezeStore{mem: mem, h: sha256.New(), ivOnly: true}
	o, err := pathoram.Setup(db, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	armIVFreeze(s, o)
	got := ivFrozenWorkload(t, s, rng.New(1007), o.Access)
	if got != golden {
		t.Fatalf("seeded encrypted Path ORAM run drifted:\n got %s\nwant %s\n(an IV draw moved or an op reordered)", got, golden)
	}
}

// TestIVFreezeBucketRAMEncrypted pins the encrypted BucketRAM steady state
// (the Appendix E overwrite phase, which the batch kernels rewrite): full
// upload ciphertexts for a fixed overlapping repertoire.
func TestIVFreezeBucketRAMEncrypted(t *testing.T) {
	const golden = "a40127249000c556b8efb0624e56c415bf5ce6f71565c579d24356b35a7a1e26"
	const (
		bBuckets = 48
		bNodes   = 64
		bSize    = 3
	)
	buckets := make([][]int, bBuckets)
	for i := range buckets {
		buckets[i] = []int{i % bNodes, (i*7 + 3) % bNodes, (i*13 + 5) % bNodes}
	}
	initial := make([]block.Block, bNodes)
	for a := range initial {
		initial[a] = block.Pattern(uint64(a), freezeBlockSize)
	}
	mem, err := store.NewMem(bNodes, crypto.CiphertextSize(freezeBlockSize))
	if err != nil {
		t.Fatal(err)
	}
	s := &ivFreezeStore{mem: mem, h: sha256.New()}
	r, err := dpram.NewBucketRAM(s, buckets, initial, freezeBlockSize,
		dpram.BucketOptions{Rand: rng.New(42), Key: crypto.KeyFromSeed(7)})
	if err != nil {
		t.Fatal(err)
	}
	armIVFreeze(s, r)
	src := rng.New(1007)
	for k := 0; k < freezeQueries; k++ {
		bi := src.Intn(bBuckets)
		var update func([]block.Block)
		if src.Intn(4) == 0 {
			pat := block.Pattern(uint64(k), freezeBlockSize)
			update = func(nodes []block.Block) { copy(nodes[0], pat) }
		}
		contents, err := r.Access(bi, update)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range contents {
			s.h.Write(b)
		}
	}
	if got := hex.EncodeToString(s.h.Sum(nil)); got != golden {
		t.Fatalf("seeded encrypted BucketRAM run drifted:\n got %s\nwant %s\n(an IV draw moved, a ciphertext byte changed, or an op reordered)", got, golden)
	}
}
