// Package crypto provides the two cryptographic tools the paper's
// constructions assume: an IND-CPA symmetric encryption scheme (Enc, Dec)
// for DP-RAM's block array (Section 6), and a pseudorandom function F for
// the mapping function Π(u) = {F(key1, u), F(key2, u)} of the oblivious
// two-choice hashing scheme (Section 7.2).
//
// The concrete instantiations are stdlib-only:
//
//   - Enc/Dec: AES-256-GCM with a 12-byte counter nonce and the record's
//     physical slot address as additional data. GCM with unique nonces is
//     IND-CPA; its tag additionally gives ciphertext integrity, which the
//     paper does not need but any deployment would, and binding the slot
//     address makes a block served from the wrong slot fail to open.
//   - PRF: HMAC-SHA256 truncated to 64 bits.
//
// The privacy proofs only use that re-encryptions of the same plaintext are
// indistinguishable from encryptions of zeros; both hold here.
//
// # Kernel layer
//
// The schemes are crypto-bound (a Path ORAM access seals and opens
// Z·(height+1) blocks), so this package is built as a batched,
// allocation-free kernel layer:
//
//   - The AES-256 key schedule and GHASH key are expanded once in
//     NewCipher, and the PRF's HMAC pads are keyed once per pooled state.
//   - EncryptInto/DecryptInto/SealBatch/OpenBatch append into
//     caller-provided slabs. Ownership follows the store-layer slab rule:
//     the returned slice (re)uses the caller's backing array, and the
//     caller must not hand out sub-slices it plans to overwrite while
//     consumers hold them.
//   - Nonces are a per-Cipher random 96-bit start plus an atomic counter
//     instead of a crypto/rand read per block (see nextNonce for the
//     uniqueness argument). SetIVReader still overrides the source for
//     seeded tests.
//   - SealBatch/OpenBatch run every record inline: one Path ORAM path of
//     GCM records seals faster than a goroutine handoff costs.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// KeySize is the master key length in bytes. The AES-256 key and every
	// PRF key are derived from it via domain-separated HMAC, so 32 bytes of
	// entropy suffice.
	KeySize   = 32
	nonceSize = 12
	tagSize   = 16
	adSize    = 8
	// Overhead is the ciphertext expansion in bytes: nonce plus GCM tag.
	Overhead = nonceSize + tagSize
)

// ErrAuth reports a ciphertext whose tag did not verify: tampered,
// truncated past its tag, sealed under another key, or opened at an
// address other than the one it was sealed for.
var ErrAuth = errors.New("crypto: message authentication failed")

// Key is a client-held master secret.
type Key [KeySize]byte

// NewKey samples a fresh key from crypto/rand.
func NewKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: sampling key: %w", err)
	}
	return k, nil
}

// KeyFromSeed derives a key deterministically from a seed. Experiments use
// it for reproducibility; production callers should use NewKey.
func KeyFromSeed(seed uint64) Key {
	var k Key
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seed)
	mac := hmac.New(sha256.New, []byte("dpstore/key-from-seed"))
	mac.Write(s[:])
	copy(k[:], mac.Sum(nil))
	return k
}

// derive produces a 32-byte subkey of k for the given domain label.
func derive(k Key, label string) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// Cipher is the (Enc, Dec) pair of Section 6: AES-256-GCM whose additional
// data is the record's slot address. The AEAD is built once at
// construction; the 8-byte address scratch comes from an internal pool,
// because a stack array passed through the cipher.AEAD interface escapes
// to the heap. A Cipher is safe for concurrent use and allocation-free on
// the *Into and batch paths.
type Cipher struct {
	aead cipher.AEAD
	ads  sync.Pool // *[adSize]byte

	// Nonce state: nonce = start + ctr (mod 2⁹⁶), big-endian, where start
	// is drawn at random per instance and ctr advances by one per seal.
	startHi uint32
	startLo uint64
	ctr     atomic.Uint64
	// ivOverride, when set, supplies raw 12-byte nonces instead; tests use
	// it to pin seeded transcripts.
	ivOverride io.Reader
}

// NewCipher builds a Cipher from a master key, expanding the AES-GCM key
// schedule once and drawing a fresh random 96-bit nonce start. Every
// NewCipher call — including Resume paths, key rotation and partitions,
// which always construct their own Cipher — gets an independent start;
// DESIGN.md §"Crypto kernels" bounds the chance that two instances' nonce
// ranges overlap.
func NewCipher(k Key) *Cipher {
	blk, err := aes.NewCipher(derive(k, "dpstore/enc"))
	if err != nil {
		// aes.NewCipher fails only on an invalid key length, and derive
		// always returns 32 bytes.
		panic("crypto: aes.NewCipher rejected a derived 32-byte key: " + err.Error())
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		panic("crypto: cipher.NewGCM rejected AES: " + err.Error())
	}
	c := &Cipher{aead: aead}
	c.ads.New = func() any { return new([adSize]byte) }
	var s [nonceSize]byte
	rand.Read(s[:]) // never fails (crypto/rand aborts the process instead)
	c.startHi = binary.BigEndian.Uint32(s[:4])
	c.startLo = binary.BigEndian.Uint64(s[4:])
	return c
}

// SetIVReader replaces the nonce source with raw 12-byte reads from r.
// Only tests should call it: it trades the counter's uniqueness guarantee
// for reproducibility. Records draw their nonces in record order, batch or
// not, and a read failure panics (a misconfigured test, not a runtime
// condition).
func (c *Cipher) SetIVReader(r io.Reader) { c.ivOverride = r }

// CiphertextSize returns the ciphertext length for a plaintext of the given
// length.
func CiphertextSize(plaintextLen int) int { return plaintextLen + Overhead }

// nextNonce writes the nonce of the next seal into nonce[:nonceSize].
//
// The nonce is start + ctr (mod 2⁹⁶) in big-endian, where ctr is this
// instance's atomic seal counter. Within one instance the nonces are
// therefore distinct until ctr wraps at 2⁶⁴ seals; across instances under
// one key they collide only if two random starts land within one
// instance's seal count of each other.
func (c *Cipher) nextNonce(nonce []byte) {
	if r := c.ivOverride; r != nil {
		if _, err := io.ReadFull(r, nonce[:nonceSize]); err != nil {
			panic("crypto: test IV reader failed: " + err.Error())
		}
		return
	}
	ctr := c.ctr.Add(1) - 1
	lo := c.startLo + ctr
	hi := c.startHi
	if lo < ctr {
		hi++ // carry out of the low 64 bits; the high 32 wrap mod 2³²
	}
	binary.BigEndian.PutUint32(nonce[:4], hi)
	binary.BigEndian.PutUint64(nonce[4:nonceSize], lo)
}

// sealTo writes nonce ‖ GCM(pt, ad) into out, which must be exactly
// CiphertextSize(len(pt)) bytes.
func (c *Cipher) sealTo(ad *[adSize]byte, out, pt []byte, addr int) {
	binary.BigEndian.PutUint64(ad[:], uint64(addr))
	c.nextNonce(out[:nonceSize])
	c.aead.Seal(out[nonceSize:nonceSize], out[:nonceSize], pt, ad[:])
}

// openTo verifies ct against addr and decrypts its payload into dst, which
// must be exactly len(ct)-Overhead bytes. GCM checks the tag before it
// releases any plaintext.
func (c *Cipher) openTo(ad *[adSize]byte, dst, ct []byte, addr int) error {
	if len(ct) < Overhead {
		return fmt.Errorf("crypto: ciphertext too short (%d bytes)", len(ct))
	}
	binary.BigEndian.PutUint64(ad[:], uint64(addr))
	if _, err := c.aead.Open(dst[:0], ct[:nonceSize], ct[nonceSize:], ad[:]); err != nil {
		return ErrAuth
	}
	return nil
}

// EncryptInto appends the encryption of plaintext, bound to slot address
// addr, to dst and returns the extended slice, allocating only if dst lacks
// capacity. Each call draws a fresh nonce, so re-encrypting the same block
// yields an independent-looking ciphertext — the property DP-RAM's
// overwrite phase relies on.
func (c *Cipher) EncryptInto(dst, plaintext []byte, addr int) []byte {
	n := len(dst)
	ctSize := CiphertextSize(len(plaintext))
	dst = slices.Grow(dst, ctSize)[:n+ctSize]
	ad := c.ads.Get().(*[adSize]byte)
	c.sealTo(ad, dst[n:], plaintext, addr)
	c.ads.Put(ad)
	return dst
}

// Encrypt returns nonce ‖ GCM(plaintext, addr) in a fresh buffer.
func (c *Cipher) Encrypt(plaintext []byte, addr int) []byte {
	return c.EncryptInto(make([]byte, 0, CiphertextSize(len(plaintext))), plaintext, addr)
}

// DecryptInto verifies that ct was sealed for slot address addr and
// appends its plaintext to dst, returning the extended slice. On failure
// dst is returned at its original length with nothing appended.
func (c *Cipher) DecryptInto(dst, ct []byte, addr int) ([]byte, error) {
	if len(ct) < Overhead {
		return dst, fmt.Errorf("crypto: ciphertext too short (%d bytes)", len(ct))
	}
	n := len(dst)
	pn := len(ct) - Overhead
	grown := slices.Grow(dst, pn)[:n+pn]
	ad := c.ads.Get().(*[adSize]byte)
	err := c.openTo(ad, grown[n:], ct, addr)
	c.ads.Put(ad)
	if err != nil {
		return dst, err
	}
	return grown, nil
}

// Decrypt verifies and opens a ciphertext produced by Encrypt for addr.
func (c *Cipher) Decrypt(ct []byte, addr int) ([]byte, error) {
	if len(ct) < Overhead {
		return nil, fmt.Errorf("crypto: ciphertext too short (%d bytes)", len(ct))
	}
	out, err := c.DecryptInto(make([]byte, 0, len(ct)-Overhead), ct, addr)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkAddrs panics unless a batch of count records names no addresses or
// exactly one per record — a caller bug, not a property of server data.
func checkAddrs(addrs []int, count int) {
	if len(addrs) != 0 && len(addrs) != count {
		panic(fmt.Sprintf("crypto: batch of %d records with %d addresses", count, len(addrs)))
	}
}

// slotAddr returns the address record k of a batch is bound to: addrs[k],
// or k itself when the caller passed no addresses.
func slotAddr(addrs []int, k int) int {
	if len(addrs) == 0 {
		return k
	}
	return addrs[k]
}

// SealBatch encrypts count records of recSize bytes laid out contiguously
// in src (len(src) == count·recSize) and appends their ciphertexts to dst,
// contiguous in record order. Record k is bound to addrs[k]; with no addrs
// it is bound to k. The result is byte-identical to count EncryptInto calls
// in order when the nonce source is overridden, and nonce-unique
// regardless.
func (c *Cipher) SealBatch(dst, src []byte, count, recSize int, addrs ...int) []byte {
	if count < 0 || recSize < 0 || count*recSize != len(src) {
		panic(fmt.Sprintf("crypto: SealBatch of %d×%d over %d bytes", count, recSize, len(src)))
	}
	if count == 0 {
		return dst
	}
	checkAddrs(addrs, count)
	obsSealBatch.Record(int64(count))
	ctSize := CiphertextSize(recSize)
	n := len(dst)
	dst = slices.Grow(dst, count*ctSize)[:n+count*ctSize]
	out := dst[n:]
	ad := c.ads.Get().(*[adSize]byte)
	for k := 0; k < count; k++ {
		c.sealTo(ad, out[k*ctSize:(k+1)*ctSize], src[k*recSize:(k+1)*recSize], slotAddr(addrs, k))
	}
	c.ads.Put(ad)
	return dst
}

// OpenBatch verifies and decrypts a batch of equal-length ciphertexts,
// record k against addrs[k] (or k with no addrs), appending the plaintexts
// to dst contiguous in record order. On failure dst is returned at its
// original length and the error names the lowest-index bad record.
func (c *Cipher) OpenBatch(dst []byte, cts [][]byte, addrs ...int) ([]byte, error) {
	count := len(cts)
	if count == 0 {
		return dst, nil
	}
	checkAddrs(addrs, count)
	obsOpenBatch.Record(int64(count))
	ctSize := len(cts[0])
	if ctSize < Overhead {
		return dst, fmt.Errorf("crypto: batch record 0: ciphertext too short (%d bytes)", ctSize)
	}
	for k, ct := range cts {
		if len(ct) != ctSize {
			return dst, fmt.Errorf("crypto: ragged batch: record %d has %d bytes, want %d", k, len(ct), ctSize)
		}
	}
	pn := ctSize - Overhead
	n := len(dst)
	grown := slices.Grow(dst, count*pn)[:n+count*pn]
	out := grown[n:]
	ad := c.ads.Get().(*[adSize]byte)
	defer c.ads.Put(ad)
	for k := 0; k < count; k++ {
		if err := c.openTo(ad, out[k*pn:(k+1)*pn], cts[k], slotAddr(addrs, k)); err != nil {
			return dst, fmt.Errorf("crypto: batch record %d: %w", k, err)
		}
	}
	return grown, nil
}

// macState is the PRF's pooled per-goroutine working set: a pre-keyed HMAC
// (Reset restores the cached pads without re-deriving them) plus fixed
// scratch for the sum and integer inputs. The scratch lives here rather
// than on the stack because it is passed through hash.Hash interface calls,
// which would otherwise force a heap escape per call.
type macState struct {
	mac hash.Hash
	sum [sha256.Size]byte
	num [8]byte
}

// PRF is the keyed function F of Section 7.2. Two independently keyed PRFs
// define the two bucket choices of the mapping function Π. The HMAC pads
// are keyed once and per-call state is pooled, so evaluation is
// allocation-free and safe for concurrent use.
type PRF struct {
	key    []byte
	states sync.Pool
}

// NewPRF derives a PRF from the master key under a caller-chosen label, so
// one master key can back many independent PRFs (Π uses labels "pi-1" and
// "pi-2").
func NewPRF(k Key, label string) *PRF {
	p := &PRF{key: derive(k, "dpstore/prf/"+label)}
	p.states.New = func() any { return &macState{mac: hmac.New(sha256.New, p.key)} }
	return p
}

// eval is the shared core of every Eval variant.
func (p *PRF) eval(input []byte) uint64 {
	st := p.states.Get().(*macState)
	st.mac.Reset()
	st.mac.Write(input)
	v := binary.BigEndian.Uint64(st.mac.Sum(st.sum[:0])[:8])
	p.states.Put(st)
	return v
}

// Eval returns the 64-bit PRF output on input.
func (p *PRF) Eval(input []byte) uint64 { return p.eval(input) }

// EvalString is Eval on a string key. The string's bytes are viewed in
// place (never written, never retained past the call), so call sites skip
// the []byte(s) copy.
func (p *PRF) EvalString(s string) uint64 {
	if len(s) == 0 {
		return p.eval(nil)
	}
	return p.eval(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// EvalUint64 is Eval on the big-endian encoding of u — the fast path for
// integer-indexed callers, with the 8-byte staging in pooled scratch.
func (p *PRF) EvalUint64(u uint64) uint64 {
	st := p.states.Get().(*macState)
	binary.BigEndian.PutUint64(st.num[:], u)
	st.mac.Reset()
	st.mac.Write(st.num[:])
	v := binary.BigEndian.Uint64(st.mac.Sum(st.sum[:0])[:8])
	p.states.Put(st)
	return v
}

// EvalInto appends the full 32-byte PRF output on input to dst — for
// callers that need more than the 64-bit truncation Eval applies.
func (p *PRF) EvalInto(dst, input []byte) []byte {
	st := p.states.Get().(*macState)
	st.mac.Reset()
	st.mac.Write(input)
	dst = st.mac.Sum(dst)
	p.states.Put(st)
	return dst
}

// EvalMod returns Eval(input) reduced modulo m (m > 0). The modulo bias for
// m ≪ 2^64 is cryptographically negligible.
func (p *PRF) EvalMod(input []byte, m uint64) uint64 {
	if m == 0 {
		panic("crypto: EvalMod modulus zero")
	}
	return p.eval(input) % m
}

// EvalStringMod is EvalMod on a string key, copy-free like EvalString.
func (p *PRF) EvalStringMod(s string, m uint64) uint64 {
	if m == 0 {
		panic("crypto: EvalMod modulus zero")
	}
	return p.EvalString(s) % m
}

// EvalUint64Mod is EvalMod on an integer key, allocation-free like
// EvalUint64.
func (p *PRF) EvalUint64Mod(u, m uint64) uint64 {
	if m == 0 {
		panic("crypto: EvalMod modulus zero")
	}
	return p.EvalUint64(u) % m
}
