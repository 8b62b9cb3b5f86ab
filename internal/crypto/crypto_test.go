package crypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := NewCipher(KeyFromSeed(1))
	f := func(pt []byte, addr uint32) bool {
		got, err := c.Decrypt(c.Encrypt(pt, int(addr)), int(addr))
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextSize(t *testing.T) {
	c := NewCipher(KeyFromSeed(2))
	for _, n := range []int{0, 1, 16, 64, 1000} {
		ct := c.Encrypt(make([]byte, n), 0)
		if len(ct) != CiphertextSize(n) {
			t.Fatalf("ciphertext of %d-byte plaintext is %d bytes, want %d", n, len(ct), CiphertextSize(n))
		}
	}
	if Overhead != 28 {
		t.Fatalf("Overhead = %d, want 12-byte nonce + 16-byte tag", Overhead)
	}
}

func TestFreshRandomnessPerEncryption(t *testing.T) {
	// Re-encryptions of the same plaintext must differ — the property
	// DP-RAM's overwrite phase depends on.
	c := NewCipher(KeyFromSeed(3))
	pt := []byte("same plaintext every time......")
	if bytes.Equal(c.Encrypt(pt, 5), c.Encrypt(pt, 5)) {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestTamperDetection(t *testing.T) {
	c := NewCipher(KeyFromSeed(4))
	ct := c.Encrypt([]byte("hello world, this is a record"), 9)
	for _, pos := range []int{0, nonceSize, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[pos] ^= 1
		if _, err := c.Decrypt(bad, 9); !errors.Is(err, ErrAuth) {
			t.Fatalf("tampering at byte %d: got %v, want ErrAuth", pos, err)
		}
	}
}

func TestDecryptTooShort(t *testing.T) {
	c := NewCipher(KeyFromSeed(5))
	if _, err := c.Decrypt(make([]byte, Overhead-1), 0); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestWrongKeyFails(t *testing.T) {
	a := NewCipher(KeyFromSeed(6))
	b := NewCipher(KeyFromSeed(7))
	if _, err := b.Decrypt(a.Encrypt([]byte("secret record"), 0), 0); err == nil {
		t.Fatal("decryption under wrong key succeeded")
	}
}

func TestWrongAddressFails(t *testing.T) {
	// A ciphertext served from any slot but its own must not open: this is
	// what turns a striping, rebase or resync bug (or a malicious swap) into
	// ErrAuth instead of another record's plaintext.
	c := NewCipher(KeyFromSeed(8))
	pt := []byte("record sealed for slot 7")
	ct := c.Encrypt(pt, 7)
	for _, addr := range []int{0, 6, 8, 7 + 1<<32, -7} {
		if got, err := c.Decrypt(ct, addr); !errors.Is(err, ErrAuth) || got != nil {
			t.Fatalf("opening slot 7's ciphertext at %d: got (%q, %v), want ErrAuth", addr, got, err)
		}
	}
	if got, err := c.Decrypt(ct, 7); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("opening at its own slot: %v", err)
	}
}

func TestEncryptIntoAppendSemantics(t *testing.T) {
	c := NewCipher(KeyFromSeed(20))
	prefix := []byte("existing-prefix")
	pt := []byte("a record body of some length")
	dst := c.EncryptInto(append([]byte(nil), prefix...), pt, 3)
	if !bytes.HasPrefix(dst, prefix) {
		t.Fatal("EncryptInto clobbered the existing dst prefix")
	}
	if len(dst) != len(prefix)+CiphertextSize(len(pt)) {
		t.Fatalf("EncryptInto appended %d bytes, want %d", len(dst)-len(prefix), CiphertextSize(len(pt)))
	}
	got, err := c.Decrypt(dst[len(prefix):], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("appended ciphertext does not round-trip")
	}

	// Steady-state reuse: the second call into recycled capacity must not
	// reallocate and must still round-trip.
	buf := dst[:0]
	buf = c.EncryptInto(buf, pt, 3)
	if got, err := c.Decrypt(buf, 3); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("reused-capacity EncryptInto broke the round trip: %v", err)
	}
}

func TestDecryptIntoAppendSemantics(t *testing.T) {
	c := NewCipher(KeyFromSeed(21))
	pt := []byte("payload payload payload")
	ct := c.Encrypt(pt, 11)
	prefix := []byte("kept")
	dst, err := c.DecryptInto(append([]byte(nil), prefix...), ct, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dst, prefix) || !bytes.Equal(dst[len(prefix):], pt) {
		t.Fatal("DecryptInto append semantics broken")
	}

	// Failure must leave dst at its original length.
	bad := append([]byte(nil), ct...)
	bad[len(bad)-1] ^= 1
	orig := append([]byte(nil), prefix...)
	dst, err = c.DecryptInto(orig, bad, 11)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered ciphertext: got err %v, want ErrAuth", err)
	}
	if len(dst) != len(prefix) {
		t.Fatalf("failed DecryptInto returned %d bytes, want original %d", len(dst), len(prefix))
	}
}

func TestEncryptZeroLengthPlaintext(t *testing.T) {
	c := NewCipher(KeyFromSeed(22))
	ct := c.Encrypt(nil, 0)
	if len(ct) != Overhead {
		t.Fatalf("empty plaintext ciphertext is %d bytes, want %d", len(ct), Overhead)
	}
	got, err := c.Decrypt(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty plaintext round-tripped to %d bytes", len(got))
	}
}

// ivCounting wraps a deterministic nonce stream and counts bytes drawn.
type ivCounting struct {
	s uint64
	n int
}

func (r *ivCounting) Read(p []byte) (int, error) {
	for i := range p {
		r.s = r.s*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.s >> 56)
	}
	r.n += len(p)
	return len(p), nil
}

func TestSetIVReaderHonored(t *testing.T) {
	// Two ciphers under the same key and the same seeded nonce stream must
	// produce bit-identical ciphertexts — the property the seeded transcript
	// freezes build on — and each sealed record must draw exactly nonceSize
	// bytes, in record order, batch or not.
	mk := func() (*Cipher, *ivCounting) {
		c := NewCipher(KeyFromSeed(23))
		r := &ivCounting{s: 42}
		c.SetIVReader(r)
		return c, r
	}
	c1, r1 := mk()
	c2, _ := mk()
	pt := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef") // 4 records of 16
	addrs := []int{40, 41, 2, 3}
	var seq []byte
	for k := 0; k < 4; k++ {
		seq = c1.EncryptInto(seq, pt[k*16:(k+1)*16], addrs[k])
	}
	if r1.n != 4*nonceSize {
		t.Fatalf("4 sealed records drew %d nonce bytes, want %d", r1.n, 4*nonceSize)
	}
	batch := c2.SealBatch(nil, pt, 4, 16, addrs...)
	if !bytes.Equal(seq, batch) {
		t.Fatal("SealBatch under a nonce override is not byte-identical to sequential EncryptInto")
	}
}

// nonceAt returns the (high 32, low 64) halves of a ciphertext's nonce.
func nonceAt(ct []byte) (uint32, uint64) {
	return binary.BigEndian.Uint32(ct[:4]), binary.BigEndian.Uint64(ct[4:nonceSize])
}

func TestCounterIVUniqueness(t *testing.T) {
	// Structural uniqueness over 2^20 seals: the nonce is start + ctr and
	// the counter advances by exactly one per seal, whatever the size, so
	// one instance's 2^20 nonces are consecutive 96-bit values and
	// therefore pairwise distinct.
	c := NewCipher(KeyFromSeed(24))
	hi, lo := nonceAt(c.Encrypt(nil, 0))
	buf := make([]byte, 0, CiphertextSize(1000))
	sizes := []int{0, 1, 15, 16, 17, 64, 200, 1000}
	for i := 1; i < 1<<20; i++ {
		if lo++; lo == 0 {
			hi++
		}
		buf = c.EncryptInto(buf[:0], make([]byte, sizes[i%len(sizes)]), i)
		if gotHi, gotLo := nonceAt(buf); gotHi != hi || gotLo != lo {
			t.Fatalf("seal %d: nonce (%#x, %#x), want (%#x, %#x)", i, gotHi, gotLo, hi, lo)
		}
	}
}

func TestNonceCarryAcrossLow64(t *testing.T) {
	// R + ctr is a 96-bit sum: the low 64 bits carry into the high 32, and
	// the high 32 wrap mod 2³².
	for _, tc := range []struct {
		hi   uint32
		want [][2]uint64 // (hi, lo) of seals 0, 1, 2
	}{
		{7, [][2]uint64{{7, ^uint64(0) - 1}, {7, ^uint64(0)}, {8, 0}}},
		{^uint32(0), [][2]uint64{{uint64(^uint32(0)), ^uint64(0) - 1}, {uint64(^uint32(0)), ^uint64(0)}, {0, 0}}},
	} {
		c := NewCipher(KeyFromSeed(31))
		c.startHi, c.startLo = tc.hi, ^uint64(0)-1
		for k, w := range tc.want {
			hi, lo := nonceAt(c.Encrypt([]byte("x"), k))
			if uint64(hi) != w[0] || lo != w[1] {
				t.Fatalf("start hi %#x, seal %d: nonce (%#x, %#x), want (%#x, %#x)", tc.hi, k, hi, lo, w[0], w[1])
			}
		}
	}
}

func TestNonceRangesCollideOnlyWhereBoundSays(t *testing.T) {
	// Two instances under one key whose starts sit L apart: their nonce
	// ranges are disjoint for the first L seals of the lower one and meet
	// exactly at its seal L — the overlap event DESIGN.md bounds by
	// q²·L/2⁹⁶ for random starts.
	const L = 1000
	a, b := NewCipher(KeyFromSeed(32)), NewCipher(KeyFromSeed(32))
	a.startHi, a.startLo = 3, ^uint64(0)-L/2+1 // the range also crosses the carry
	b.startHi, b.startLo = 4, L/2
	first := b.Encrypt(nil, 0)[:nonceSize]
	for k := 0; k < L; k++ {
		if bytes.Equal(a.Encrypt(nil, 0)[:nonceSize], first) {
			t.Fatalf("instance a reused b's first nonce at seal %d, before L = %d", k, L)
		}
	}
	if !bytes.Equal(a.Encrypt(nil, 0)[:nonceSize], first) {
		t.Fatalf("instance a's seal %d does not meet b's start", L)
	}
}

func TestIVPrefixRedrawnAcrossInstances(t *testing.T) {
	// Resume and key rotation rebuild the Cipher via NewCipher; the random
	// nonce start must be redrawn so restarted counter streams don't
	// collide.
	nonceOf := func(c *Cipher) []byte { return c.Encrypt(nil, 0)[:nonceSize] }
	a := NewCipher(KeyFromSeed(25))
	b := NewCipher(KeyFromSeed(25))
	if bytes.Equal(nonceOf(a), nonceOf(b)) {
		t.Fatal("two Cipher instances under one key share a nonce start")
	}
}

func TestSealBatchOpenBatchRoundTrip(t *testing.T) {
	c := NewCipher(KeyFromSeed(26))
	const count, rec = 52, 76
	src := make([]byte, count*rec)
	for i := range src {
		src[i] = byte(i * 31)
	}
	addrs := make([]int, count)
	for k := range addrs {
		addrs[k] = 1000 + 3*k
	}
	sealed := c.SealBatch(nil, src, count, rec, addrs...)
	ctSize := CiphertextSize(rec)
	if len(sealed) != count*ctSize {
		t.Fatalf("SealBatch output %d bytes, want %d", len(sealed), count*ctSize)
	}
	cts := make([][]byte, count)
	for k := range cts {
		cts[k] = sealed[k*ctSize : (k+1)*ctSize]
		// Each record must also open individually at its own address —
		// batch sealing is just N independent encryptions.
		got, err := c.Decrypt(cts[k], addrs[k])
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		if !bytes.Equal(got, src[k*rec:(k+1)*rec]) {
			t.Fatalf("record %d corrupted", k)
		}
	}
	opened, err := c.OpenBatch(nil, cts, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, src) {
		t.Fatal("OpenBatch output differs from the sealed plaintexts")
	}
	// Without addresses a batch binds record k to k, symmetrically.
	plain := c.SealBatch(nil, src, count, rec)
	if _, err := c.Decrypt(plain[ctSize:2*ctSize], 1); err != nil {
		t.Fatalf("address-free batch record 1 does not open at 1: %v", err)
	}
	// Swapping two records' addresses must fail at the lower index.
	addrs[4], addrs[9] = addrs[9], addrs[4]
	if _, err := c.OpenBatch(nil, cts, addrs...); !errors.Is(err, ErrAuth) || !strings.Contains(err.Error(), "record 4") {
		t.Fatalf("misrouted batch: got %v, want ErrAuth at record 4", err)
	}
}

func TestOpenBatchErrors(t *testing.T) {
	c := NewCipher(KeyFromSeed(27))
	const count, rec = 8, 32
	src := make([]byte, count*rec)
	sealed := c.SealBatch(nil, src, count, rec)
	ctSize := CiphertextSize(rec)
	cts := func() [][]byte {
		out := make([][]byte, count)
		for k := range out {
			out[k] = append([]byte(nil), sealed[k*ctSize:(k+1)*ctSize]...)
		}
		return out
	}

	if _, err := c.OpenBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	ragged := cts()
	ragged[3] = ragged[3][:ctSize-1]
	if _, err := c.OpenBatch(nil, ragged); err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("ragged batch: got %v, want record-3 error", err)
	}

	short := [][]byte{make([]byte, Overhead-1), make([]byte, Overhead-1)}
	if _, err := c.OpenBatch(nil, short); err == nil {
		t.Fatal("short batch accepted")
	}

	tampered := cts()
	tampered[5][nonceSize] ^= 1
	dst := []byte("keep")
	out, err := c.OpenBatch(dst, tampered)
	if !errors.Is(err, ErrAuth) || !strings.Contains(err.Error(), "record 5") {
		t.Fatalf("tampered batch: got %v, want ErrAuth at record 5", err)
	}
	if len(out) != len(dst) {
		t.Fatalf("failed OpenBatch returned %d bytes, want original %d", len(out), len(dst))
	}
}

func TestOpenBatchLowestFailingIndex(t *testing.T) {
	// A path-sized batch at GOMAXPROCS > 1 still runs inline: it must
	// round-trip, and with two bad records it must name the lower one.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := NewCipher(KeyFromSeed(28))
	const count, rec = 256, 48
	src := make([]byte, count*rec)
	for i := range src {
		src[i] = byte(i)
	}
	sealed := c.SealBatch(nil, src, count, rec)
	ctSize := CiphertextSize(rec)
	cts := make([][]byte, count)
	for k := range cts {
		cts[k] = sealed[k*ctSize : (k+1)*ctSize]
	}
	opened, err := c.OpenBatch(nil, cts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, src) {
		t.Fatal("SealBatch/OpenBatch round trip corrupted data")
	}

	bad := make([][]byte, count)
	for k := range bad {
		bad[k] = append([]byte(nil), cts[k]...)
	}
	bad[40][nonceSize] ^= 1
	bad[200][nonceSize] ^= 1
	if _, err := c.OpenBatch(nil, bad); err == nil || !strings.Contains(err.Error(), "record 40") {
		t.Fatalf("OpenBatch error: got %v, want lowest-index record 40", err)
	}
}

func TestSealBatchPanicsOnShapeMismatch(t *testing.T) {
	for name, seal := range map[string]func(c *Cipher){
		"bytes":     func(c *Cipher) { c.SealBatch(nil, make([]byte, 33), 2, 16) },
		"addresses": func(c *Cipher) { c.SealBatch(nil, make([]byte, 32), 2, 16, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch: expected panic", name)
				}
			}()
			seal(NewCipher(KeyFromSeed(29)))
		}()
	}
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	if KeyFromSeed(9) != KeyFromSeed(9) {
		t.Fatal("KeyFromSeed not deterministic")
	}
	if KeyFromSeed(9) == KeyFromSeed(10) {
		t.Fatal("different seeds gave equal keys")
	}
}

func TestNewKeyIsRandom(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("two fresh keys are identical")
	}
}

func TestPRFDeterministicAndKeyed(t *testing.T) {
	p1 := NewPRF(KeyFromSeed(11), "lbl")
	p1b := NewPRF(KeyFromSeed(11), "lbl")
	p2 := NewPRF(KeyFromSeed(11), "other")
	p3 := NewPRF(KeyFromSeed(12), "lbl")
	in := []byte("input")
	if p1.Eval(in) != p1b.Eval(in) {
		t.Fatal("PRF not deterministic")
	}
	if p1.Eval(in) == p2.Eval(in) {
		t.Fatal("different labels collide")
	}
	if p1.Eval(in) == p3.Eval(in) {
		t.Fatal("different keys collide")
	}
}

func TestPRFEvalStringMatchesEval(t *testing.T) {
	p := NewPRF(KeyFromSeed(13), "s")
	f := func(s string) bool {
		return p.EvalString(s) == p.Eval([]byte(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if p.EvalString("") != p.Eval(nil) {
		t.Fatal("EvalString(\"\") != Eval(nil)")
	}
}

func TestPRFEvalVariantsAgree(t *testing.T) {
	p := NewPRF(KeyFromSeed(17), "v")
	var buf [8]byte
	for _, u := range []uint64{0, 1, 255, 1 << 20, ^uint64(0)} {
		binary.BigEndian.PutUint64(buf[:], u)
		if p.EvalUint64(u) != p.Eval(buf[:]) {
			t.Fatalf("EvalUint64(%d) != Eval of its big-endian bytes", u)
		}
		if p.EvalUint64Mod(u, 17) != p.EvalMod(buf[:], 17) {
			t.Fatalf("EvalUint64Mod(%d) != EvalMod", u)
		}
	}
	if p.EvalStringMod("abc", 17) != p.EvalMod([]byte("abc"), 17) {
		t.Fatal("EvalStringMod != EvalMod")
	}
	// EvalInto returns the untruncated PRF; Eval is its first 8 bytes.
	full := p.EvalInto(nil, []byte("abc"))
	if len(full) != 32 {
		t.Fatalf("EvalInto appended %d bytes, want 32", len(full))
	}
	if binary.BigEndian.Uint64(full[:8]) != p.Eval([]byte("abc")) {
		t.Fatal("Eval is not the 64-bit truncation of EvalInto")
	}
}

func TestPRFEvalModRange(t *testing.T) {
	p := NewPRF(KeyFromSeed(14), "m")
	for i := 0; i < 1000; i++ {
		v := p.EvalMod([]byte{byte(i), byte(i >> 8)}, 17)
		if v >= 17 {
			t.Fatalf("EvalMod returned %d ≥ 17", v)
		}
	}
}

func TestPRFEvalModSpreads(t *testing.T) {
	p := NewPRF(KeyFromSeed(15), "spread")
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[p.EvalMod([]byte{byte(i), byte(i >> 8)}, 8)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d got %d/8000 draws; PRF output looks biased", b, c)
		}
	}
}

func TestPRFEvalModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRF(KeyFromSeed(16), "z").EvalMod([]byte("x"), 0)
}

func TestConcurrentCipherUse(t *testing.T) {
	// The pooled address scratch must make one Cipher safe for concurrent
	// sealing and opening (the proxy shares scheme ciphers across its
	// pipeline; run under -race in CI).
	c := NewCipher(KeyFromSeed(30))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			pt := bytes.Repeat([]byte{byte(g)}, 64)
			var buf []byte
			for i := 0; i < 200; i++ {
				buf = c.EncryptInto(buf[:0], pt, g*1000+i)
				got, err := c.Decrypt(buf, g*1000+i)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, pt) {
					done <- errors.New("concurrent round trip corrupted")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var _ io.Reader = (*ivCounting)(nil)
