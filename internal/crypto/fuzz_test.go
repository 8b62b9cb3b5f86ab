package crypto

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecrypt drives Decrypt/DecryptInto/OpenBatch with adversarial inputs:
// raw fuzz bytes as a ciphertext, plus truncations, bit flips, a forged tag
// derived from a genuine encryption of the input, and genuine ciphertexts
// opened at the wrong slot address. Decryption must never panic, and every
// manipulated or misrouted ciphertext must fail with ErrAuth or a length
// error — the untrusted server is exactly the party holding these bytes and
// choosing which slot's bytes to return.
func FuzzDecrypt(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte("hello world, this is a record"), 7)
	f.Add(bytes.Repeat([]byte{0xa5}, Overhead), 1<<20)
	f.Add(bytes.Repeat([]byte{0x00}, Overhead+64), -1)
	f.Add([]byte{0x01, 0x02, 0x03}, 135)

	c := NewCipher(KeyFromSeed(0xf00d))
	f.Fuzz(func(t *testing.T, data []byte, addr int) {
		// Raw input as ciphertext: must not panic; success (possible only
		// if the fuzzer forges a valid tag, i.e. never) must be shape-sane.
		if pt, err := c.Decrypt(data, addr); err == nil {
			if len(data) < Overhead || len(pt) != len(data)-Overhead {
				t.Fatalf("decrypt of %d raw bytes yielded %d plaintext bytes", len(data), len(pt))
			}
		}

		// A genuine ciphertext of the input must round-trip at its address...
		ct := c.Encrypt(data, addr)
		got, err := c.Decrypt(ct, addr)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("genuine ciphertext failed to round-trip: %v", err)
		}

		// ...and at no other address.
		shift := 0
		if len(data) > 0 {
			shift = int(data[len(data)-1]) % 63
		}
		for _, other := range []int{addr + 1, addr - 1, addr ^ (1 << shift)} {
			if _, err := c.Decrypt(ct, other); !errors.Is(err, ErrAuth) {
				t.Fatalf("slot %d's ciphertext opened at %d: got %v, want ErrAuth", addr, other, err)
			}
		}

		// Every truncation must fail without panicking.
		for _, n := range []int{0, Overhead - 1, len(ct) / 2, len(ct) - 1} {
			if n < 0 || n >= len(ct) {
				continue
			}
			if _, err := c.Decrypt(ct[:n], addr); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(ct))
			}
		}

		// Bit flips at input-derived positions must fail with ErrAuth.
		pos := 0
		if len(data) > 0 {
			pos = int(data[0]) % len(ct)
		}
		for _, p := range []int{pos, 0, len(ct) - 1} {
			bad := append([]byte(nil), ct...)
			bad[p] ^= byte(p) | 1 // odd, so never a zero-mask no-op
			if _, err := c.Decrypt(bad, addr); !errors.Is(err, ErrAuth) {
				t.Fatalf("bit flip at %d: got %v, want ErrAuth", p, err)
			}
		}

		// Forged tag: splice the tag of a different message onto this one.
		other := c.Encrypt(append([]byte("other"), data...), addr)
		forged := append([]byte(nil), ct[:len(ct)-tagSize]...)
		forged = append(forged, other[len(other)-tagSize:]...)
		if _, err := c.Decrypt(forged, addr); !errors.Is(err, ErrAuth) {
			t.Fatalf("forged tag: got %v, want ErrAuth", err)
		}

		// The batch kernel must agree with the scalar path on bad input and
		// on swapped slots.
		if _, err := c.OpenBatch(nil, [][]byte{ct, forged}, addr, addr); !errors.Is(err, ErrAuth) {
			t.Fatalf("OpenBatch with a forged record: got %v, want ErrAuth", err)
		}
		if _, err := c.OpenBatch(nil, [][]byte{ct}, addr+1); !errors.Is(err, ErrAuth) {
			t.Fatalf("OpenBatch at the wrong address: got %v, want ErrAuth", err)
		}
	})
}
