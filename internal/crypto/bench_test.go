package crypto

import "testing"

func benchCipher(b *testing.B, size int) {
	b.ReportAllocs()
	c := NewCipher(KeyFromSeed(1))
	pt := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decrypt(c.Encrypt(pt, i), i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptDecrypt64(b *testing.B)  { benchCipher(b, 64) }
func BenchmarkEncryptDecrypt1K(b *testing.B)  { benchCipher(b, 1024) }
func BenchmarkEncryptDecrypt16K(b *testing.B) { benchCipher(b, 16*1024) }

// benchEncryptInto measures the steady-state slab path — the CI allocation
// gate holds it at 0 allocs/op at 64 B (a scheme block) and 1 KiB (the
// served durable record).
func benchEncryptInto(b *testing.B, size int) {
	b.ReportAllocs()
	c := NewCipher(KeyFromSeed(1))
	pt := make([]byte, size)
	buf := make([]byte, 0, CiphertextSize(size))
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.EncryptInto(buf[:0], pt, i)
	}
}

func BenchmarkEncryptInto64(b *testing.B) { benchEncryptInto(b, 64) }
func BenchmarkEncryptInto1K(b *testing.B) { benchEncryptInto(b, 1024) }

// benchDecryptInto measures the steady-state slab open; CI gates it at
// 0 allocs/op alongside benchEncryptInto.
func benchDecryptInto(b *testing.B, size int) {
	b.ReportAllocs()
	c := NewCipher(KeyFromSeed(1))
	ct := c.Encrypt(make([]byte, size), 7)
	buf := make([]byte, 0, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.DecryptInto(buf[:0], ct, 7)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

func BenchmarkDecryptInto64(b *testing.B) { benchDecryptInto(b, 64) }
func BenchmarkDecryptInto1K(b *testing.B) { benchDecryptInto(b, 1024) }

// benchSealBatch measures the batch kernel at the Path ORAM eviction shape:
// count slot records of recSize bytes sealed per call.
func benchSealBatch(b *testing.B, count, recSize int) {
	b.ReportAllocs()
	c := NewCipher(KeyFromSeed(1))
	src := make([]byte, count*recSize)
	buf := make([]byte, 0, count*CiphertextSize(recSize))
	b.SetBytes(int64(count * recSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.SealBatch(buf[:0], src, count, recSize)
	}
}

func BenchmarkSealBatch8x76(b *testing.B)   { benchSealBatch(b, 8, 76) }
func BenchmarkSealBatch52x76(b *testing.B)  { benchSealBatch(b, 52, 76) }
func BenchmarkSealBatch256x76(b *testing.B) { benchSealBatch(b, 256, 76) }

func BenchmarkOpenBatch52x76(b *testing.B) {
	b.ReportAllocs()
	c := NewCipher(KeyFromSeed(1))
	const count, rec = 52, 76
	sealed := c.SealBatch(nil, make([]byte, count*rec), count, rec)
	ctSize := CiphertextSize(rec)
	cts := make([][]byte, count)
	for k := range cts {
		cts[k] = sealed[k*ctSize : (k+1)*ctSize]
	}
	buf := make([]byte, 0, count*rec)
	b.SetBytes(int64(count * rec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.OpenBatch(buf[:0], cts)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

func BenchmarkPRFEval(b *testing.B) {
	b.ReportAllocs()
	p := NewPRF(KeyFromSeed(1), "bench")
	in := []byte("key-00001234")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Eval(in)
	}
}

func BenchmarkPRFEvalMod(b *testing.B) {
	b.ReportAllocs()
	p := NewPRF(KeyFromSeed(1), "bench")
	in := []byte("key-00001234")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.EvalMod(in, 65536)
	}
}

func BenchmarkPRFEvalUint64(b *testing.B) {
	b.ReportAllocs()
	p := NewPRF(KeyFromSeed(1), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.EvalUint64(uint64(i))
	}
}

func BenchmarkPRFEvalString(b *testing.B) {
	b.ReportAllocs()
	p := NewPRF(KeyFromSeed(1), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.EvalString("key-00001234")
	}
}
