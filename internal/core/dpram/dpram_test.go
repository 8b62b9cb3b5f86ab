package dpram

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dpstore/internal/analysis"
	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

func setup(t *testing.T, n int, opts Options) (*Client, *store.Counting) {
	t.Helper()
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := store.NewMem(n, ServerBlockSize(16, opts))
	if err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(srv)
	c, err := Setup(db, counting, opts)
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset() // exclude setup traffic from per-query accounting
	return c, counting
}

func TestSetupValidation(t *testing.T) {
	db, _ := block.PatternDatabase(8, 16)
	goodSrv, _ := store.NewMem(8, crypto.CiphertextSize(16))
	if _, err := Setup(db, goodSrv, Options{}); err == nil {
		t.Fatal("nil Rand accepted")
	}
	wrongSize, _ := store.NewMem(9, crypto.CiphertextSize(16))
	if _, err := Setup(db, wrongSize, Options{Rand: rng.New(1)}); err == nil {
		t.Fatal("wrong server size accepted")
	}
	wrongBS, _ := store.NewMem(8, 16)
	if _, err := Setup(db, wrongBS, Options{Rand: rng.New(1)}); err == nil {
		t.Fatal("wrong block size accepted (encryption overhead missing)")
	}
	if _, err := Setup(db, goodSrv, Options{Rand: rng.New(1), StashParam: 99}); err == nil {
		t.Fatal("stash parameter > n accepted")
	}
}

func TestDefaultStashParam(t *testing.T) {
	// Φ(n) must be ω(log n) but far sublinear: check a few sizes.
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		c := DefaultStashParam(n)
		lg := math.Log2(float64(n))
		if float64(c) < lg {
			t.Fatalf("Φ(%d) = %d below log n", n, c)
		}
		if float64(c) > 0.05*float64(n) {
			t.Fatalf("Φ(%d) = %d too large", n, c)
		}
	}
	if DefaultStashParam(2) < 1 {
		t.Fatal("tiny n broke the default")
	}
}

// TestReadCorrectness reads every record repeatedly; values must match the
// database regardless of stash churn.
func TestReadCorrectness(t *testing.T) {
	n := 64
	c, _ := setup(t, n, Options{Rand: rng.New(2)})
	for round := 0; round < 5; round++ {
		for i := 0; i < n; i++ {
			b, err := c.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			if !block.CheckPattern(b, uint64(i)) {
				t.Fatalf("round %d: record %d corrupted", round, i)
			}
		}
	}
}

// TestReadWriteAgainstReference runs a long random read/write trace and
// compares every result against an in-memory reference map.
func TestReadWriteAgainstReference(t *testing.T) {
	n := 32
	c, _ := setup(t, n, Options{Rand: rng.New(3)})
	ref := make([]block.Block, n)
	for i := range ref {
		ref[i] = block.Pattern(uint64(i), 16)
	}
	src := rng.New(4)
	for step := 0; step < 3000; step++ {
		i := src.Intn(n)
		if src.Bernoulli(0.4) {
			val := block.Pattern(uint64(10000+step), 16)
			prev, err := c.Write(i, val)
			if err != nil {
				t.Fatal(err)
			}
			if !prev.Equal(ref[i]) {
				t.Fatalf("step %d: Write returned stale previous value", step)
			}
			ref[i] = val
		} else {
			got, err := c.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref[i]) {
				t.Fatalf("step %d: Read(%d) diverged from reference", step, i)
			}
		}
	}
}

// TestConstantOverhead checks the exact Algorithm 3 cost: 2 downloads and 1
// upload per query, independent of n.
func TestConstantOverhead(t *testing.T) {
	for _, n := range []int{16, 256, 4096} {
		c, counting := setup(t, n, Options{Rand: rng.New(5)})
		const queries = 300
		src := rng.New(6)
		for i := 0; i < queries; i++ {
			if _, err := c.Read(src.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		st := counting.Stats()
		if st.Downloads != 2*queries || st.Uploads != queries {
			t.Fatalf("n=%d: ops = (%d,%d), want (%d,%d)", n, st.Downloads, st.Uploads, 2*queries, queries)
		}
	}
}

// TestStashBound runs many queries and checks the stash stays within a
// small multiple of Φ(n), per Lemma D.1.
func TestStashBound(t *testing.T) {
	n := 1 << 12
	c, _ := setup(t, n, Options{Rand: rng.New(7)})
	src := rng.New(8)
	for i := 0; i < 20000; i++ {
		if _, err := c.Read(src.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	phi := c.StashParam()
	if c.MaxStashSize() > 3*phi {
		t.Fatalf("max stash %d exceeded 3·Φ = %d", c.MaxStashSize(), 3*phi)
	}
	if c.MaxStashSize() == 0 {
		t.Fatal("stash never used; coin logic broken")
	}
}

// TestStashMembershipRate verifies the per-record stash law stays
// Bernoulli(p): after a long run, the stash size hovers around C.
func TestStashMembershipRate(t *testing.T) {
	n := 1 << 10
	phi := 64
	c, _ := setup(t, n, Options{Rand: rng.New(9), StashParam: phi})
	src := rng.New(10)
	var sum, samples float64
	for i := 0; i < 30000; i++ {
		if _, err := c.Read(src.Intn(n)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			sum += float64(c.StashSize())
			samples++
		}
	}
	avg := sum / samples
	if avg < float64(phi)*0.7 || avg > float64(phi)*1.3 {
		t.Fatalf("average stash %0.1f, want ≈ C = %d", avg, phi)
	}
}

func TestRetrievalOnlyMode(t *testing.T) {
	n := 64
	opts := Options{Rand: rng.New(11), RetrievalOnly: true}
	c, counting := setup(t, n, opts)
	const queries = 500
	src := rng.New(12)
	for i := 0; i < queries; i++ {
		q := src.Intn(n)
		b, err := c.Read(q)
		if err != nil {
			t.Fatal(err)
		}
		if !block.CheckPattern(b, uint64(q)) {
			t.Fatalf("read %d corrupted", q)
		}
	}
	st := counting.Stats()
	if st.Uploads != 0 {
		t.Fatal("retrieval-only mode must never upload")
	}
	if st.Downloads != queries {
		t.Fatalf("downloads = %d, want exactly 1 per query", st.Downloads)
	}
	if _, err := c.Write(0, block.Pattern(0, 16)); err == nil {
		t.Fatal("write accepted in retrieval-only mode")
	}
}

func TestWriteSizeValidation(t *testing.T) {
	c, _ := setup(t, 16, Options{Rand: rng.New(13)})
	if _, err := c.Write(0, block.New(8)); err == nil {
		t.Fatal("wrong-size write accepted")
	}
	if _, err := c.Read(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := c.Read(16); err == nil {
		t.Fatal("overflow index accepted")
	}
}

// TestAccessRejectsWrongSizeWrite: a write query whose data is not one
// record long is refused before any coin is drawn or any address is
// touched — block.ErrSize, an empty transcript, the state bytes as they
// were — so the state stays resumable. p = 1 keeps every record stashed,
// where an accepted short write would sit in the stash.
func TestAccessRejectsWrongSizeWrite(t *testing.T) {
	const n = 8
	opts := func() Options { return Options{Rand: rng.New(17), Key: crypto.KeyFromSeed(17), StashParam: n} }
	c, counting := setup(t, n, opts())
	twin, _ := setup(t, n, opts())
	before, err := c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 3, 15, 17} {
		_, err := c.Access(workload.Query{Index: 0, Op: workload.Write, Data: make(block.Block, size)})
		if !errors.Is(err, block.ErrSize) {
			t.Fatalf("write of %d bytes: err = %v, want block.ErrSize", size, err)
		}
	}
	if st := counting.Stats(); st.Ops() != 0 {
		t.Fatalf("rejected writes reached the server: %+v", st)
	}
	if got, want := c.src.Int63(), twin.src.Int63(); got != want {
		t.Fatal("rejected writes drew coins")
	}
	after, _ := c.MarshalState()
	if !bytes.Equal(before, after) || !bytes.Equal(before, c.encodeState()) {
		t.Fatal("rejected writes changed the client state")
	}
	if _, err := Resume(counting, after, opts()); err != nil {
		t.Fatalf("resume after rejected writes: %v", err)
	}
}

func TestDeterministicKeyReproducible(t *testing.T) {
	// Same seed + same key ⇒ identical server contents and behavior.
	mk := func() *Client {
		db, _ := block.PatternDatabase(16, 16)
		srv, _ := store.NewMem(16, crypto.CiphertextSize(16))
		c, err := Setup(db, srv, Options{Rand: rng.New(14), Key: crypto.KeyFromSeed(1)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	for i := 0; i < 50; i++ {
		ba, err := a.Read(i % 16)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Read(i % 16)
		if err != nil {
			t.Fatal(err)
		}
		if !ba.Equal(bb) {
			t.Fatal("same-seed clients diverged")
		}
	}
}

// TestEmpiricalEpsilonSmallN is experiment E6 in miniature: estimate the
// DP-RAM transcript ε̂ for adjacent 3-query sequences over a 4-record
// store and check it is (a) finite with δ̂ ≈ 0 and (b) below the analytic
// Theorem 6.1 upper bound.
func TestEmpiricalEpsilonSmallN(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const n = 4
	const phi = 2 // p = 1/2, deliberately coarse to keep classes populated
	// Length-2 adjacent sequences differing at the second query. Every
	// transcript class then has probability ≥ (p/n)⁴ = 1/4096, so under
	// true pure DP no class is one-sided at 150k samples w.h.p.; longer
	// sequences make rare classes unobservable and the δ̂ check vacuous.
	seqA := workload.Sequence{{Index: 0, Op: workload.Read}, {Index: 1, Op: workload.Read}}
	seqB := workload.Sequence{{Index: 0, Op: workload.Read}, {Index: 2, Op: workload.Read}}

	sample := func(src *rng.Source, seq workload.Sequence) func() string {
		db, _ := block.PatternDatabase(n, 16)
		return func() string {
			srv, _ := store.NewMem(n, 16)
			recorder := newQueryRecorder(srv)
			c, err := Setup(db, recorder, Options{
				Rand:              src.Split(),
				StashParam:        phi,
				DisableEncryption: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			recorder.reset()
			for _, q := range seq {
				if _, err := c.Access(q); err != nil {
					t.Fatal(err)
				}
			}
			return recorder.key()
		}
	}
	src := rng.New(15)
	pe := analysis.SamplePair(sample(src.Split(), seqA), sample(src.Split(), seqB), 150000)

	epsHat := pe.MaxRatioEps(30)
	bound := (&Client{core{units: n, c: phi}}).EpsUpperBound()
	if epsHat <= 0 {
		t.Fatal("ε̂ = 0: adjacent sequences indistinguishable — suspicious for finite n")
	}
	if epsHat > bound {
		t.Fatalf("ε̂ = %v above the analytic bound %v", epsHat, bound)
	}
	// Pure DP: no transcript class may be (meaningfully) one-sided.
	if m := pe.OneSidedMass(); m > 0.01 {
		t.Fatalf("one-sided transcript mass %v; Theorem 6.1 promises pure DP", m)
	}
}

// queryRecorder captures the (op, addr) view like trace.Recorder but lives
// here to avoid an import cycle in tests; it implements store.Server.
type queryRecorder struct {
	inner store.Server
	log   []byte
}

func newQueryRecorder(inner store.Server) *queryRecorder {
	return &queryRecorder{inner: inner}
}

func (r *queryRecorder) Download(addr int) (block.Block, error) {
	b, err := r.inner.Download(addr)
	if err == nil {
		r.log = append(r.log, 'D', byte('0'+addr))
	}
	return b, err
}

func (r *queryRecorder) Upload(addr int, b block.Block) error {
	err := r.inner.Upload(addr, b)
	if err == nil {
		r.log = append(r.log, 'U', byte('0'+addr))
	}
	return err
}

func (r *queryRecorder) Size() int      { return r.inner.Size() }
func (r *queryRecorder) BlockSize() int { return r.inner.BlockSize() }
func (r *queryRecorder) reset()         { r.log = nil }
func (r *queryRecorder) key() string    { return string(r.log) }
