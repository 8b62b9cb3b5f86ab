package dpstore

// Transcript-freeze regression tests: the exact (op, address) server view
// of a seeded DP-RAM and Path ORAM run, pinned as a SHA-256 golden. The
// zero-allocation pass (pooled wire buffers, block slabs, scheme scratch
// reuse) must not move a single rng draw or reorder a single server
// operation — these goldens were captured BEFORE the pass and assert the
// transcripts stayed bit-identical after it. They extend the
// TestBatchedAndPerBlockAgree discipline with an absolute anchor: agreement
// tests catch batched-vs-per-block divergence, the freeze catches both
// sides drifting together.
//
// The hash covers the full per-operation transcript (trace.Transcript.Key:
// every download/upload with its address, in order) AND every query's
// returned record bytes, so a scratch-reuse bug that corrupts returned data
// without touching the trace is caught too.

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"net"
	"testing"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/trace"
	"dpstore/internal/workload"
)

// freezeN and freezeQueries shape the frozen workload: large enough to
// exercise stash churn and path reuse, small enough to run in milliseconds.
const (
	freezeN         = 64
	freezeBlockSize = 16
	freezeQueries   = 200
)

// frozenWorkload drives q mixed seeded queries against access, feeding the
// returned record bytes and the recorded transcript into one hash.
func frozenWorkload(t *testing.T, rec *trace.Recorder, src *rng.Source,
	access func(q workload.Query) (block.Block, error)) string {
	t.Helper()
	return frozenDigest(frozenQueries(t, src, access), rec)
}

// frozenQueries runs the frozen query sequence and hashes every returned
// record.
func frozenQueries(t *testing.T, src *rng.Source,
	access func(q workload.Query) (block.Block, error)) hash.Hash {
	t.Helper()
	h := sha256.New()
	for k := 0; k < freezeQueries; k++ {
		q := workload.Query{Index: src.Intn(freezeN), Op: workload.Read}
		if src.Intn(4) == 0 { // every 4th query is a write, on average
			q.Op = workload.Write
			q.Data = block.Pattern(uint64(k), freezeBlockSize)
		}
		got, err := access(q)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(got)
	}
	return h
}

// frozenDigest folds the server-side transcript into the records' hash.
func frozenDigest(h hash.Hash, rec *trace.Recorder) string {
	h.Write([]byte(rec.Transcript().Key()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestTranscriptFreezeDPRAM pins the seeded DP-RAM transcript captured
// before the zero-allocation pass.
func TestTranscriptFreezeDPRAM(t *testing.T) {
	const golden = "34a289f67a900305767d3680bea4f5f2702f279f71adf6c9992e214e78669afd"
	db, err := block.PatternDatabase(freezeN, freezeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := store.NewMem(freezeN, dpram.ServerBlockSize(freezeBlockSize, dpram.Options{DisableEncryption: true}))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(mem)
	c, err := dpram.Setup(db, rec, dpram.Options{Rand: rng.New(42), DisableEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	got := frozenWorkload(t, rec, rng.New(1007), c.Access)
	if got != golden {
		t.Fatalf("seeded DP-RAM transcript drifted:\n got %s\nwant %s\n(an rng draw moved or a returned record changed)", got, golden)
	}
}

// TestTranscriptFreezePathORAM pins the seeded Path ORAM transcript
// captured before the zero-allocation pass. Encryption is disabled so
// returned bytes are deterministic; the trace itself never depends on it.
func TestTranscriptFreezePathORAM(t *testing.T) {
	const golden = "c8b6ffa1ed6cac64f846e6590c7b153f273598bea76e4c828a61841903282709"
	db, err := block.PatternDatabase(freezeN, freezeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	opts := pathoram.Options{Rand: rng.New(42), DisableEncryption: true}
	slots, bs := pathoram.TreeShape(freezeN, freezeBlockSize, opts)
	mem, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(mem)
	o, err := pathoram.Setup(db, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := frozenWorkload(t, rec, rng.New(1007), o.Access)
	if got != golden {
		t.Fatalf("seeded Path ORAM transcript drifted:\n got %s\nwant %s\n(an rng draw moved or a returned record changed)", got, golden)
	}
}

// TestTranscriptFreezePartitionedDPRAM pins the P=4 partitioned DP-RAM
// server view: the frozen workload routed over four independent scheme
// instances (logical record u → partition u mod 4), each over its own
// recorded store with its own coin stream. The hash covers every returned
// record byte plus all four per-partition transcripts in partition order,
// so a drift in ANY partition's trace — or in the routing itself, which
// would move requests between partitions — trips the golden.
func TestTranscriptFreezePartitionedDPRAM(t *testing.T) {
	const golden = "cf9f05344a9e2f515c9cda0cfd25a7210cf7039757c89911799e6329232cd530"
	const parts = 4
	proxies := make([]*proxy.Proxy, parts)
	recs := make([]*trace.Recorder, parts)
	for i := range proxies {
		ni := store.ShardSlots(freezeN, parts, i)
		db, err := block.PatternDatabase(ni, freezeBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := store.NewMem(ni, dpram.ServerBlockSize(freezeBlockSize, dpram.Options{DisableEncryption: true}))
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = trace.NewRecorder(mem)
		// The daemon's per-partition seed mixing: partition 0 reduces to
		// the plain seed, siblings draw decorrelated streams.
		c, err := dpram.Setup(db, recs[i], dpram.Options{
			Rand:              rng.New(int64(uint64(42) ^ uint64(i)*0xbf58476d1ce4e5b9)),
			DisableEncryption: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = proxy.New(c, proxy.Options{})
	}
	pt, err := proxy.NewPartitioned(proxies)
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close() //nolint:errcheck

	h := sha256.New()
	src := rng.New(1007)
	for k := 0; k < freezeQueries; k++ {
		q := workload.Query{Index: src.Intn(freezeN), Op: workload.Read}
		if src.Intn(4) == 0 {
			q.Op = workload.Write
			q.Data = block.Pattern(uint64(k), freezeBlockSize)
		}
		got, err := pt.Access(q)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(got)
	}
	for _, rec := range recs {
		h.Write([]byte(rec.Transcript().Key()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("partitioned DP-RAM transcript drifted:\n got %s\nwant %s\n(a partition's trace moved, or the routing changed)", got, golden)
	}
}

// TestTranscriptFreezeRemote runs the frozen DP-RAM workload over the real
// TCP transport (Remote → serve loop → Mem) and asserts the same golden as
// the in-process run: the wire codecs and buffer pooling are transparent to
// the transcript AND to every returned byte. The Recorder sits behind the
// daemon, so this exercises encode → frame → decode end to end.
func TestTranscriptFreezeRemote(t *testing.T) {
	const golden = "34a289f67a900305767d3680bea4f5f2702f279f71adf6c9992e214e78669afd"
	db, err := block.PatternDatabase(freezeN, freezeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := store.NewMem(freezeN, dpram.ServerBlockSize(freezeBlockSize, dpram.Options{DisableEncryption: true}))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(mem)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go store.Serve(ln, rec) //nolint:errcheck
	remote, err := store.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := dpram.Setup(db, remote, dpram.Options{Rand: rng.New(42), DisableEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	h := frozenQueries(t, rng.New(1007), c.Access)
	// The Recorder is read out of band, behind the daemon: the last access's
	// posted upload is part of the transcript only once it is flushed.
	if err := remote.Flush(); err != nil {
		t.Fatal(err)
	}
	got := frozenDigest(h, rec)
	if got != golden {
		t.Fatalf("seeded DP-RAM transcript over TCP drifted:\n got %s\nwant %s", got, golden)
	}
}
