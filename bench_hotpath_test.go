package dpstore

// Hot-path benchmarks: the steady-state access path the zero-allocation
// pass (pooled wire buffers, block slabs, vectored I/O, scheme scratch
// reuse) optimizes, with allocs/op as a first-class metric. The CI
// allocation-budget gate parses BenchmarkHotPathRemoteReadBatch with
// -benchmem and fails the build if allocs/op regresses past the budget
// (see .github/workflows/ci.yml); numbers are recorded in EXPERIMENTS.md
// §HotPath.
//
// The Remote benchmarks measure a full round trip — client encode, frame
// write, server decode, Mem batch, server encode, client decode — so every
// allocation on either side of the loopback socket lands in allocs/op.

import (
	"os"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// hotBatch is the per-round-trip batch size: 16 blocks of 64 B is the
// scale of a Path ORAM path read and a generous DP-RAM pair.
const hotBatch = 16

func hotAddrs() []int {
	addrs := make([]int, hotBatch)
	for i := range addrs {
		addrs[i] = (i * 131) % transportN
	}
	return addrs
}

// BenchmarkHotPathRemoteReadBatch is the acceptance benchmark: one
// ReadBatch round trip over TCP loopback, steady state. The allocation
// budget is ≤ 2 allocs/op (the returned slab's backing array plus its
// block-header slice).
func BenchmarkHotPathRemoteReadBatch(b *testing.B) {
	r := benchRemote(b, transportN, block.DefaultSize)
	addrs := hotAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadBatch(addrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathRemoteWriteBatch: one WriteBatch round trip over TCP
// loopback, steady state, reusing the ops slice and blocks like a scheme's
// eviction path does.
func BenchmarkHotPathRemoteWriteBatch(b *testing.B) {
	r := benchRemote(b, transportN, block.DefaultSize)
	ops := make([]store.WriteOp, hotBatch)
	for i := range ops {
		ops[i] = store.WriteOp{Addr: (i * 131) % transportN, Block: block.Pattern(uint64(i), block.DefaultSize)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathMemReadBatch isolates the in-process slab path: Mem's
// ReadBatch with no transport.
func BenchmarkHotPathMemReadBatch(b *testing.B) {
	m, err := store.NewMem(transportN, block.DefaultSize)
	if err != nil {
		b.Fatal(err)
	}
	addrs := hotAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadBatch(addrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathFileReadBatch exercises the File run-coalescing /
// vectored-I/O read path with a gapped, duplicated address pattern.
func BenchmarkHotPathFileReadBatch(b *testing.B) {
	dir := b.TempDir()
	f, err := store.CreateFile(dir+"/hot.store", transportN, block.DefaultSize)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.Remove(dir + "/hot.store") })
	addrs := make([]int, hotBatch)
	for i := range addrs {
		// Two runs with a gap and one duplicate inside the first run.
		if i < hotBatch/2 {
			addrs[i] = 100 + i/2
		} else {
			addrs[i] = 700 + i
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadBatch(addrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathFileWriteBatch exercises the File coalesced / vectored
// write path.
func BenchmarkHotPathFileWriteBatch(b *testing.B) {
	dir := b.TempDir()
	f, err := store.CreateFile(dir+"/hotw.store", transportN, block.DefaultSize)
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]store.WriteOp, hotBatch)
	for i := range ops {
		ops[i] = store.WriteOp{Addr: 300 + i, Block: block.Pattern(uint64(i), block.DefaultSize)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathDPRAMRemote is the end-to-end scheme hot path: one
// DP-RAM access (2 round trips) over TCP loopback, encryption on.
func BenchmarkHotPathDPRAMRemote(b *testing.B) {
	db, err := block.PatternDatabase(transportN, block.DefaultSize)
	if err != nil {
		b.Fatal(err)
	}
	opts := dpram.Options{Rand: rng.New(5)}
	r := benchRemote(b, transportN, dpram.ServerBlockSize(block.DefaultSize, opts))
	c, err := dpram.Setup(db, r, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Access(workload.Query{Index: i % transportN, Op: workload.Read}); err != nil {
			b.Fatal(err)
		}
	}
}
