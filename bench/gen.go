package main

import (
	"encoding/binary"
	"hash/fnv"

	"dpstore/internal/rng"
)

// batchLen is the block count of the batch ops of blocksvc-mixed.
const batchLen = 16

type opKind uint8

const (
	opRead opKind = iota // one logical record read
	opWrite
	opReadBatch // blocksvc-mixed: batchLen blocks in one frame
	opWriteBatch
	opDownload // blocksvc-mixed: one block in a per-block frame
	opUpload
	numOpKinds
)

// op is one generated client operation. Single-block kinds use addrs[0].
type op struct {
	kind  opKind
	n     int
	addrs [batchLen]int
}

// mixCycle is the op mix of blocksvc-mixed as a multiset of 20 calls: 40 %
// ReadBatch, 20 % WriteBatch, 25 % Download, 15 % Upload. The generator
// walks a seeded shuffle of it over and over, so the mix — and with it the
// blocks moved per call, exactly 10 — is the same on every seed while the
// order and the addresses are not.
var mixCycle = [numOpKinds]int{opReadBatch: 8, opWriteBatch: 4, opDownload: 5, opUpload: 3}

// generator draws one client's operations from a seeded source. The client
// owns the addresses ≡ client mod clients of a space, so no two clients
// ever touch the same record and each can check its reads against its own
// shadow copy without coordination.
type generator struct {
	src       *rng.Source
	client    int
	clients   int
	owned     int // addresses this client owns: space / clients
	writeFrac float64
	cycle     []opKind // non-nil: walk this pattern instead of flipping writeFrac coins
	pos       int
}

// newRecordGen generates logical reads and writes over [0, space).
func newRecordGen(seed int64, client, clients, space int, writeFrac float64) *generator {
	return &generator{
		src:    rng.New(seed*1000003 + int64(client)*7919),
		client: client, clients: clients, owned: space / clients, writeFrac: writeFrac,
	}
}

// newMixGen generates the blocksvc-mixed call mix over a tenant's whole
// address space.
func newMixGen(seed int64, client, space int) *generator {
	g := newRecordGen(seed, client, 1, space, 0)
	g.client = 0
	for k, n := range mixCycle {
		for i := 0; i < n; i++ {
			g.cycle = append(g.cycle, opKind(k))
		}
	}
	g.src.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
	return g
}

func (g *generator) next(o *op) {
	switch {
	case g.cycle != nil:
		o.kind = g.cycle[g.pos]
		g.pos = (g.pos + 1) % len(g.cycle)
	case g.src.Float64() < g.writeFrac:
		o.kind = opWrite
	default:
		o.kind = opRead
	}
	o.n = 1
	if o.kind == opReadBatch || o.kind == opWriteBatch {
		o.n = batchLen
	}
	for i := 0; i < o.n; i++ {
		o.addrs[i] = g.src.Intn(g.owned)*g.clients + g.client
	}
}

// atBoundary reports whether the generator stands at the start of a round
// of its cycle (always, when it has none). A slice of load ends only there,
// so every slice of blocksvc-mixed holds whole rounds and moves exactly ten
// blocks per call.
func (g *generator) atBoundary() bool { return g.pos == 0 }

// sequenceHash folds the generator's next count operations into one hash:
// the determinism check of the seeded inputs.
func (g *generator) sequenceHash(count int) uint64 {
	h := fnv.New64a()
	var o op
	var buf [8]byte
	for i := 0; i < count; i++ {
		g.next(&o)
		buf[0] = byte(o.kind)
		h.Write(buf[:1])
		for _, a := range o.addrs[:o.n] {
			binary.LittleEndian.PutUint64(buf[:], uint64(a))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// shadow is the correctness oracle's model of one address space: the
// version last written to every address. A block's content is a pure
// function of (address, version), so a read is checked without keeping a
// copy of the data. Version 0 is the content uploaded at set-up.
type shadow struct {
	ver []uint32
}

func newShadow(space int) *shadow { return &shadow{ver: make([]uint32, space)} }

func contentWord(addr int, ver uint32) uint64 {
	x := uint64(addr)<<32 | uint64(ver)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillBlock writes the content of (addr, ver) into b, whose length is a
// multiple of 8.
func fillBlock(b []byte, addr int, ver uint32) {
	binary.LittleEndian.PutUint64(b, contentWord(addr, ver))
	for n := 8; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// checkBlock reports whether b holds exactly the content of (addr, ver).
func checkBlock(b []byte, addr int, ver uint32) bool {
	if len(b) == 0 || len(b)%8 != 0 {
		return false
	}
	w := contentWord(addr, ver)
	for i := 0; i < len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != w {
			return false
		}
	}
	return true
}
