package proxy

import (
	"fmt"
	"strconv"

	"dpstore/internal/block"
	"dpstore/internal/obs"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// Partitioned fronts P independent scheme instances — each with its own
// stash, position map, master key, and coin stream, each behind its own
// Proxy scheduler — as one store.Accessor over the combined logical
// address space. Logical record u routes to partition u mod P at
// partition-local index u div P, the same striping rule store.Sharded
// applies one level down at the block layer.
//
// This is the CAOS answer to the proxy's honest limit: one scheme is one
// logical party, so a single tenant's accesses can never overlap each
// other through one instance. With P instances they overlap whenever they
// hit different partitions — a function of the logical addresses alone,
// never of the data or of which session asked.
//
// Leakage: the composed physical trace is exactly the interleaving of P
// per-partition traces, so the adversary learns (1) each partition's
// trace — oblivious by the per-scheme guarantee, since each instance runs
// the unmodified construction over its own window — and (2) which
// partition each request routed to, i.e. u mod P. Unlike store.Sharded's
// shard index, which is a function of a PHYSICAL address the scheme has
// already randomized, this is a function of the LOGICAL address the
// client queried: for P > 1 it discloses log₂ P bits of every queried
// address, and two query sequences that differ in one address's residue
// mod P are told apart with certainty (ε = ∞). Theorem 6.1 therefore holds
// only between query sequences with equal routing. The partitioned
// obliviousness tests pin exactly that weaker claim: same routing
// sequence ⇒ bit-identical per-partition traces, hot-spot or uniform.
//
// What must NOT be shared is everything the schemes' privacy proofs treat
// as per-party secret state: stashes, position maps, keys, coin streams.
// A shared stash would make one partition's overflow visible in another
// partition's trace length; a shared coin stream would correlate the
// partitions' decoy draws, letting an adversary who sees the composed
// trace separate coin-driven from query-driven accesses across
// partitions. The same goes for cipher state: each partition owns its own
// crypto.Cipher, so each draws an independent random 96-bit nonce start
// and advances its nonce counter alone — sharing one cipher would
// serialize every partition's sealing on a single atomic counter, and
// sharing a start without sharing the counter would reuse GCM nonces
// across partitions.
// NewPartitioned therefore takes fully constructed, fully independent
// Proxy instances and only routes between them.
type Partitioned struct {
	parts      []*Proxy
	records    int
	recordSize int

	// partAccesses[i] counts accesses routed to partition i — ClassRouting:
	// the partition index of every access is public by construction (the
	// adversary sees which physical window each batch lands in), so
	// exporting its distribution leaks nothing the trace does not.
	partAccesses []*obs.Counter
}

// NewPartitioned assembles a partitioned accessor over parts. Every part
// must serve the same record size, and part i must hold exactly
// store.ShardSlots(total, P, i) records — the slot counts the routing
// rule u ↦ (u mod P, u div P) produces — so that every logical address in
// [0, total) maps to a valid partition-local index and none maps past a
// partition's end.
func NewPartitioned(parts []*Proxy) (*Partitioned, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("proxy: partitioned accessor needs at least one partition")
	}
	total := 0
	for _, p := range parts {
		total += p.Records()
	}
	rs := parts[0].RecordSize()
	for i, p := range parts {
		if p.RecordSize() != rs {
			return nil, fmt.Errorf("proxy: partition %d serves %d B records, partition 0 serves %d B", i, p.RecordSize(), rs)
		}
		if want := store.ShardSlots(total, len(parts), i); p.Records() != want {
			return nil, fmt.Errorf("proxy: partition %d holds %d records, striping %d over %d partitions needs %d",
				i, p.Records(), total, len(parts), want)
		}
	}
	counters := make([]*obs.Counter, len(parts))
	for i := range parts {
		counters[i] = obs.NewCounter("dpstore_partition_accesses_total",
			obs.WithLabels("partition", strconv.Itoa(i)), obs.WithClass(obs.ClassRouting))
	}
	return &Partitioned{parts: parts, records: total, recordSize: rs, partAccesses: counters}, nil
}

// Partitions returns P. The serve loop exports it in the handshake; it is
// part of the deployment shape, not a secret (the adversary sees the
// partition index of every access anyway).
func (pt *Partitioned) Partitions() int { return len(pt.parts) }

// Part returns partition i's Proxy (tests and the daemon's shutdown path
// use it; routing callers should go through Access/AccessRecord).
func (pt *Partitioned) Part(i int) *Proxy { return pt.parts[i] }

// Records implements store.Accessor: the combined logical record count.
func (pt *Partitioned) Records() int { return pt.records }

// RecordSize implements store.Accessor.
func (pt *Partitioned) RecordSize() int { return pt.recordSize }

// route maps a logical address to (partition, partition-local index).
func (pt *Partitioned) route(u int) (part, local int) {
	p := len(pt.parts)
	return u % p, u / p
}

// Access executes one logical access on the owning partition. Accesses to
// different partitions run on independent schedulers and genuinely
// overlap; accesses to one partition serialize in arrival order there,
// with no dedup — each partition keeps the full obliviousness contract of
// a single Proxy.
func (pt *Partitioned) Access(q workload.Query) (block.Block, error) {
	if q.Index < 0 || q.Index >= pt.records {
		return nil, fmt.Errorf("proxy: index %d out of range [0,%d)", q.Index, pt.records)
	}
	part, local := pt.route(q.Index)
	pt.partAccesses[part].Inc()
	q.Index = local
	return pt.parts[part].Access(q)
}

// Read retrieves record u.
func (pt *Partitioned) Read(u int) (block.Block, error) {
	return pt.Access(workload.Query{Index: u, Op: workload.Read})
}

// Write overwrites record u and returns the previous value.
func (pt *Partitioned) Write(u int, b block.Block) (block.Block, error) {
	return pt.Access(workload.Query{Index: u, Op: workload.Write, Data: b})
}

// AccessRecord implements store.Accessor — the serve loop's entry point.
func (pt *Partitioned) AccessRecord(index int, write bool, data block.Block) (block.Block, error) {
	q := workload.Query{Index: index, Op: workload.Read}
	if write {
		q.Op = workload.Write
		q.Data = data
	}
	return pt.Access(q)
}

// Accesses sums the scheme accesses executed across all partitions.
func (pt *Partitioned) Accesses() int64 {
	var total int64
	for _, p := range pt.parts {
		total += p.Accesses()
	}
	return total
}

// Checkpoints sums the durable checkpoints written across all partitions
// (0 for non-durable partitions).
func (pt *Partitioned) Checkpoints() int64 {
	var total int64
	for _, p := range pt.parts {
		total += p.Checkpoints()
	}
	return total
}

// Epoch returns the deployment's recovery epoch: the maximum over the
// partitions' journal epochs (they are bumped together at startup, so a
// healthy deployment reports one value; 0 when no partition is durable).
func (pt *Partitioned) Epoch() uint64 {
	var e uint64
	for _, p := range pt.parts {
		if pe := p.Epoch(); pe > e {
			e = pe
		}
	}
	return e
}

// Flush waits until every partition's issued writes have landed on the
// backing store (see Proxy.Flush for the quiescence caveat).
func (pt *Partitioned) Flush() error {
	for i, p := range pt.parts {
		if err := p.Flush(); err != nil {
			return fmt.Errorf("proxy: flushing partition %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every partition, returning the first error but closing the
// rest regardless — a failed checkpoint on one partition must not leave
// the others' writer goroutines running.
func (pt *Partitioned) Close() error {
	var first error
	for i, p := range pt.parts {
		if err := p.Close(); err != nil && first == nil {
			first = fmt.Errorf("proxy: closing partition %d: %w", i, err)
		}
	}
	return first
}
