package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpstore/internal/block"
)

// Durable is a crash-safe disk-backed BatchServer: the storage engine the
// daemon runs on when data must survive process death. Where File trades
// durability for speed (no fsync, no checksums), Durable guarantees that
// every acknowledged WriteBatch is recoverable after a crash at any byte
// boundary, and that a torn page write can never corrupt previously
// acknowledged data:
//
//   - Pages file (<base>.pages): a versioned, checksummed header followed
//     by n fixed-size pages, each a blockSize-byte payload plus a CRC32C
//     trailer. A page whose checksum fails is reported as corruption, never
//     silently returned.
//
//   - Write-ahead log (<base>.wal): every WriteBatch is encoded as one
//     checksummed record and appended to the log. The record is made
//     durable (fsync) BEFORE any page is touched, so a crash mid-page-write
//     is repaired by replaying the log; a crash mid-log-append leaves a
//     torn tail that replay detects (CRC or shape mismatch) and discards —
//     the batch was never acknowledged, so discarding it is correct.
//
//   - Group commit: concurrent WriteBatch calls queued behind one fsync
//     ride the same log flush — the committer goroutine drains whatever has
//     accumulated, appends all records, syncs once, applies all pages, and
//     wakes every waiter. This amortizes the fsync exactly the way the
//     batch transport amortizes round trips: durability per batch, not per
//     caller.
//
//   - Snapshot + truncate compaction: once the log exceeds WALLimit, the
//     committer fsyncs the pages file (making every applied record durable
//     in place) and truncates the log back to its header. Replay after a
//     crash during compaction is idempotent — records re-apply the same
//     payloads to the same pages.
//
// One WriteBatch is one log record, so a batch is ATOMIC across crashes:
// after recovery either all of its ops are visible or none. (The in-memory
// Servers apply batches all-or-nothing on validation failure; Durable
// extends that to torn-write crashes, which is what the schemes'
// fault-atomicity invariants need from a restartable store.)
//
// A Durable is safe for concurrent use. Compose it per shard with Sharded
// for a striped durable store (cmd/blockstored -data -shards).
type Durable struct {
	base      string
	n         int
	blockSize int
	pageSize  int // blockSize + pageTrailer
	opts      DurableOptions

	pages *os.File
	wal   *os.File

	// pageMu serializes page reads and applies exactly like File's mutex
	// (compaction's page fsync runs outside it; see compact); the WAL append path has its own serialization through
	// the committer goroutine. It also guards the batch-path scratch below:
	// the vectored-I/O state, the per-run buffer list, and the CRC staging
	// buffer that rides interleaved with page payloads (a page on disk is
	// payload ‖ CRC32C, so a vectored run alternates payload and checksum
	// buffers).
	pageMu sync.Mutex
	vec    vectorizer
	bufs   [][]byte
	crcBuf []byte

	// sendMu guards the request channel against a Close racing in-flight
	// senders: senders hold it shared for the duration of the send, Close
	// takes it exclusively before closing the channel. (Callers are told
	// to quiesce before Close; this makes a violation an error return
	// instead of a send-on-closed-channel panic.)
	sendMu sync.RWMutex

	mu      sync.Mutex
	sticky  error // a failed log append/sync poisons the engine
	closed  bool
	walSize int64

	// Committer-goroutine-only group-commit pacing state: an EWMA of the
	// log sync latency, and a decaying estimate of concurrent writers.
	// syncGauge mirrors syncEWMA atomically for SyncLatency (the metrics
	// endpoint reads it from other goroutines).
	syncEWMA  time.Duration
	demand    int
	syncGauge atomic.Int64

	reqs  chan *walReq
	apply chan applyGroup
	done  chan struct{}
}

// applyGroup is one synced commit round handed from the committer to the
// applier: its records are durable in the log; the applier writes the
// pages and wakes the waiters. A nil reqs slice with a non-nil drained
// channel is a barrier (compaction waits on it).
type applyGroup struct {
	reqs    []*walReq
	drained chan struct{}
}

// SyncMode selects the WAL durability discipline.
type SyncMode int

const (
	// SyncGroup (the default) fsyncs once per commit round: all WriteBatch
	// calls waiting while a flush is in progress share the next fsync.
	SyncGroup SyncMode = iota
	// SyncEach fsyncs every WriteBatch individually — the per-write
	// baseline the durability benchmarks compare group commit against.
	SyncEach
	// SyncNone never fsyncs on the write path; durability is only
	// guaranteed after Sync or Close. For bulk loads and benchmarks.
	SyncNone
)

// WALTap intercepts WAL appends — the crash-injection hook the torn-write
// recovery tests are built on. Append receives the log offset the record
// will land at and the encoded record; it may return a prefix of the
// record (simulating a torn write: only those bytes reach the file) and/or
// an error (simulating the crash itself: the engine writes whatever was
// returned, then poisons itself without acknowledging the batch).
type WALTap interface {
	Append(off int64, record []byte) ([]byte, error)
}

// DurableOptions configures the engine.
type DurableOptions struct {
	// Sync selects the WAL durability discipline; zero is SyncGroup.
	Sync SyncMode
	// WALLimit is the log size (bytes) that triggers snapshot+truncate
	// compaction; zero selects 8 MiB.
	WALLimit int64
	// Tap, when non-nil, intercepts WAL appends. Crash-recovery tests
	// only; leave nil in production.
	Tap WALTap
}

const (
	pageTrailer    = 4 // CRC32C per page
	pagesHdrSize   = 40
	walHdrSize     = 16
	defaultWALSize = 8 << 20
)

var (
	pagesMagic = [8]byte{'D', 'P', 'S', 'T', 'P', 'G', 'S', '1'}
	walMagic   = [8]byte{'D', 'P', 'S', 'T', 'W', 'A', 'L', '1'}
)

// engineVersion is the on-disk format version of both files.
const engineVersion = 1

// castagnoli is the CRC32C table used for every checksum in the engine.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports on-disk corruption the engine detected (bad magic,
// version, header checksum, or page checksum).
var ErrCorrupt = errors.New("store: durable store corrupt")

// walReq is one WriteBatch waiting on the committer — or, with snapshot
// set, a Sync request: the committer is the only goroutine allowed to
// truncate the log, so explicit snapshots ride the same queue instead of
// racing it.
type walReq struct {
	rec      []byte
	ops      []WriteOp
	snapshot bool
	done     chan error
}

// CreateDurable creates a durable store at base (files <base>.pages and
// <base>.wal, truncating any existing ones) with n zeroed slots of
// blockSize bytes.
func CreateDurable(base string, n, blockSize int, opts DurableOptions) (*Durable, error) {
	if n <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("store: invalid durable store shape n=%d blockSize=%d", n, blockSize)
	}
	d := newDurable(base, n, blockSize, opts)
	pages, err := os.OpenFile(d.pagesPath(), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", d.pagesPath(), err)
	}
	d.pages = pages
	if err := d.initPages(); err != nil {
		pages.Close()
		return nil, err
	}
	if err := d.createWAL(); err != nil {
		pages.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(base)); err != nil {
		d.pages.Close()
		d.wal.Close()
		return nil, err
	}
	d.start()
	return d, nil
}

// OpenDurable opens an existing durable store at base, replaying the
// write-ahead log so the pages reflect every acknowledged batch, and
// compacting the log. A file in the legacy headerless File format (exactly
// n·blockSize bytes, as CreateFile lays out) is migrated in place to the
// versioned page format — the one-way upgrade path for stores that predate
// the engine.
func OpenDurable(base string, n, blockSize int, opts DurableOptions) (*Durable, error) {
	if n <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("store: invalid durable store shape n=%d blockSize=%d", n, blockSize)
	}
	d := newDurable(base, n, blockSize, opts)
	if err := d.openPages(); err != nil {
		return nil, err
	}
	if err := d.openWAL(); err != nil {
		d.pages.Close()
		return nil, err
	}
	if err := d.replay(); err != nil {
		d.pages.Close()
		d.wal.Close()
		return nil, err
	}
	d.start()
	return d, nil
}

// OpenOrCreateDurable opens base if its pages file exists (in either the
// engine or the legacy format) and creates it otherwise.
func OpenOrCreateDurable(base string, n, blockSize int, opts DurableOptions) (*Durable, error) {
	if _, err := os.Stat(base + ".pages"); err == nil {
		return OpenDurable(base, n, blockSize, opts)
	}
	// A bare legacy File at base itself is also an open path: migrate it.
	if st, err := os.Stat(base); err == nil && !st.IsDir() {
		return OpenDurable(base, n, blockSize, opts)
	}
	return CreateDurable(base, n, blockSize, opts)
}

func newDurable(base string, n, blockSize int, opts DurableOptions) *Durable {
	if opts.WALLimit <= 0 {
		opts.WALLimit = defaultWALSize
	}
	return &Durable{
		base:      base,
		n:         n,
		blockSize: blockSize,
		pageSize:  blockSize + pageTrailer,
		opts:      opts,
		reqs:      make(chan *walReq, 64),
		apply:     make(chan applyGroup, 4),
		done:      make(chan struct{}),
	}
}

func (d *Durable) pagesPath() string { return d.base + ".pages" }
func (d *Durable) walPath() string   { return d.base + ".wal" }

// start launches the commit pipeline: the committer (log append + sync)
// and the applier (page writes + acks).
func (d *Durable) start() {
	go d.committer()
	go d.applier()
}

// --- headers -----------------------------------------------------------------

// encodePagesHeader lays out the pages header: magic ‖ version u32 ‖
// blockSize u32 ‖ n u64 ‖ reserved u64 ‖ crc u32.
func (d *Durable) encodePagesHeader() []byte {
	h := make([]byte, pagesHdrSize)
	copy(h[:8], pagesMagic[:])
	binary.BigEndian.PutUint32(h[8:12], engineVersion)
	binary.BigEndian.PutUint32(h[12:16], uint32(d.blockSize))
	binary.BigEndian.PutUint64(h[16:24], uint64(d.n))
	binary.BigEndian.PutUint32(h[pagesHdrSize-4:], crc32.Checksum(h[:pagesHdrSize-4], castagnoli))
	return h
}

func encodeWALHeader() []byte {
	h := make([]byte, walHdrSize)
	copy(h[:8], walMagic[:])
	binary.BigEndian.PutUint32(h[8:12], engineVersion)
	binary.BigEndian.PutUint32(h[12:16], crc32.Checksum(h[:12], castagnoli))
	return h
}

// initPages writes the header plus n zeroed-payload pages (with valid
// checksums) and syncs.
func (d *Durable) initPages() error {
	if _, err := d.pages.WriteAt(d.encodePagesHeader(), 0); err != nil {
		return fmt.Errorf("store: writing pages header: %w", err)
	}
	zero := d.sealPage(make([]byte, d.blockSize))
	const windowPages = 1024
	buf := make([]byte, 0, windowPages*d.pageSize)
	off := int64(pagesHdrSize)
	for i := 0; i < d.n; i++ {
		buf = append(buf, zero...)
		if len(buf) == cap(buf) || i == d.n-1 {
			if _, err := d.pages.WriteAt(buf, off); err != nil {
				return fmt.Errorf("store: zeroing pages: %w", err)
			}
			off += int64(len(buf))
			buf = buf[:0]
		}
	}
	if err := d.pages.Sync(); err != nil {
		return fmt.Errorf("store: syncing pages: %w", err)
	}
	return nil
}

func (d *Durable) createWAL() error {
	wal, err := os.OpenFile(d.walPath(), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", d.walPath(), err)
	}
	if _, err := wal.WriteAt(encodeWALHeader(), 0); err != nil {
		wal.Close()
		return fmt.Errorf("store: writing WAL header: %w", err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	d.wal = wal
	d.walSize = walHdrSize
	return nil
}

// openPages opens and validates the pages file, migrating a legacy
// headerless File store when it finds one.
func (d *Durable) openPages() error {
	path := d.pagesPath()
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		// No .pages file: look for a legacy File-format store at base.
		if st, lerr := os.Stat(d.base); lerr == nil && st.Size() == int64(d.n)*int64(d.blockSize) {
			if err := d.migrateLegacy(); err != nil {
				return err
			}
		} else {
			return fmt.Errorf("store: opening %s: %w", path, err)
		}
	}
	pages, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", path, err)
	}
	hdr := make([]byte, pagesHdrSize)
	if _, err := io.ReadFull(io.NewSectionReader(pages, 0, pagesHdrSize), hdr); err != nil {
		pages.Close()
		return fmt.Errorf("%w: %s header unreadable: %v", ErrCorrupt, path, err)
	}
	if [8]byte(hdr[:8]) != pagesMagic {
		pages.Close()
		return fmt.Errorf("%w: %s has no engine magic (not created by CreateDurable, and not a legacy store of this shape)", ErrCorrupt, path)
	}
	if crc32.Checksum(hdr[:pagesHdrSize-4], castagnoli) != binary.BigEndian.Uint32(hdr[pagesHdrSize-4:]) {
		pages.Close()
		return fmt.Errorf("%w: %s header checksum mismatch", ErrCorrupt, path)
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != engineVersion {
		pages.Close()
		return fmt.Errorf("%w: %s is format version %d, this engine reads %d", ErrCorrupt, path, v, engineVersion)
	}
	bs := int(binary.BigEndian.Uint32(hdr[12:16]))
	n := int(binary.BigEndian.Uint64(hdr[16:24]))
	if bs != d.blockSize || n != d.n {
		pages.Close()
		return fmt.Errorf("store: %s holds %d slots × %d B, caller wants %d × %d", path, n, bs, d.n, d.blockSize)
	}
	st, err := pages.Stat()
	if err != nil {
		pages.Close()
		return fmt.Errorf("store: stat %s: %w", path, err)
	}
	if want := int64(pagesHdrSize) + int64(d.n)*int64(d.pageSize); st.Size() != want {
		pages.Close()
		return fmt.Errorf("%w: %s has size %d, want %d", ErrCorrupt, path, st.Size(), want)
	}
	d.pages = pages
	return nil
}

// migrateLegacy converts a headerless CreateFile-format store at base into
// the engine's page format, atomically: the converted copy is built at a
// temp path, synced, and renamed to <base>.pages; the legacy file is
// removed only after the rename lands. A crash mid-migration leaves either
// the legacy file (retry migrates again) or the finished pages file.
func (d *Durable) migrateLegacy() error {
	legacy, err := os.Open(d.base)
	if err != nil {
		return fmt.Errorf("store: opening legacy store %s: %w", d.base, err)
	}
	defer legacy.Close()
	tmp := d.pagesPath() + ".tmp"
	out, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	defer os.Remove(tmp)
	if _, err := out.WriteAt(d.encodePagesHeader(), 0); err != nil {
		out.Close()
		return fmt.Errorf("store: migrating %s: %w", d.base, err)
	}
	raw := make([]byte, d.blockSize)
	off := int64(pagesHdrSize)
	for i := 0; i < d.n; i++ {
		if _, err := io.ReadFull(io.NewSectionReader(legacy, int64(i)*int64(d.blockSize), int64(d.blockSize)), raw); err != nil {
			out.Close()
			return fmt.Errorf("store: migrating %s: reading slot %d: %w", d.base, i, err)
		}
		if _, err := out.WriteAt(d.sealPage(raw), off); err != nil {
			out.Close()
			return fmt.Errorf("store: migrating %s: writing page %d: %w", d.base, i, err)
		}
		off += int64(d.pageSize)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("store: migrating %s: %w", d.base, err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("store: migrating %s: %w", d.base, err)
	}
	if err := os.Rename(tmp, d.pagesPath()); err != nil {
		return fmt.Errorf("store: migrating %s: %w", d.base, err)
	}
	if err := os.Remove(d.base); err != nil {
		return fmt.Errorf("store: removing migrated legacy store: %w", err)
	}
	return syncDir(filepath.Dir(d.base))
}

// openWAL opens (or creates) the log and validates its header.
func (d *Durable) openWAL() error {
	if _, err := os.Stat(d.walPath()); errors.Is(err, os.ErrNotExist) {
		return d.createWAL()
	}
	wal, err := os.OpenFile(d.walPath(), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", d.walPath(), err)
	}
	hdr := make([]byte, walHdrSize)
	if _, err := io.ReadFull(io.NewSectionReader(wal, 0, walHdrSize), hdr); err != nil {
		wal.Close()
		return fmt.Errorf("%w: %s header unreadable: %v", ErrCorrupt, d.walPath(), err)
	}
	if [8]byte(hdr[:8]) != walMagic ||
		crc32.Checksum(hdr[:12], castagnoli) != binary.BigEndian.Uint32(hdr[12:16]) {
		wal.Close()
		return fmt.Errorf("%w: %s has an invalid WAL header", ErrCorrupt, d.walPath())
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != engineVersion {
		wal.Close()
		return fmt.Errorf("%w: %s is WAL version %d, this engine reads %d", ErrCorrupt, d.walPath(), v, engineVersion)
	}
	d.wal = wal
	return nil
}

// replay applies every intact log record to the pages file, truncates the
// log at the first torn or corrupt record (which by the commit protocol
// was never acknowledged), then compacts: pages fsync, log truncated to
// its header. After replay the store is exactly the last acknowledged
// state.
func (d *Durable) replay() error {
	st, err := d.wal.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", d.walPath(), err)
	}
	size := st.Size()
	off := int64(walHdrSize)
	var lenBuf [4]byte
	for off < size {
		if size-off < 4 {
			break // torn length prefix
		}
		if _, err := d.wal.ReadAt(lenBuf[:], off); err != nil {
			return fmt.Errorf("store: reading WAL at %d: %w", off, err)
		}
		recLen := int64(binary.BigEndian.Uint32(lenBuf[:]))
		if recLen < 4+pageTrailer || off+4+recLen > size {
			break // torn or nonsense record
		}
		rec := make([]byte, recLen)
		if _, err := d.wal.ReadAt(rec, off+4); err != nil {
			return fmt.Errorf("store: reading WAL record at %d: %w", off, err)
		}
		ops, ok := d.decodeWALRecord(rec)
		if !ok {
			break // corrupt record: crashed mid-append, batch unacknowledged
		}
		if err := d.applyPages(ops); err != nil {
			return err
		}
		off += 4 + recLen
	}
	// Compact: make the applied records durable in the pages, then drop
	// the log (including any torn tail).
	if err := d.compact(); err != nil {
		return fmt.Errorf("store: after replay: %w", err)
	}
	return nil
}

// --- WAL records -------------------------------------------------------------

// encodeWALRecord lays one WriteBatch out as:
//
//	length u32 ‖ count u32 ‖ count × addr u64 ‖ count × payload ‖ crc u32
//
// where length covers everything after itself and crc covers everything
// between length and itself.
func (d *Durable) encodeWALRecord(ops []WriteOp) []byte {
	body := 4 + len(ops)*(8+d.blockSize) + 4
	rec := make([]byte, 4+body)
	binary.BigEndian.PutUint32(rec[0:4], uint32(body))
	binary.BigEndian.PutUint32(rec[4:8], uint32(len(ops)))
	p := 8
	for _, op := range ops {
		binary.BigEndian.PutUint64(rec[p:], uint64(op.Addr))
		p += 8
	}
	for _, op := range ops {
		copy(rec[p:], op.Block)
		p += d.blockSize
	}
	binary.BigEndian.PutUint32(rec[p:], crc32.Checksum(rec[4:p], castagnoli))
	return rec
}

// decodeWALRecord parses a record body (everything after the length
// prefix), returning ok=false for any shape, bound, or checksum violation.
func (d *Durable) decodeWALRecord(rec []byte) ([]WriteOp, bool) {
	if len(rec) < 4+pageTrailer {
		return nil, false
	}
	crcOff := len(rec) - 4
	if crc32.Checksum(rec[:crcOff], castagnoli) != binary.BigEndian.Uint32(rec[crcOff:]) {
		return nil, false
	}
	count := int(binary.BigEndian.Uint32(rec[0:4]))
	if count < 0 || 4+count*(8+d.blockSize)+4 != len(rec) {
		return nil, false
	}
	ops := make([]WriteOp, count)
	addrOff, dataOff := 4, 4+count*8
	for i := range ops {
		a := binary.BigEndian.Uint64(rec[addrOff+8*i:])
		if a >= uint64(d.n) {
			return nil, false
		}
		ops[i] = WriteOp{
			Addr:  int(a),
			Block: block.Block(rec[dataOff+i*d.blockSize : dataOff+(i+1)*d.blockSize]),
		}
	}
	return ops, true
}

// --- page I/O ----------------------------------------------------------------

// sealPage returns payload ‖ CRC32C(payload).
func (d *Durable) sealPage(payload []byte) []byte {
	page := make([]byte, d.pageSize)
	copy(page, payload)
	binary.BigEndian.PutUint32(page[d.blockSize:], crc32.Checksum(payload, castagnoli))
	return page
}

func (d *Durable) pageOff(addr int) int64 {
	return int64(pagesHdrSize) + int64(addr)*int64(d.pageSize)
}

// sortKeyBits is the index width of the composite (addr ‖ index) sort
// keys: sorting plain uint64s is several times cheaper than a reflective
// sort.SliceStable over WriteOp structs, and packing the original index
// into the low bits makes the integer sort stable by construction
// (duplicate addresses order by submission index).
const sortKeyBits = 20

// sortKeys builds and sorts the composite keys for count ops addressed by
// addrOf. Returns nil when the shape exceeds the packing bounds (caller
// falls back to a stable struct sort) — unreachable for real stores (2^43
// slots, 2^20 ops per round) but kept exact.
func sortKeys(count int, addrOf func(i int) int) []uint64 {
	if count >= 1<<sortKeyBits {
		return nil
	}
	keys := make([]uint64, count)
	for i := 0; i < count; i++ {
		a := addrOf(i)
		if a >= 1<<(64-sortKeyBits) {
			return nil
		}
		keys[i] = uint64(a)<<sortKeyBits | uint64(i)
	}
	slices.Sort(keys)
	return keys
}

// applyPages writes the ops' pages, coalescing address-sorted runs into
// one vectored write each like File does. No fsync: durability comes from
// the already-synced log record. Caller need not hold pageMu; applyPages
// takes it.
func (d *Durable) applyPages(ops []WriteOp) error {
	count := len(ops)
	var addrAt func(k int) int
	var opAt func(k int) WriteOp
	if keys := sortKeys(count, func(i int) int { return ops[i].Addr }); keys != nil {
		addrAt = func(k int) int { return int(keys[k] >> sortKeyBits) }
		opAt = func(k int) WriteOp { return ops[keys[k]&(1<<sortKeyBits-1)] }
	} else {
		sorted := append([]WriteOp(nil), ops...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		addrAt = func(k int) int { return sorted[k].Addr }
		opAt = func(k int) WriteOp { return sorted[k] }
	}
	maxRun := fileMaxRunBytes / d.pageSize
	if maxRun < 1 {
		maxRun = 1
	}
	d.pageMu.Lock()
	defer d.pageMu.Unlock()
	for start := 0; start < count; {
		end := start + 1
		for end < count && addrAt(end)-addrAt(end-1) <= 1 &&
			addrAt(end)-addrAt(start) < maxRun {
			end++
		}
		base, last := addrAt(start), addrAt(end-1)
		// Gather the run directly from the ops' blocks, alternating each
		// payload with its 4-byte CRC trailer from the staging buffer — the
		// on-disk page layout — so a run is one vectored write with no page
		// assembly copy. Duplicate addresses collapse to the last op (a
		// vectored write lands buffers at consecutive offsets, so earlier
		// duplicates must not occupy a slot), preserving last-write-wins.
		// Every page in [base,last] is covered because consecutive run
		// members differ by at most one address.
		if need := (last - base + 1) * pageTrailer; cap(d.crcBuf) < need {
			d.crcBuf = make([]byte, need)
		}
		d.bufs = d.bufs[:0]
		pages := 0
		for k := start; k < end; {
			j := k
			for j+1 < end && addrAt(j+1) == addrAt(k) {
				j++ // stable sort: the last duplicate is the batch's last write
			}
			op := opAt(j)
			crc := d.crcBuf[pages*pageTrailer : (pages+1)*pageTrailer]
			binary.BigEndian.PutUint32(crc, crc32.Checksum(op.Block, castagnoli))
			d.bufs = append(d.bufs, op.Block, crc)
			pages++
			k = j + 1
		}
		if err := d.vec.writev(d.pages, d.bufs, d.pageOff(base)); err != nil {
			return fmt.Errorf("store: writing pages [%d,%d]: %w", base, last, err)
		}
		start = end
	}
	return nil
}

// --- committer ---------------------------------------------------------------

// groupCap bounds how many queued batches one commit round may merge; far
// above anything the 64-deep request channel can hold, it only guards a
// pathological backlog from building an unbounded apply list.
const groupCap = 256

// committer appends log records and makes them durable, one sync per
// group — the group-commit heart of the engine. Synced groups are handed
// to the applier, so the NEXT group's log write and sync overlap the
// PREVIOUS group's page writes: on a device where the sync dominates,
// page-apply time disappears from the critical path entirely.
func (d *Durable) committer() {
	defer close(d.apply)
	for {
		first, ok := <-d.reqs
		if !ok {
			return
		}
		if first.snapshot {
			d.doSnapshot(first)
			continue
		}
		group := []*walReq{first}
		var snaps []*walReq
		closing := false
		if d.opts.Sync != SyncEach {
			// Group commit: everything already queued rides this sync.
		gather:
			for len(group) < groupCap {
				select {
				case more, ok := <-d.reqs:
					if !ok {
						closing = true
						break gather
					}
					if more.snapshot {
						snaps = append(snaps, more)
						continue
					}
					group = append(group, more)
				default:
					break gather
				}
			}
			// Adaptive pacing: if the previous round proved there are
			// concurrent writers (group > 1), most of them are being woken
			// by the applier's acks RIGHT NOW and will resubmit within a
			// fraction of one sync latency. Waiting that fraction grows
			// the group toward the full client count, so each sync is
			// amortized over ~C batches instead of the 2–3 that happen to
			// be queued when the round opens. A lone writer (prevGroup
			// ≤ 1) never waits — no latency tax on the uncontended path.
			// The wait stops as soon as the group reaches the demand
			// estimate — a decaying maximum of recent round sizes — so a
			// full house never burns the window idling, while a slow
			// resubmitter does not collapse the estimate for everyone.
			if !closing && len(group) < d.demand {
				window := d.syncEWMA / 2
				if window > 0 {
					timer := time.NewTimer(window)
				paced:
					for len(group) < d.demand {
						select {
						case more, ok := <-d.reqs:
							if !ok {
								closing = true
								break paced
							}
							if more.snapshot {
								snaps = append(snaps, more)
								continue
							}
							group = append(group, more)
						case <-timer.C:
							break paced
						}
					}
					timer.Stop()
				}
			}
		}
		if len(group) >= d.demand {
			d.demand = len(group)
		} else {
			d.demand = (3*d.demand + len(group)) / 4
		}
		d.commit(group)
		for _, s := range snaps {
			d.doSnapshot(s)
		}
		if closing {
			return
		}
	}
}

// compact makes every applied page durable and truncates the log back to
// its header — the single implementation of the snapshot protocol. The
// order is load-bearing: pages fsync BEFORE log truncate, so a crash
// between the two steps leaves at worst a replayable log, never pages
// that silently lost their protection. Callers must guarantee no group is
// mid-apply: the committer calls it after drainApplier, the open path
// before the pipeline starts, Close after it has exited.
//
// The page fsync runs without pageMu. The applier is the only page writer,
// and every caller has it drained or stopped, so nothing can write a page
// during the fsync; only ReadBatch can run beside it, and a read neither
// needs nor disturbs the pages' durability. Holding pageMu here made every
// read that arrived during a compaction wait out the page fsync.
func (d *Durable) compact() error {
	if err := d.pages.Sync(); err != nil {
		return fmt.Errorf("store: syncing pages: %w", err)
	}
	if err := d.wal.Truncate(walHdrSize); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if err := d.wal.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	d.mu.Lock()
	d.walSize = walHdrSize
	d.mu.Unlock()
	return nil
}

// doSnapshot services one Sync request on the committer goroutine: drain
// the applier, force the pages durable, truncate the log.
func (d *Durable) doSnapshot(s *walReq) {
	d.drainApplier()
	err := d.compact()
	if err != nil {
		err = d.poison(fmt.Errorf("store: snapshot: %w", err))
	}
	s.done <- err
}

// commit makes one group's records durable and forwards it to the
// applier. An append or sync failure poisons the engine and fails the
// group's waiters directly — their batches are not acknowledged, and the
// on-disk tail, whatever made it out, will be discarded by replay.
func (d *Durable) commit(group []*walReq) {
	obsWALCommitGroup.Record(int64(len(group)))
	if err := d.appendAndSync(group); err != nil {
		err = d.poison(err)
		for _, r := range group {
			r.done <- err
		}
		return
	}
	d.apply <- applyGroup{reqs: group}
	d.maybeCompact()
}

// applier writes the synced groups' pages and wakes their waiters, in
// commit order. One merged applyPages call per group: the whole round's
// ops sort and coalesce together (stable, so cross-batch duplicate
// addresses keep last-write-wins), costing one lock acquisition and
// run-length WriteAts instead of per-batch ones.
func (d *Durable) applier() {
	defer close(d.done)
	for g := range d.apply {
		if g.reqs == nil {
			close(g.drained)
			continue
		}
		var ops []WriteOp
		if len(g.reqs) == 1 {
			ops = g.reqs[0].ops
		} else {
			total := 0
			for _, r := range g.reqs {
				total += len(r.ops)
			}
			ops = make([]WriteOp, 0, total)
			for _, r := range g.reqs {
				ops = append(ops, r.ops...)
			}
		}
		t0 := time.Now()
		err := d.applyPages(ops)
		obsWALApply.Since(t0)
		if err != nil {
			err = d.poison(err)
		}
		for _, r := range g.reqs {
			r.done <- err
		}
	}
}

// poison latches the first fatal error and returns the sticky value.
func (d *Durable) poison(err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky == nil {
		d.sticky = fmt.Errorf("store: durable commit failed: %w", err)
	}
	return d.sticky
}

// drainApplier inserts a barrier into the apply stream and waits for it:
// afterwards every previously synced group's pages are written. Called by
// the committer (compaction) and the close path.
func (d *Durable) drainApplier() {
	barrier := applyGroup{drained: make(chan struct{})}
	d.apply <- barrier
	<-barrier.drained
}

// appendAndSync writes the group's records contiguously at the log tail
// and makes them durable per the sync mode.
func (d *Durable) appendAndSync(group []*walReq) error {
	tAppend := time.Now()
	d.mu.Lock()
	off := d.walSize
	d.mu.Unlock()
	var buf []byte
	if len(group) == 1 {
		buf = group[0].rec
	} else {
		total := 0
		for _, r := range group {
			total += len(r.rec)
		}
		buf = make([]byte, 0, total)
		for _, r := range group {
			buf = append(buf, r.rec...)
		}
	}
	if tap := d.opts.Tap; tap != nil {
		torn, terr := tap.Append(off, buf)
		if terr != nil {
			if len(torn) > 0 {
				d.wal.WriteAt(torn, off) //nolint:errcheck // simulated torn tail
			}
			return terr
		}
		buf = torn
	}
	if _, err := d.wal.WriteAt(buf, off); err != nil {
		return fmt.Errorf("store: appending WAL: %w", err)
	}
	if d.opts.Sync != SyncNone {
		t0 := time.Now()
		obsWALAppend.Observe(t0.Sub(tAppend))
		if err := Datasync(d.wal); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
		// EWMA (α = 1/4) of sync latency, read only by the committer;
		// mirrored into the atomic gauge for SyncLatency.
		fsync := time.Since(t0)
		obsWALFsync.Observe(fsync)
		d.syncEWMA += (fsync - d.syncEWMA) / 4
		d.syncGauge.Store(int64(d.syncEWMA))
	} else {
		obsWALAppend.Since(tAppend)
	}
	d.mu.Lock()
	d.walSize = off + int64(len(buf))
	d.mu.Unlock()
	return nil
}

// maybeCompact snapshots and truncates the log once it outgrows WALLimit.
// Runs on the committer goroutine, so no new records can interleave; the
// applier is drained first, because truncating the log before a synced
// group's pages are written would un-protect exactly the records that
// still need replay.
func (d *Durable) maybeCompact() {
	d.mu.Lock()
	over := d.walSize > d.opts.WALLimit
	d.mu.Unlock()
	if !over {
		return
	}
	obsWALCompactions.Inc()
	d.drainApplier()
	if err := d.compact(); err != nil {
		d.poison(fmt.Errorf("store: WAL compaction failed: %w", err)) //nolint:errcheck
	}
}

// --- Server / BatchServer ----------------------------------------------------

// Size implements Server.
func (d *Durable) Size() int { return d.n }

// BlockSize implements Server.
func (d *Durable) BlockSize() int { return d.blockSize }

// Download implements Server.
func (d *Durable) Download(addr int) (block.Block, error) {
	blocks, err := d.ReadBatch([]int{addr})
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// Upload implements Server.
func (d *Durable) Upload(addr int, b block.Block) error {
	return d.WriteBatch([]WriteOp{{Addr: addr, Block: b}})
}

// ReadBatch implements BatchServer with File-style run coalescing over
// pages; every page's checksum is verified before its payload is returned.
func (d *Durable) ReadBatch(addrs []int) ([]block.Block, error) {
	if err := d.gate(); err != nil {
		return nil, err
	}
	for _, a := range addrs {
		if a < 0 || a >= d.n {
			return nil, fmt.Errorf("%w: %d (size %d)", ErrAddr, a, d.n)
		}
	}
	var order []int
	if keys := sortKeys(len(addrs), func(i int) int { return addrs[i] }); keys != nil {
		order = make([]int, len(keys))
		for i, k := range keys {
			order[i] = int(k & (1<<sortKeyBits - 1))
		}
	} else {
		order = make([]int, len(addrs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return addrs[order[a]] < addrs[order[b]] })
	}
	out := newSlab(len(addrs), d.blockSize)
	maxRun := fileMaxRunBytes / d.pageSize
	if maxRun < 1 {
		maxRun = 1
	}
	d.pageMu.Lock()
	defer d.pageMu.Unlock()
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && addrs[order[end]]-addrs[order[end-1]] <= 1 &&
			addrs[order[end]]-addrs[order[start]] < maxRun {
			end++
		}
		base := addrs[order[start]]
		last := addrs[order[end-1]]
		// Scatter the run directly into the result slab, each payload
		// alternating with its CRC trailer into the staging buffer (the
		// on-disk page layout): one vectored read per run, no page assembly
		// copy. Duplicates are read once and filled from the first
		// occurrence afterwards.
		if need := (last - base + 1) * pageTrailer; cap(d.crcBuf) < need {
			d.crcBuf = make([]byte, need)
		}
		d.bufs = d.bufs[:0]
		pages, prev := 0, -1
		for k := start; k < end; k++ {
			oi := order[k]
			if addrs[oi] == prev {
				continue
			}
			prev = addrs[oi]
			d.bufs = append(d.bufs, out[oi], d.crcBuf[pages*pageTrailer:(pages+1)*pageTrailer])
			pages++
		}
		if err := d.vec.readv(d.pages, d.bufs, d.pageOff(base)); err != nil {
			return nil, fmt.Errorf("store: reading pages [%d,%d]: %w", base, last, err)
		}
		pages, prev = 0, -1
		for k := start; k < end; k++ {
			oi := order[k]
			if addrs[oi] == prev {
				copy(out[oi], out[order[k-1]])
				continue
			}
			prev = addrs[oi]
			crc := d.crcBuf[pages*pageTrailer : (pages+1)*pageTrailer]
			pages++
			if crc32.Checksum(out[oi], castagnoli) != binary.BigEndian.Uint32(crc) {
				return nil, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, addrs[oi])
			}
		}
		start = end
	}
	return out, nil
}

// WriteBatch implements BatchServer: the whole batch becomes one WAL
// record — atomic across crashes — made durable before any page is
// written, and acknowledged only once both have happened.
func (d *Durable) WriteBatch(ops []WriteOp) error {
	if len(ops) == 0 {
		return nil
	}
	if err := d.gate(); err != nil {
		return err
	}
	for _, op := range ops {
		if op.Addr < 0 || op.Addr >= d.n {
			return fmt.Errorf("%w: %d (size %d)", ErrAddr, op.Addr, d.n)
		}
		if len(op.Block) != d.blockSize {
			return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(op.Block), d.blockSize)
		}
	}
	cp := make([]WriteOp, len(ops))
	for i, op := range ops {
		cp[i] = WriteOp{Addr: op.Addr, Block: op.Block.Copy()}
	}
	req := &walReq{rec: d.encodeWALRecord(cp), ops: cp, done: make(chan error, 1)}
	if err := d.send(req); err != nil {
		return err
	}
	return <-req.done
}

// send enqueues a request onto the commit queue, failing (instead of
// panicking) if it races a Close.
func (d *Durable) send(req *walReq) error {
	d.sendMu.RLock()
	defer d.sendMu.RUnlock()
	if err := d.gate(); err != nil {
		return err
	}
	d.reqs <- req
	return nil
}

// gate is the common closed/poisoned check.
func (d *Durable) gate() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky != nil {
		return d.sticky
	}
	if d.closed {
		return fmt.Errorf("store: durable store %s is closed", d.base)
	}
	return nil
}

// SyncLatency returns the engine's observed WAL fsync latency (EWMA,
// α = 1/4), zero until the first synced commit or under SyncNone. The
// metrics endpoint exports it per namespace — a climbing value is the
// earliest warning that the disk, not the CPU, is the bottleneck.
func (d *Durable) SyncLatency() time.Duration {
	return time.Duration(d.syncGauge.Load())
}

// WALSize returns the current log size in bytes (header included); tests
// and operators use it to observe compaction.
func (d *Durable) WALSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walSize
}

// Sync forces everything acknowledged so far durable into the pages file
// and compacts the log — the explicit snapshot point (SyncNone callers use
// it after bulk loads). It rides the commit queue, so it orders cleanly
// after every WriteBatch that returned before it was called.
func (d *Durable) Sync() error {
	if err := d.gate(); err != nil {
		return err
	}
	req := &walReq{snapshot: true, done: make(chan error, 1)}
	if err := d.send(req); err != nil {
		return err
	}
	return <-req.done
}

// Close drains the committer, snapshots the pages, truncates the log, and
// closes both files. A cleanly closed store replays nothing on reopen.
func (d *Durable) Close() error {
	d.mu.Lock()
	already := d.closed
	d.closed = true
	d.mu.Unlock()
	if already {
		return nil
	}
	// Exclusive sendMu waits out any sender that passed the gate before
	// closed was set, so the channel close below cannot race a send.
	d.sendMu.Lock()
	close(d.reqs)
	d.sendMu.Unlock()
	<-d.done
	var first error
	d.mu.Lock()
	poisoned := d.sticky != nil
	d.mu.Unlock()
	if !poisoned {
		// Snapshot so a clean shutdown needs no replay. (A poisoned engine
		// skips this: its WAL tail is the authoritative record of what was
		// — and was not — acknowledged.)
		if err := d.compact(); err != nil && first == nil {
			first = err
		}
	}
	if err := d.wal.Close(); err != nil && first == nil {
		first = err
	}
	if err := d.pages.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir %s: %w", dir, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: syncing dir %s: %w", dir, err)
	}
	return nil
}

// Wait compile-time interface checks.
var (
	_ BatchServer = (*Durable)(nil)
	_ io.Closer   = (*Durable)(nil)
)
