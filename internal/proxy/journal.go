package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"dpstore/internal/block"
	"dpstore/internal/statecodec"
	"dpstore/internal/store"
)

// Journal is the proxy's durable checkpoint log: an append-only file of
// CRC-framed records, each describing a complete Checkpoint (scheme client
// state plus the acked-but-unflushed physical writes at that instant). The
// pending writes are stored whole; the state is stored as a DELTA against
// the state of the record before it — the bytes between the longest common
// prefix and suffix — so a record costs what one checkpoint changed, not
// what the scheme holds. A record whose prefix and suffix are both empty
// is a full snapshot: the first record of every file is one (there is no
// base before it), and so is any record whose state shares neither end
// with its predecessor. Recovery replays the chain from the file's first
// record and needs only the LAST intact state, so compaction is trivial:
// when the log outgrows its limit, it is rewritten (atomically, via
// rename) to hold just the newest checkpoint as one full record.
//
// The commit protocol the scheduler follows makes the journal the single
// source of truth for what was acknowledged:
//
//  1. run the scheme accesses (their writes are HELD by the journaled
//     Pipeline, visible to the scheme through the pending overlay but not
//     yet on the store);
//  2. Append a checkpoint capturing the post-access scheme state and the
//     held writes;
//  3. Release the pipeline barrier (the writes may now land);
//  4. acknowledge the clients.
//
// A crash before 2 completes leaves the store consistent with the
// PREVIOUS checkpoint (the held writes never landed); a crash after 2 is
// repaired by restoring the state and replaying Pending — idempotent, the
// same ciphertexts to the same slots. Torn tails from a crash mid-append
// fail the CRC and are discarded at open, which is correct: their
// accesses were never acknowledged.
//
// A delta is only as good as its base, so the in-memory base advances only
// once a record is on stable storage, and the first failed append fails
// the journal for good: what lies behind the last known-good offset is
// then unknown, and appending past it could chain a delta onto a record
// recovery will discard.
//
// The journal also owns the proxy's recovery epoch, bumped on every open
// and reported through the wire handshake.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	limit int64
	size  int64
	epoch uint64
	buf   []byte // frame scratch, reused across appends
	err   error  // first append failure; sticky

	// base is the state of the newest durable record — the caller's
	// Checkpoint.State itself, which is never written again — and
	// baseCRC its checksum: what the next delta is against.
	base    []byte
	baseCRC uint32
}

// Checkpoint is one recoverable proxy state: everything needed to resume
// serving over a crash-recovered physical store.
type Checkpoint struct {
	// State is the scheme's MarshalState snapshot. Neither the journal
	// nor the caller writes it once it is handed over (the journal keeps
	// it as the next delta's base), and a State that is the very slice of
	// the last durable checkpoint means the state has not changed: Append
	// then writes an empty delta without reading it.
	State []byte
	// Pending holds the acked-but-unflushed physical writes at snapshot
	// time, freshest per address in sequence order. Recovery replays them
	// onto the store before the scheme resumes.
	Pending []store.WriteOp
}

// ErrJournal reports a journal file the codec cannot use.
var ErrJournal = errors.New("proxy: invalid journal")

const (
	journalHdrSize     = 24
	defaultJournalSize = 64 << 20
)

var journalMagic = [8]byte{'D', 'P', 'S', 'T', 'J', 'N', 'L', '1'}

const journalVersion = 2

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// appendJournalHeader lays out magic ‖ version u32 ‖ epoch u64 ‖ crc u32.
func appendJournalHeader(dst []byte, epoch uint64) []byte {
	start := len(dst)
	dst = append(dst, journalMagic[:]...)
	dst = binary.BigEndian.AppendUint32(dst, journalVersion)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], journalCRC))
}

// commonPrefix returns how many leading bytes a and b share.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:]) {
			break
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns how many trailing bytes a and b share.
func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(a[len(a)-i-8:]) != binary.LittleEndian.Uint64(b[len(b)-i-8:]) {
			break
		}
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// appendRecord frames ck onto dst as length u32 ‖ payload ‖ crc u32, the
// length counting payload and crc, the crc covering the payload:
//
//	prefixLen u32 ‖ suffixLen u32 ‖ middleLen u32 ‖ middle ‖ stateCRC u32 ‖
//	pendingCount u32 ‖ blockSize u32 ‖ count × (addr u64 ‖ block)
//
// The record's state is base[:prefixLen] ‖ middle ‖ base[len-suffixLen:]
// and stateCRC is its checksum, which appendRecord also returns. A nil
// base yields a full record. A state that is base's own slice (same first
// element and length) is unchanged by the State contract: its empty delta
// is written from the lengths and baseCRC alone — the bytes a scan of an
// equal copy would produce — without reading either.
func appendRecord(dst, base []byte, baseCRC uint32, ck Checkpoint) ([]byte, uint32, error) {
	blockSize := 0
	if len(ck.Pending) > 0 {
		blockSize = len(ck.Pending[0].Block)
		if blockSize == 0 {
			return nil, 0, fmt.Errorf("%w: zero-sized pending block", ErrJournal)
		}
	}
	prefix, suffix, sum := len(base), 0, baseCRC
	if len(base) == 0 || len(base) != len(ck.State) || &base[0] != &ck.State[0] {
		prefix = commonPrefix(base, ck.State)
		suffix = commonSuffix(base[prefix:], ck.State[prefix:])
		sum = crc32.Checksum(ck.State, journalCRC)
	}
	middle := ck.State[prefix : len(ck.State)-suffix]

	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // length, patched below
	dst = binary.BigEndian.AppendUint32(dst, uint32(prefix))
	dst = binary.BigEndian.AppendUint32(dst, uint32(suffix))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(middle)))
	dst = append(dst, middle...)
	dst = binary.BigEndian.AppendUint32(dst, sum)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ck.Pending)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(blockSize))
	for _, op := range ck.Pending {
		if len(op.Block) != blockSize {
			return nil, 0, fmt.Errorf("%w: ragged pending block (%d B, want %d)", ErrJournal, len(op.Block), blockSize)
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(op.Addr))
		dst = append(dst, op.Block...)
	}
	payload := dst[start+4:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)+4))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, journalCRC)), sum, nil
}

// applyRecord parses one CRC-valid record payload and applies its delta to
// base, returning the record's state (in scratch's storage when the length
// changes, else in place), the spare buffer, and the still-encoded pending
// set. A payload that does not parse, does not fit its base or does not
// reproduce its recorded state CRC is a broken chain, not a torn tail.
func applyRecord(base, scratch, payload []byte) (state, spare, pending []byte, err error) {
	if len(payload) < 16 {
		return nil, nil, nil, fmt.Errorf("%d-byte record payload", len(payload))
	}
	prefix := int(binary.BigEndian.Uint32(payload[0:]))
	suffix := int(binary.BigEndian.Uint32(payload[4:]))
	midLen := int(binary.BigEndian.Uint32(payload[8:]))
	payload = payload[12:]
	if midLen > len(payload)-4 {
		return nil, nil, nil, fmt.Errorf("%d-byte delta in %d bytes", midLen, len(payload))
	}
	middle, want := payload[:midLen], binary.BigEndian.Uint32(payload[midLen:])
	if prefix > len(base) || suffix > len(base)-prefix {
		return nil, nil, nil, fmt.Errorf("delta keeps %d+%d bytes of a %d-byte base", prefix, suffix, len(base))
	}
	if prefix+midLen+suffix == len(base) {
		copy(base[prefix:], middle)
		state, spare = base, scratch
	} else {
		state = append(append(append(scratch[:0], base[:prefix]...), middle...), base[len(base)-suffix:]...)
		spare = base
	}
	if got := crc32.Checksum(state, journalCRC); got != want {
		return nil, nil, nil, fmt.Errorf("delta yields state crc %08x, record says %08x", got, want)
	}
	return state, spare, payload[midLen+4:], nil
}

// decodePending parses the pending set of a record payload.
func decodePending(data []byte) ([]store.WriteOp, error) {
	r := statecodec.NewReader(data)
	count := int(r.U32())
	blockSize := int(r.U32())
	if r.Err() != nil || count < 0 || (count > 0 && blockSize <= 0) {
		return nil, fmt.Errorf("pending shape count=%d blockSize=%d", count, blockSize)
	}
	if count > 0 && count > (len(data)-8)/(8+blockSize) {
		return nil, fmt.Errorf("%d pending blocks of %d B in %d bytes", count, blockSize, len(data)-8)
	}
	pending := make([]store.WriteOp, count)
	for i := range pending {
		addr := int(r.U64())
		pending[i] = store.WriteOp{Addr: addr, Block: block.Block(r.Bytes(blockSize)).Copy()}
	}
	if err := r.Drained(); err != nil {
		return nil, err
	}
	return pending, nil
}

// OpenJournal opens (or creates) the checkpoint journal at path, returning
// the newest intact checkpoint (nil for a fresh journal — the caller runs
// scheme setup and appends the first one). Opening bumps the recovery
// epoch and compacts: the file is atomically rewritten to hold the new
// header plus that one checkpoint as a full record, discarding history and
// any torn tail. limit ≤ 0 selects 64 MiB.
func OpenJournal(path string, limit int64) (*Journal, *Checkpoint, error) {
	if limit <= 0 {
		limit = defaultJournalSize
	}
	j := &Journal{path: path, limit: limit}

	var ck *Checkpoint
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		j.epoch = 1
	case err != nil:
		return nil, nil, fmt.Errorf("proxy: reading journal %s: %w", path, err)
	default:
		epoch, last, derr := scanJournal(data)
		if derr != nil {
			return nil, nil, fmt.Errorf("%w: %s: %v", ErrJournal, path, derr)
		}
		j.epoch = epoch + 1
		ck = last
	}
	if err := j.rewrite(ck); err != nil {
		return nil, nil, err
	}
	return j, ck, nil
}

// scanJournal validates the header and walks the records, applying each
// delta to the state before it, and returns the stored epoch and the
// checkpoint of the last intact record (nil if none). A torn or corrupt
// record ends the walk — everything before it stands. A record that
// passes its CRC and still does not apply is an error: the state it
// describes was acknowledged and cannot be rebuilt.
func scanJournal(data []byte) (epoch uint64, last *Checkpoint, err error) {
	if len(data) < journalHdrSize {
		return 0, nil, errors.New("short header")
	}
	hdr := data[:journalHdrSize]
	if [8]byte(hdr[:8]) != journalMagic ||
		crc32.Checksum(hdr[:20], journalCRC) != binary.BigEndian.Uint32(hdr[20:24]) {
		return 0, nil, errors.New("bad header")
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != journalVersion {
		return 0, nil, fmt.Errorf("journal version %d, this build reads %d", v, journalVersion)
	}
	epoch = binary.BigEndian.Uint64(hdr[12:20])
	rest := data[journalHdrSize:]
	var state, spare, pending []byte
	records := 0
	for ; len(rest) >= 4; records++ {
		recLen := int(binary.BigEndian.Uint32(rest[:4]))
		if recLen < 4 || len(rest)-4 < recLen {
			break // torn tail
		}
		rec := rest[4 : 4+recLen]
		crcOff := recLen - 4
		if crc32.Checksum(rec[:crcOff], journalCRC) != binary.BigEndian.Uint32(rec[crcOff:]) {
			break // corrupt (mid-append crash): unacknowledged, discard
		}
		if state, spare, pending, err = applyRecord(state, spare, rec[:crcOff]); err != nil {
			return 0, nil, fmt.Errorf("record %d: %w", records, err)
		}
		rest = rest[4+recLen:]
	}
	if records == 0 {
		return epoch, nil, nil
	}
	ops, err := decodePending(pending)
	if err != nil {
		return 0, nil, fmt.Errorf("record %d: %w", records-1, err)
	}
	return epoch, &Checkpoint{State: state, Pending: ops}, nil
}

// rewrite atomically replaces the journal file with header + ck as one
// full record (header alone for a nil ck) and makes ck's state the delta
// base — the compaction primitive, also used at open (epoch bump) and when
// the log outgrows its limit. Caller holds j.mu or has exclusive access.
func (j *Journal) rewrite(ck *Checkpoint) error {
	buf := appendJournalHeader(j.buf[:0], j.epoch)
	var sum uint32
	if ck != nil {
		var err error
		if buf, sum, err = appendRecord(buf, nil, 0, *ck); err != nil {
			return err
		}
	}
	j.buf = buf
	if err := store.WriteFileAtomic(j.path, buf); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("proxy: reopening journal %s: %w", j.path, err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	j.size = int64(len(buf))
	if ck != nil {
		j.base, j.baseCRC = ck.State, sum
	}
	return nil
}

// Epoch returns the recovery epoch of this journal incarnation.
func (j *Journal) Epoch() uint64 { return j.epoch }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append makes ck durable: encoded as a delta against the last durable
// state, CRC-framed, appended, fdatasynced; ck.State then becomes that
// base, kept without a copy (see Checkpoint.State). When the log would
// outgrow its limit the append becomes a compacting rewrite instead (same
// durability, one atomic rename, a full record). Append returns only once the
// checkpoint is on stable storage — the caller may then release held
// writes and acknowledge clients. After one failed Append every later one
// returns that first error.
func (j *Journal) Append(ck Checkpoint) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return fmt.Errorf("%w: journal closed", ErrJournal)
	}
	rec, sum, err := appendRecord(j.buf[:0], j.base, j.baseCRC, ck)
	if err != nil {
		return err // nothing written: the journal stands
	}
	j.buf = rec
	if j.size+int64(len(rec)) > j.limit {
		j.err = j.rewrite(&ck)
		return j.err
	}
	if _, err := j.f.WriteAt(rec, j.size); err != nil {
		j.err = fmt.Errorf("proxy: appending journal: %w", err)
		return j.err
	}
	if err := store.Datasync(j.f); err != nil {
		j.err = fmt.Errorf("proxy: syncing journal: %w", err)
		return j.err
	}
	j.size += int64(len(rec))
	j.base, j.baseCRC = ck.State, sum
	return nil
}

// Size returns the current journal file size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ReplayPending applies a recovered checkpoint's pending writes to the
// physical store — the recovery step between reopening the store and
// resuming the scheme. Idempotent: the ops carry the same ciphertexts to
// the same slots whether or not a prefix already landed before the crash.
func ReplayPending(backing store.BatchServer, ck *Checkpoint) error {
	if ck == nil || len(ck.Pending) == 0 {
		return nil
	}
	if err := backing.WriteBatch(ck.Pending); err != nil {
		return fmt.Errorf("proxy: replaying %d pending writes: %w", len(ck.Pending), err)
	}
	return nil
}

var _ io.Closer = (*Journal)(nil)
