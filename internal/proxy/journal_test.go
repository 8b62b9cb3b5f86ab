package proxy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

func mkCheckpoint(tag byte, pending int) Checkpoint {
	ck := Checkpoint{State: bytes.Repeat([]byte{tag}, 40)}
	for i := 0; i < pending; i++ {
		b := block.New(16)
		b[0] = tag + byte(i)
		ck.Pending = append(ck.Pending, store.WriteOp{Addr: i, Block: b})
	}
	return ck
}

// TestJournalRoundTrip: append checkpoints, reopen, get the newest back,
// with the epoch bumped per open.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, ck, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil {
		t.Fatal("fresh journal returned a checkpoint")
	}
	if j.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d", j.Epoch())
	}
	for tag := byte(1); tag <= 3; tag++ {
		if err := j.Append(mkCheckpoint(tag, int(tag))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, ck2, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Epoch() != 2 {
		t.Fatalf("second epoch = %d", j2.Epoch())
	}
	if ck2 == nil || ck2.State[0] != 3 || len(ck2.Pending) != 3 {
		t.Fatalf("recovered wrong checkpoint: %+v", ck2)
	}
	if ck2.Pending[2].Block[0] != 3+2 {
		t.Fatal("pending block content lost")
	}
}

// TestJournalTornTail: a torn or corrupted trailing record is discarded;
// the previous intact checkpoint survives.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(mkCheckpoint(7, 2)); err != nil {
		t.Fatal(err)
	}
	good := j.Size()
	if err := j.Append(mkCheckpoint(9, 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	for name, mutate := range map[string]func([]byte) []byte{
		"torn":    func(d []byte) []byte { return d[:good+5] },                     // mid-record cut
		"corrupt": func(d []byte) []byte { d[good+6] ^= 0xFF; return d },           // payload bit flip
		"lenlie":  func(d []byte) []byte { d[good+1] = 0x7F; return d[:len(d)-2] }, // huge length + short file
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		broken := filepath.Join(t.TempDir(), "broken")
		if err := os.WriteFile(broken, mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, ck, err := OpenJournal(broken, 0)
		if err != nil {
			t.Fatalf("%s: open failed: %v", name, err)
		}
		if ck == nil || ck.State[0] != 7 || len(ck.Pending) != 2 {
			t.Fatalf("%s: recovered %+v, want the tag-7 checkpoint", name, ck)
		}
		j2.Close()
	}
}

// TestJournalCompaction: the log never grows past limit + one record, and
// compaction preserves the newest checkpoint.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for tag := byte(1); tag <= 100; tag++ {
		if err := j.Append(mkCheckpoint(tag, 4)); err != nil {
			t.Fatal(err)
		}
		if j.Size() > 4096 {
			t.Fatalf("journal at %d bytes despite 4096 limit", j.Size())
		}
	}
	j.Close()
	_, ck, err := OpenJournal(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.State[0] != 100 {
		t.Fatalf("compaction lost the newest checkpoint: %+v", ck)
	}
}

// TestReplayPending applies the pending set onto a store, idempotently.
func TestReplayPending(t *testing.T) {
	m, _ := store.NewMem(8, 16)
	ck := mkCheckpoint(5, 3)
	for i := 0; i < 2; i++ { // twice: replay must be idempotent
		if err := ReplayPending(m, &ck); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Download(2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5+2 {
		t.Fatal("pending write not applied")
	}
	if err := ReplayPending(m, nil); err != nil {
		t.Fatal("nil checkpoint should be a no-op")
	}
}

// TestPipelineJournaledHold: in journaled mode writes are invisible to the
// inner store until Release, while reads see them through the overlay; the
// snapshot lists them freshest-per-address in sequence order.
func TestPipelineJournaledHold(t *testing.T) {
	mem, _ := store.NewMem(8, 8)
	counting := store.NewCounting(mem)
	p := NewJournaledPipeline(counting)
	b1, b2 := block.New(8), block.New(8)
	b1[0], b2[0] = 1, 2
	if err := p.WriteBatch([]store.WriteOp{{Addr: 3, Block: b1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBatch([]store.WriteOp{{Addr: 3, Block: b2}, {Addr: 5, Block: b1}}); err != nil {
		t.Fatal(err)
	}
	// Overlay serves the held writes; the store has seen none of them.
	got, err := p.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatal("overlay missed a held write")
	}
	if up := counting.Stats().Uploads; up != 0 {
		t.Fatalf("%d uploads leaked past the barrier", up)
	}
	ops, seq := p.PendingSnapshot()
	if seq != 3 || len(ops) != 2 || ops[0].Addr != 3 || ops[0].Block[0] != 2 || ops[1].Addr != 5 {
		t.Fatalf("snapshot = %v seq %d", ops, seq)
	}
	p.Release(seq)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if up := counting.Stats().Uploads; up == 0 {
		t.Fatal("release did not let writes land")
	}
	got, err = mem.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatal("landed write has wrong value")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineJournaledDiscardOnClose: writes never covered by a release
// are dropped — not flushed — when the pipeline dies, because flushing
// unjournaled writes would desynchronize store and journal.
func TestPipelineJournaledDiscardOnClose(t *testing.T) {
	mem, _ := store.NewMem(8, 8)
	counting := store.NewCounting(mem)
	p := NewJournaledPipeline(counting)
	b := block.New(8)
	b[0] = 9
	if err := p.WriteBatch([]store.WriteOp{{Addr: 1, Block: b}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if up := counting.Stats().Uploads; up != 0 {
		t.Fatalf("%d unjournaled uploads reached the store at close", up)
	}
	got, _ := mem.Download(1)
	if got[0] != 0 {
		t.Fatal("discarded write landed anyway")
	}
}

// --- delta chain ------------------------------------------------------------

const (
	modelRecSize = 32
	modelHdrSize = 12 // magic u64 ‖ count u32, the shape of dpram's state
)

// modelState is a sorted-record client state shaped like dpram's: a fixed
// header carrying the entry count, then (index u64 ‖ value) entries in
// index order. mutate applies one random insert, replace or delete.
type modelState struct {
	entries map[int][]byte
	src     *rand.Rand
}

func newModelState(seed int64) *modelState {
	return &modelState{entries: make(map[int][]byte), src: rand.New(rand.NewSource(seed))}
}

func (m *modelState) value() []byte {
	v := make([]byte, modelRecSize)
	m.src.Read(v)
	return v
}

func (m *modelState) keys() []int {
	keys := make([]int, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// mutate reports whether the entry count stayed the same (a replace).
func (m *modelState) mutate() (replaced bool) {
	keys := m.keys()
	switch op := m.src.Intn(3); {
	case op == 0 || len(keys) < 4: // insert (or replace, on a collision)
		k := m.src.Intn(1 << 12)
		_, replaced = m.entries[k]
		m.entries[k] = m.value()
	case op == 1:
		m.entries[keys[m.src.Intn(len(keys))]] = m.value()
		replaced = true
	default:
		delete(m.entries, keys[m.src.Intn(len(keys))])
	}
	return replaced
}

func (m *modelState) marshal() []byte {
	keys := m.keys()
	out := append(make([]byte, 0, modelHdrSize+len(keys)*(8+modelRecSize)), "MODELST1"...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.BigEndian.AppendUint64(out, uint64(k))
		out = append(out, m.entries[k]...)
	}
	return out
}

// pendingOf derives a small pending set from the mutation counter, so each
// record's pending differs from its neighbours'.
func pendingOf(i int) []store.WriteOp {
	ops := make([]store.WriteOp, i%3)
	for k := range ops {
		b := block.New(16)
		binary.BigEndian.PutUint64(b, uint64(i*8+k))
		ops[k] = store.WriteOp{Addr: i + k, Block: b}
	}
	return ops
}

func sameCheckpoint(t *testing.T, what string, got *Checkpoint, want Checkpoint) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no checkpoint recovered", what)
	}
	if !bytes.Equal(got.State, want.State) {
		t.Fatalf("%s: recovered state differs (%d B, want %d B)", what, len(got.State), len(want.State))
	}
	if len(got.Pending) != len(want.Pending) {
		t.Fatalf("%s: %d pending ops, want %d", what, len(got.Pending), len(want.Pending))
	}
	for i, op := range want.Pending {
		if got.Pending[i].Addr != op.Addr || !bytes.Equal(got.Pending[i].Block, op.Block) {
			t.Fatalf("%s: pending op %d differs", what, i)
		}
	}
}

// journalRecord is one frame of a journal file, located by walking the
// length prefixes the way scanJournal does.
type journalRecord struct {
	start, end             int // frame bounds in the file
	prefix, suffix, middle int
	stateCRC               uint32
}

func journalRecords(t testing.TB, data []byte) []journalRecord {
	t.Helper()
	var recs []journalRecord
	for off := journalHdrSize; off+4 <= len(data); {
		recLen := int(binary.BigEndian.Uint32(data[off:]))
		end := off + 4 + recLen
		if recLen < 20 || end > len(data) {
			break
		}
		p := data[off+4 : end-4]
		if crc32.Checksum(p, journalCRC) != binary.BigEndian.Uint32(data[end-4:]) {
			break
		}
		r := journalRecord{
			start: off, end: end,
			prefix: int(binary.BigEndian.Uint32(p[0:])),
			suffix: int(binary.BigEndian.Uint32(p[4:])),
			middle: int(binary.BigEndian.Uint32(p[8:])),
		}
		if 12+r.middle+4 > len(p) {
			break
		}
		r.stateCRC = binary.BigEndian.Uint32(p[12+r.middle:])
		recs = append(recs, r)
		off = end
	}
	return recs
}

// refreshCRC recomputes the frame CRC of rec after a test edited its
// payload — the corruption a CRC cannot catch.
func refreshCRC(data []byte, rec journalRecord) {
	binary.BigEndian.PutUint32(data[rec.end-4:], crc32.Checksum(data[rec.start+4:rec.end-4], journalCRC))
}

// TestJournalDeltaChain: 1 000 random insert/replace/delete mutations of a
// sorted-record state, one record each, come back exactly — at the end and
// across a close/reopen every 100 records — and a replace costs one entry,
// not the state.
func TestJournalDeltaChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { j.Close() }()
	m := newModelState(20260927)
	for i := 0; i < 64; i++ {
		m.mutate()
	}
	var want Checkpoint
	for i := 1; i <= 1000; i++ {
		replaced := m.mutate()
		want = Checkpoint{State: m.marshal(), Pending: pendingOf(i)}
		before := j.Size()
		if err := j.Append(want); err != nil {
			t.Fatal(err)
		}
		// Frame and delta header (24 B), pending header (8 B), one entry.
		budget := int64(24 + 8 + (8 + modelRecSize) + len(want.Pending)*(8+16))
		if grew := j.Size() - before; replaced && grew > budget {
			t.Fatalf("record %d replaced one entry of a %d-byte state and grew the journal by %d B (budget %d)",
				i, len(want.State), grew, budget)
		}
		if i%100 != 0 {
			continue
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var ck *Checkpoint
		if j, ck, err = OpenJournal(path, 0); err != nil {
			t.Fatalf("reopening after record %d: %v", i, err)
		}
		sameCheckpoint(t, fmt.Sprintf("after record %d", i), ck, want)
	}
}

// chainFile appends n mutations to a fresh journal and returns the file's
// bytes with the checkpoint each record stands for.
func chainFile(t testing.TB, seed int64, n int) ([]byte, []Checkpoint) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m := newModelState(seed)
	cks := make([]Checkpoint, n)
	for i := range cks {
		m.mutate()
		cks[i] = Checkpoint{State: m.marshal(), Pending: pendingOf(i + 1)}
		if err := j.Append(cks[i]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, cks
}

// TestJournalTornTailEveryOffset: a file cut at any byte of its last three
// records recovers exactly the record before the cut.
func TestJournalTornTailEveryOffset(t *testing.T) {
	data, cks := chainFile(t, 7, 12)
	recs := journalRecords(t, data)
	if len(recs) != len(cks) {
		t.Fatalf("%d records in the file, appended %d", len(recs), len(cks))
	}
	for k := len(recs) - 3; k < len(recs); k++ {
		for cut := recs[k].start; cut < recs[k].end; cut++ {
			_, ck, err := scanJournal(data[:cut])
			if err != nil {
				t.Fatalf("cut at %d (record %d): %v", cut, k, err)
			}
			sameCheckpoint(t, fmt.Sprintf("cut at %d (record %d)", cut, k), ck, cks[k-1])
		}
	}
	// And through the front door, at one offset per record.
	for k := len(recs) - 3; k < len(recs); k++ {
		torn := filepath.Join(t.TempDir(), "torn")
		if err := os.WriteFile(torn, data[:(recs[k].start+recs[k].end)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		j, ck, err := OpenJournal(torn, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCheckpoint(t, fmt.Sprintf("reopen cut in record %d", k), ck, cks[k-1])
		j.Close()
	}
}

// TestJournalBrokenChain: a byte flipped inside a mid-chain record whose
// frame CRC still matches is reported, never silently folded into the
// state.
func TestJournalBrokenChain(t *testing.T) {
	data, _ := chainFile(t, 11, 12)
	recs := journalRecords(t, data)
	for name, at := range map[string]func(journalRecord) int{
		"middle byte": func(r journalRecord) int { return r.start + 4 + 12 + r.middle/2 },
		"prefix len":  func(r journalRecord) int { return r.start + 4 + 3 },
		"state crc":   func(r journalRecord) int { return r.start + 4 + 12 + r.middle },
	} {
		rec := recs[len(recs)/2]
		if rec.middle == 0 {
			t.Fatalf("%s: record under test carries no delta bytes", name)
		}
		broken := append([]byte(nil), data...)
		broken[at(rec)] ^= 0x01
		refreshCRC(broken, rec)
		path := filepath.Join(t.TempDir(), "broken")
		if err := os.WriteFile(path, broken, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ck, err := OpenJournal(path, 0); !errors.Is(err, ErrJournal) {
			t.Fatalf("%s: err = %v (checkpoint %v), want ErrJournal", name, err, ck != nil)
		}
	}
}

// TestJournalCompactionMidChain: compaction leaves header + one full
// record, and the chain resumes against it with a delta.
func TestJournalCompactionMidChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	const limit = 8 << 10
	j, _, err := OpenJournal(path, limit)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { j.Close() }()
	m := newModelState(3)
	for i := 0; i < 32; i++ {
		m.mutate()
	}
	var want Checkpoint
	compactions := 0
	for i := 1; i <= 400; i++ {
		m.mutate()
		want = Checkpoint{State: m.marshal(), Pending: pendingOf(i)}
		before := j.Size()
		if err := j.Append(want); err != nil {
			t.Fatal(err)
		}
		if j.Size() > limit {
			t.Fatalf("journal at %d bytes despite the %d limit", j.Size(), limit)
		}
		if j.Size() > before || i == 1 {
			continue
		}
		compactions++
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := journalRecords(t, data)
		if len(recs) != 1 || recs[0].end != len(data) || int64(len(data)) != j.Size() {
			t.Fatalf("compacted file holds %d records in %d bytes (Size %d)", len(recs), len(data), j.Size())
		}
		if r := recs[0]; r.prefix != 0 || r.suffix != 0 || r.middle != len(want.State) {
			t.Fatalf("compacted record is not full: prefix %d suffix %d middle %d of %d", r.prefix, r.suffix, r.middle, len(want.State))
		}
		// The next append chains onto it.
		m.mutate()
		want = Checkpoint{State: m.marshal()}
		if err := j.Append(want); err != nil {
			t.Fatal(err)
		}
		if data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if recs = journalRecords(t, data); len(recs) != 2 || recs[1].prefix < modelHdrSize-4 {
			t.Fatalf("append after compaction: %d records, second keeps a %d-byte prefix", len(recs), recs[len(recs)-1].prefix)
		}
	}
	if compactions < 3 {
		t.Fatalf("only %d compactions in 400 appends under an %d-byte limit", compactions, limit)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	if j, ck, err = OpenJournal(path, limit); err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "after compactions", ck, want)
}

// TestJournalUnchangedStateByIdentity: handing Append the very slice of
// the last durable state — what dpram.Client's MarshalState returns while
// its stash is unchanged — writes the same file, byte for byte, as handing
// it an equal copy, through unchanged, changed and compacting appends; an
// unchanged append is an empty delta; and both files recover the last
// checkpoint.
func TestJournalUnchangedStateByIdentity(t *testing.T) {
	const limit = 8 << 10
	dir := t.TempDir()
	same, _, err := OpenJournal(filepath.Join(dir, "same"), limit)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { same.Close() }()
	copied, _, err := OpenJournal(filepath.Join(dir, "copied"), limit)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { copied.Close() }()
	m := newModelState(21)
	for i := 0; i < 32; i++ {
		m.mutate()
	}
	coins := rand.New(rand.NewSource(22))
	state := m.marshal()
	var want Checkpoint
	unchanged, compactions := 0, 0
	for i := 1; i <= 600; i++ {
		kept := i > 1 && coins.Intn(4) != 0
		if kept {
			unchanged++
		} else {
			m.mutate()
			state = m.marshal()
		}
		want = Checkpoint{State: state, Pending: pendingOf(i)}
		before := same.Size()
		if err := same.Append(want); err != nil {
			t.Fatal(err)
		}
		if err := copied.Append(Checkpoint{State: bytes.Clone(state), Pending: pendingOf(i)}); err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(same.Path())
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(copied.Path())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("append %d (state unchanged: %v): the files differ (%d B and %d B)", i, kept, len(a), len(b))
		}
		if same.Size() <= before {
			compactions++
			continue
		}
		if recs := journalRecords(t, a); kept {
			if r := recs[len(recs)-1]; r.prefix != len(state) || r.suffix != 0 || r.middle != 0 {
				t.Fatalf("append %d of an unchanged state: prefix %d suffix %d middle %d, want an empty delta of %d bytes", i, r.prefix, r.suffix, r.middle, len(state))
			}
		}
	}
	if unchanged < 300 || compactions < 3 {
		t.Fatalf("%d unchanged appends and %d compactions in 600: the sequence misses a case", unchanged, compactions)
	}
	for _, j := range []**Journal{&same, &copied} {
		path := (*j).Path()
		if err := (*j).Close(); err != nil {
			t.Fatal(err)
		}
		var ck *Checkpoint
		if *j, ck, err = OpenJournal(path, limit); err != nil {
			t.Fatal(err)
		}
		sameCheckpoint(t, filepath.Base(path), ck, want)
	}
}

// TestJournalFullRecordFallback: a state that shares neither end with its
// predecessor is written whole.
func TestJournalFullRecordFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	states := [][]byte{bytes.Repeat([]byte{0xAA}, 300), bytes.Repeat([]byte{0x55}, 280)}
	for _, s := range states {
		if err := j.Append(Checkpoint{State: s}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, data)
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	for i, r := range recs {
		if r.prefix != 0 || r.suffix != 0 || r.middle != len(states[i]) {
			t.Fatalf("record %d: prefix %d suffix %d middle %d, want a full %d-byte record", i, r.prefix, r.suffix, r.middle, len(states[i]))
		}
	}
	_, ck, err := scanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "fallback", ck, Checkpoint{State: states[1]})
}

// TestJournalStickyFailure: after one failed append the journal refuses
// every later one with the same error, neither its size nor its delta base
// has moved, and the file reopens to the last acknowledged checkpoint.
func TestJournalStickyFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := newModelState(5)
	m.mutate()
	acked := Checkpoint{State: m.marshal(), Pending: pendingOf(2)}
	if err := j.Append(acked); err != nil {
		t.Fatal(err)
	}
	size := j.Size()
	// Fail the next write: swap in a read-only handle on the same file.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close()
	j.f = ro
	m.mutate()
	first := j.Append(Checkpoint{State: m.marshal()})
	if first == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	// Heal the handle: the journal must stay failed regardless.
	rw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close()
	j.f = rw
	m.mutate()
	if err := j.Append(Checkpoint{State: m.marshal()}); err != first {
		t.Fatalf("append after a failed append: %v, want the first error %v", err, first)
	}
	if j.Size() != size || !bytes.Equal(j.base, acked.State) {
		t.Fatalf("failed appends moved the journal: size %d (was %d), base moved: %v", j.Size(), size, !bytes.Equal(j.base, acked.State))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close of a failed journal: %v", err)
	}
	j2, ck, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sameCheckpoint(t, "after failed appends", ck, acked)
}

// FuzzScanJournal: the reader never panics, and whatever file it accepts
// decodes to a state matching the state CRC of its last intact record.
func FuzzScanJournal(f *testing.F) {
	data, _ := chainFile(f, 13, 6)
	f.Add(data)
	f.Add(data[:len(data)-7])
	f.Add(data[:journalHdrSize])
	recs := journalRecords(f, data)
	flipped := append([]byte(nil), data...)
	flipped[recs[2].start+4+1] ^= 0x40
	refreshCRC(flipped, recs[2])
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		// As given, then with every frame CRC made good, so that mutated
		// payloads reach the delta and pending decoders.
		repaired := append([]byte(nil), data...)
		for off := journalHdrSize; off+4 <= len(repaired); {
			end := off + 4 + int(binary.BigEndian.Uint32(repaired[off:]))
			if end < off+8 || end > len(repaired) {
				break
			}
			refreshCRC(repaired, journalRecord{start: off, end: end})
			off = end
		}
		for _, data := range [][]byte{data, repaired} {
			_, ck, err := scanJournal(data)
			if err != nil {
				continue
			}
			recs := journalRecords(t, data)
			if (ck == nil) != (len(recs) == 0) {
				t.Fatalf("checkpoint %v from %d intact records", ck != nil, len(recs))
			}
			if ck == nil {
				continue
			}
			if got, want := crc32.Checksum(ck.State, journalCRC), recs[len(recs)-1].stateCRC; got != want {
				t.Fatalf("accepted state has crc %08x, last record says %08x", got, want)
			}
		}
	})
}
