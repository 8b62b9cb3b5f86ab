package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// This file defines the operability frames added with the load-shedding
// layer:
//
//	MsgBusyResp   retryAfterMicros uint32 ‖ queued uint32
//	MsgStatsReq   (empty)
//	MsgStatsResp  count uint16 ‖ count × stats entry (see StatsEntry)
//
// MsgBusyResp is the explicit backpressure signal: the server received a
// well-formed request but refused to execute it because the target
// namespace's admission queue is full. It is NOT an error frame — the
// connection stays healthy and the client should retry after the hinted
// delay. Crucially for the privacy argument, the server sheds BEFORE
// decoding any address material: the decision is a function of queue
// state and frame type only, so the busy/accepted pattern can never leak
// which records a request touches (DESIGN.md §Load).
//
// MsgStatsReq/MsgStatsResp are the metrics endpoint: one snapshot of every
// hosted namespace's admission and backing health, served on any
// connection regardless of which namespace it has open (like
// MsgReplStatusReq, it describes the daemon, not the connection).

// Stats namespace kinds on the wire.
const (
	StatsKindBlock      = 0 // block-backed namespace (download/upload/batch)
	StatsKindProxy      = 1 // proxy-backed namespace (logical accesses)
	StatsKindReplicated = 2 // replicated front-door namespace
)

// MaxStatsEntries bounds how many namespace entries a stats frame may
// declare; far above any real daemon (namespace creation is capped), it
// exists only to stop a forged count from driving a large allocation.
const MaxStatsEntries = 4096

// ErrStats reports a malformed stats or busy frame.
var ErrStats = errors.New("wire: invalid stats frame")

// BusyError is the decoded backpressure signal, returned as the error of
// any client call whose request the server shed. RetryAfter is the
// server's hint of when capacity is likely again (derived from its
// observed service rate and queue depth); Queued is the depth of the
// admission queue that rejected the request, for telemetry.
type BusyError struct {
	RetryAfter time.Duration
	Queued     int
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("wire: server busy (queue depth %d, retry after %v)", e.Queued, e.RetryAfter)
}

// IsBusy reports whether err (anywhere in its chain) is a server
// backpressure signal, and returns the retry hint when it is.
func IsBusy(err error) (time.Duration, bool) {
	var b *BusyError
	if errors.As(err, &b) {
		return b.RetryAfter, true
	}
	return 0, false
}

// EncodeBusy builds a MsgBusyResp frame. The retry hint saturates at
// ~71 minutes (uint32 microseconds); queue depths saturate at 2³²−1.
func EncodeBusy(retryAfter time.Duration, queued int) Frame {
	micros := retryAfter.Microseconds()
	if micros < 0 {
		micros = 0
	}
	if micros > int64(^uint32(0)) {
		micros = int64(^uint32(0))
	}
	if queued < 0 {
		queued = 0
	}
	q := uint64(queued)
	if q > uint64(^uint32(0)) {
		q = uint64(^uint32(0))
	}
	p := make([]byte, 8)
	binary.BigEndian.PutUint32(p[:4], uint32(micros))
	binary.BigEndian.PutUint32(p[4:8], uint32(q))
	return Frame{Type: MsgBusyResp, Payload: p}
}

// AppendBusy appends a complete MsgBusyResp frame (header included) to
// buf — the serve loop's zero-allocation shed path.
func AppendBusy(buf []byte, retryAfter time.Duration, queued int) []byte {
	f := EncodeBusy(retryAfter, queued)
	buf, off := BeginFrame(buf, MsgBusyResp)
	buf = append(buf, f.Payload...)
	buf, _ = EndFrame(buf, off) // 8 bytes can't exceed MaxFrame
	return buf
}

// DecodeBusy parses a MsgBusyResp payload.
func DecodeBusy(p []byte) (*BusyError, error) {
	if len(p) != 8 {
		return nil, fmt.Errorf("%w: busy payload %d bytes", ErrShortPayload, len(p))
	}
	return &BusyError{
		RetryAfter: time.Duration(binary.BigEndian.Uint32(p[:4])) * time.Microsecond,
		Queued:     int(binary.BigEndian.Uint32(p[4:8])),
	}, nil
}

// StatsEntry is one namespace's row in a MsgStatsResp: admission counters
// (cumulative since daemon start — clients derive throughput from two
// snapshots), live queue state, and backing-specific depth/latency
// gauges.
//
// Wire layout per entry:
//
//	nameLen uint16 ‖ name ‖ kind uint8 ‖
//	accepted uint64 ‖ shed uint64 ‖
//	inflight uint32 ‖ queued uint32 ‖ limit uint32 ‖ queueCap uint32 ‖
//	depth uint64 ‖ syncMicros uint64
type StatsEntry struct {
	Name string
	Kind uint8 // StatsKindBlock / StatsKindProxy / StatsKindReplicated

	// Admission counters and gauges. Limit and QueueCap are 0 when the
	// namespace runs without admission control (requests are then only
	// counted, never shed).
	Accepted uint64 // requests admitted and executed
	Shed     uint64 // requests refused with MsgBusyResp
	Inflight uint32 // requests executing right now
	Queued   uint32 // requests waiting for admission right now
	Limit    uint32 // admission concurrency limit (0 = unlimited)
	QueueCap uint32 // admission queue capacity (0 = unlimited)

	// Backing gauges. Depth is the cluster's total resync backlog
	// (StatsKindReplicated), else 0; a proxy's stash size is client
	// state and is never sent. SyncMicros is the backing WAL engine's
	// EWMA fsync latency in microseconds (0 for non-durable backings).
	Depth      uint64
	SyncMicros uint64

	// Extended quantile summary, carried only by the v2 stats frame
	// (EncodeStatsRespExt; see load_ext.go). All zero when the peer spoke
	// v1. Latencies are whole microseconds of the namespace's service-time
	// histogram (admission release to flush), recorded since daemon start.
	Requests       uint64 // observations in the service-time histogram
	P50Micros      uint64
	P90Micros      uint64
	P99Micros      uint64
	P999Micros     uint64
	MaxMicros      uint64
	QueueP99Micros uint64 // p99 of admission queue wait
}

// statsEntryFixed is the byte size of one entry minus its variable name.
const statsEntryFixed = 2 + 1 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8

// appendStatsEntry validates and appends one entry's v1 wire form
// (nameLen ‖ name ‖ fixed fields) to p.
func appendStatsEntry(p []byte, e *StatsEntry) ([]byte, error) {
	if len(e.Name) > MaxNamespaceName {
		return nil, fmt.Errorf("%w: namespace name %d bytes exceeds the %d-byte cap", ErrName, len(e.Name), MaxNamespaceName)
	}
	if e.Kind > StatsKindReplicated {
		return nil, fmt.Errorf("%w: unknown namespace kind %d", ErrStats, e.Kind)
	}
	var u8 [8]byte
	var u4 [4]byte
	var n2 [2]byte
	binary.BigEndian.PutUint16(n2[:], uint16(len(e.Name)))
	p = append(p, n2[:]...)
	p = append(p, e.Name...)
	p = append(p, e.Kind)
	for _, v := range []uint64{e.Accepted, e.Shed} {
		binary.BigEndian.PutUint64(u8[:], v)
		p = append(p, u8[:]...)
	}
	for _, v := range []uint32{e.Inflight, e.Queued, e.Limit, e.QueueCap} {
		binary.BigEndian.PutUint32(u4[:], v)
		p = append(p, u4[:]...)
	}
	for _, v := range []uint64{e.Depth, e.SyncMicros} {
		binary.BigEndian.PutUint64(u8[:], v)
		p = append(p, u8[:]...)
	}
	return p, nil
}

// decodeStatsEntry parses one entry's v1 wire form off the front of body,
// returning the entry and the remaining bytes.
func decodeStatsEntry(body []byte, i int) (StatsEntry, []byte, error) {
	if len(body) < 2 {
		return StatsEntry{}, nil, fmt.Errorf("%w: truncated entry %d", ErrStats, i)
	}
	nameLen := int(binary.BigEndian.Uint16(body[:2]))
	if nameLen > MaxNamespaceName {
		return StatsEntry{}, nil, fmt.Errorf("%w: namespace name %d bytes exceeds the %d-byte cap", ErrName, nameLen, MaxNamespaceName)
	}
	if len(body) < nameLen+statsEntryFixed {
		return StatsEntry{}, nil, fmt.Errorf("%w: entry %d overruns the payload", ErrStats, i)
	}
	e := StatsEntry{Name: string(body[2 : 2+nameLen])}
	rest := body[2+nameLen:]
	e.Kind = rest[0]
	if e.Kind > StatsKindReplicated {
		return StatsEntry{}, nil, fmt.Errorf("%w: unknown namespace kind %d", ErrStats, e.Kind)
	}
	e.Accepted = binary.BigEndian.Uint64(rest[1:9])
	e.Shed = binary.BigEndian.Uint64(rest[9:17])
	e.Inflight = binary.BigEndian.Uint32(rest[17:21])
	e.Queued = binary.BigEndian.Uint32(rest[21:25])
	e.Limit = binary.BigEndian.Uint32(rest[25:29])
	e.QueueCap = binary.BigEndian.Uint32(rest[29:33])
	e.Depth = binary.BigEndian.Uint64(rest[33:41])
	e.SyncMicros = binary.BigEndian.Uint64(rest[41:49])
	return e, rest[49:], nil
}

// EncodeStatsResp builds a v1 MsgStatsResp frame (no quantile extension —
// what a pre-v2 client gets). Namespace names are capped at
// MaxNamespaceName bytes, entry counts at MaxStatsEntries.
func EncodeStatsResp(entries []StatsEntry) (Frame, error) {
	if len(entries) > MaxStatsEntries {
		return Frame{}, fmt.Errorf("%w: %d entries exceeds the %d cap", ErrStats, len(entries), MaxStatsEntries)
	}
	p := make([]byte, 2, 2+len(entries)*(statsEntryFixed+16))
	binary.BigEndian.PutUint16(p[:2], uint16(len(entries)))
	var err error
	for i := range entries {
		if p, err = appendStatsEntry(p, &entries[i]); err != nil {
			return Frame{}, err
		}
	}
	if len(p) > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	return Frame{Type: MsgStatsResp, Payload: p}, nil
}

// DecodeStatsResp parses a MsgStatsResp payload, auto-detecting the v1
// and v2 (quantile-extended) layouts — the extension marker 0xFFFF is an
// impossible v1 entry count, so one decoder serves clients of both
// server generations. Like the replica status decoder, every declared
// length must be consistent with the remaining payload and the payload
// must end exactly at the last entry, so forged counts and name lengths
// can neither over-allocate nor alias numeric fields into names.
func DecodeStatsResp(p []byte) ([]StatsEntry, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("%w: stats response %d bytes", ErrShortPayload, len(p))
	}
	count := int(binary.BigEndian.Uint16(p[:2]))
	if count == statsExtMarker {
		return decodeStatsRespExt(p[2:])
	}
	if count > MaxStatsEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds the %d cap", ErrStats, count, MaxStatsEntries)
	}
	body := p[2:]
	entries := make([]StatsEntry, 0, count)
	for i := 0; i < count; i++ {
		e, rest, err := decodeStatsEntry(body, i)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		body = rest
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d entries", ErrStats, len(body), count)
	}
	return entries, nil
}
