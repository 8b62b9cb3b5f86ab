package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// layerID names the layer a span belongs to. Only layers that a shim can
// bracket have spans; wire, admission, crypto and proc are measured by
// counters and probes.
type layerID uint8

const (
	layerGen layerID = iota // the load generator's view of one access: the root span
	layerRemote
	layerBacking
	layerDurable
	layerProxy
	layerPipeline
	layerDPRAM
	layerPathORAM
	numLayers
)

var layerNames = [numLayers]string{"gen", "store.remote", "store.backing", "store.durable", "proxy", "proxy.pipeline", "dpram", "pathoram"}

type spanOp uint8

const (
	spanAccess spanOp = iota
	spanReadBatch
	spanWriteBatch
	spanDownload
	spanUpload
	spanMarshal
	numSpanOps
)

var spanOpNames = [numSpanOps]string{"access", "read_batch", "write_batch", "download", "upload", "marshal_state"}

// span is one bracketed call. Spans of one access share its id; parent is
// the index of the span that caused this one (-1 for a root or for
// background work such as a write-behind flush, whose access id is 0).
type span struct {
	layer      layerID
	op         spanOp
	access     uint32
	parent     int32
	start, end int64 // ns since the tracer's origin
}

// tracer records spans into a pre-sized slice. Slots are claimed with one
// atomic add and written by the claiming goroutine alone, so recording
// takes no lock; a full tracer drops further spans and counts them.
type tracer struct {
	on       atomic.Bool
	origin   time.Time
	spans    []span
	n        atomic.Int64
	dropped  atomic.Int64
	accesses atomic.Uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, capacity)}
}

// spanCtx is what a layer publishes to the layer below: the access being
// served and the span to parent to, packed so one atomic word carries both.
// Zero means "not traced".
type spanCtx uint64

func packCtx(access uint32, idx int32) spanCtx { return spanCtx(access)<<32 | spanCtx(uint32(idx)+1) }
func (c spanCtx) access() uint32               { return uint32(c >> 32) }
func (c spanCtx) parent() int32                { return int32(uint32(c)) - 1 }

// cursor is the hand-off cell between two adjacent layers. The upper layer
// stores its context before calling down and clears it after; the lower
// layer — possibly on another goroutine across the loopback socket — loads
// it. Calls through one cursor are strictly nested, never concurrent.
type cursor struct{ v atomic.Uint64 }

func (c *cursor) load() spanCtx   { return spanCtx(c.v.Load()) }
func (c *cursor) store(x spanCtx) { c.v.Store(uint64(x)) }

// begin opens a span under ctx and returns its index and the context to
// hand to the layer below; -1 when the tracer is full.
func (t *tracer) begin(layer layerID, op spanOp, ctx spanCtx) (int32, spanCtx) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1, 0
	}
	t.spans[i] = span{layer: layer, op: op, access: ctx.access(), parent: ctx.parent(), start: int64(time.Since(t.origin))}
	return int32(i), packCtx(ctx.access(), int32(i))
}

func (t *tracer) end(idx int32) {
	if idx >= 0 {
		t.spans[idx].end = int64(time.Since(t.origin))
	}
}

// beginRoot opens the root span of a new sampled access.
func (t *tracer) beginRoot() (int32, spanCtx) {
	return t.begin(layerGen, spanAccess, spanCtx(t.accesses.Add(1))<<32)
}

// recorded returns the completed spans.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// layerStats is what the spans say about one layer.
type layerStats struct {
	count  int
	total  int64 // Σ span durations, ns
	self   int64 // Σ (span − the part its children cover), ns
	byOp   [numSpanOps][]int64
	allDur []int64
}

// analyse folds the recorded spans into per-layer statistics. A span still
// open when recording stopped (end == 0) is skipped together with its
// claim on its parent.
func analyse(spans []span) (layers [numLayers]layerStats, roots int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.end == 0 || s.parent < 0 {
			continue
		}
		child[s.parent] += s.end - s.start
	}
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		l := &layers[s.layer]
		l.count++
		l.total += d
		if self := d - child[i]; self > 0 {
			l.self += self
		}
		l.byOp[s.op] = append(l.byOp[s.op], d)
		l.allDur = append(l.allDur, d)
		if s.layer == layerGen {
			roots++
		}
	}
	return layers, roots
}

// writeSpans writes the spans as JSON lines.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, layerNames[s.layer]...)
		b = append(b, `","op":"`...)
		b = append(b, spanOpNames[s.op]...)
		b = append(b, `","access":`...)
		b = strconv.AppendUint(b, uint64(s.access), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
