package main

import (
	"bytes"
	"time"

	"dpstore/internal/crypto"
	"dpstore/internal/wire"
)

// frameSpec is one request/response exchange of a workload's access: its
// frame type, block count and block size, and how many of it an access
// sends on average.
type frameSpec struct {
	req       byte
	count     int
	blockSize int
	weight    float64
}

// The frames one access of each workload puts on the wire.

func mixedFrames() []frameSpec {
	total := 0.0
	for _, n := range mixCycle {
		total += float64(n)
	}
	share := func(k opKind) float64 { return float64(mixCycle[k]) / total }
	return []frameSpec{
		{wire.MsgReadBatchReq, batchLen, mixBlockSize, share(opReadBatch)},
		{wire.MsgWriteBatchReq, batchLen, mixBlockSize, share(opWriteBatch)},
		{wire.MsgDownloadReq, 1, mixBlockSize, share(opDownload)},
		{wire.MsgUploadReq, 1, mixBlockSize, share(opUpload)},
	}
}

// remoteFrames: one read batch and one write batch of the scheme's shape.
func remoteFrames(k schemeKind, readBlocks, writeBlocks int) func() []frameSpec {
	return func() []frameSpec {
		_, bs := physicalShape(k, records, remoteRecSize, true)
		return []frameSpec{{wire.MsgReadBatchReq, readBlocks, bs, 1}, {wire.MsgWriteBatchReq, writeBlocks, bs, 1}}
	}
}

// servedFrames: one logical access frame, half of them writes (count 1).
func servedFrames() []frameSpec {
	return []frameSpec{{wire.MsgAccessReq, 0, servedRecSize, 0.5}, {wire.MsgAccessReq, 1, servedRecSize, 0.5}}
}

// pathBlocks is the block count of one Path ORAM path at Z = 4 over the
// benchmark's record count: Z · (height + 1).
func pathBlocks() int {
	height := 0
	for 1<<height < records {
		height++
	}
	return 4 * (height + 1)
}

const probeBudget = 150 * time.Millisecond

// codecProbe times the frames of one access through the wire codec against
// an in-memory pipe — request encode, server-side read and decode, response
// encode, client-side read and decode — and returns nanoseconds per access.
// No socket, no store: what is left is the codec.
func codecProbe(w *workloadImpl) float64 {
	var total float64
	for _, f := range w.frames() {
		total += f.weight * timeExchange(f)
	}
	return total
}

func timeExchange(f frameSpec) float64 {
	addrs := make([]int, f.count)
	blocks := make([][]byte, f.count)
	for i := range blocks {
		addrs[i] = i * 7
		blocks[i] = make([]byte, f.blockSize)
	}
	one := make([]byte, f.blockSize)
	var enc, rbuf, resp []byte
	var pipe bytes.Reader
	var scratchAddrs []int
	var scratchBlocks [][]byte
	read := func(frame []byte) wire.Frame {
		pipe.Reset(frame)
		fr, buf, err := wire.ReadFrameInto(&pipe, rbuf)
		if err != nil {
			panic("bench: codec probe: " + err.Error())
		}
		rbuf = buf
		return fr
	}
	exchange := func() {
		switch f.req {
		case wire.MsgReadBatchReq:
			enc = wire.AppendReadBatchReq(enc[:0], addrs)
			scratchAddrs, _ = wire.DecodeReadBatchReqInto(scratchAddrs[:0], read(enc).Payload)
			var off int
			resp, off = wire.BeginFrame(resp[:0], wire.MsgReadBatchResp)
			resp = wire.AppendBatchCount(resp, f.count)
			for _, b := range blocks {
				resp = append(resp, b...)
			}
			resp, _ = wire.EndFrame(resp, off)
			_, _, _, _ = wire.ReadBatchRespShape(read(resp).Payload)
		case wire.MsgWriteBatchReq:
			enc, _ = wire.AppendWriteBatchReq(enc[:0], addrs, blocks)
			scratchAddrs, scratchBlocks, _ = wire.DecodeWriteBatchReqInto(scratchAddrs[:0], scratchBlocks[:0], read(enc).Payload)
			var off int
			resp, off = wire.BeginFrame(resp[:0], wire.MsgWriteBatchResp)
			resp, _ = wire.EndFrame(resp, off)
			read(resp)
		case wire.MsgDownloadReq:
			enc, _ = wire.AppendFrame(enc[:0], wire.EncodeDownloadReq(7))
			_, _ = wire.DecodeDownloadReq(read(enc).Payload)
			resp, _ = wire.AppendFrame(resp[:0], wire.Frame{Type: wire.MsgDownloadResp, Payload: one})
			read(resp)
		case wire.MsgUploadReq:
			enc, _ = wire.AppendFrame(enc[:0], wire.EncodeUploadReq(7, one))
			_, _, _ = wire.DecodeUploadReq(read(enc).Payload)
			resp, _ = wire.AppendFrame(resp[:0], wire.Frame{Type: wire.MsgUploadResp})
			read(resp)
		case wire.MsgAccessReq:
			req := wire.AccessReq{Index: 7}
			if f.count == 1 {
				req.Write, req.Data = true, one
			}
			enc, _ = wire.AppendFrame(enc[:0], wire.EncodeAccessReq(req))
			_, _ = wire.DecodeAccessReq(read(enc).Payload)
			resp, _ = wire.AppendFrame(resp[:0], wire.EncodeAccessResp(one))
			read(resp)
		}
	}
	return timeLoop(exchange)
}

// timeLoop runs fn for about probeBudget and returns nanoseconds per call.
func timeLoop(fn func()) float64 {
	fn() // warm buffers
	n := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// cryptoProbe times SealBatch and OpenBatch at the record size and batch
// length of one access of w, and returns nanoseconds per block.
func cryptoProbe(w *workloadImpl) (seal, open float64) {
	recSize, batch := w.recSize, 1
	if w.scheme == kindPathORAM {
		_, bs := physicalShape(kindPathORAM, records, w.recSize, false)
		recSize, batch = bs, pathBlocks() // a path of (id ‖ position ‖ payload) slots
	}
	c := crypto.NewCipher(crypto.KeyFromSeed(1))
	src := make([]byte, recSize*batch)
	var ct, pt []byte
	seal = timeLoop(func() { ct = c.SealBatch(ct[:0], src, batch, recSize) }) / float64(batch)
	ctSize := crypto.CiphertextSize(recSize)
	cts := make([][]byte, batch)
	for i := range cts {
		cts[i] = ct[i*ctSize : (i+1)*ctSize]
	}
	open = timeLoop(func() {
		var err error
		if pt, err = c.OpenBatch(pt[:0], cts); err != nil {
			panic("bench: crypto probe: " + err.Error())
		}
	}) / float64(batch)
	return seal, open
}
