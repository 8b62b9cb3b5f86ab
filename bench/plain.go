package main

import (
	"encoding/binary"
	"fmt"

	"dpstore/internal/block"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// plainScheme is the plaintext twin of the privacy schemes: record i lives
// unencrypted at server address i, and an access moves exactly one block —
// a read downloads it, a write uploads it. It offers no privacy whatsoever;
// it exists so that overhead_x has a fixed denominator: the same stack, the
// same record size, minus the scheme.
//
// It implements proxy.DurableScheme. A write returns the value written, not
// the previous one: fetching the previous value would be a second block.
type plainScheme struct {
	server     store.BatchServer
	n          int
	recordSize int
	addr       [1]int
	op         [1]store.WriteOp
}

// setupPlain uploads db to server record by record and returns the scheme.
func setupPlain(db *block.Database, server store.BatchServer) (*plainScheme, error) {
	if server.Size() != db.Len() || server.BlockSize() != db.BlockSize() {
		return nil, fmt.Errorf("plain: server shape (%d,%d), want (%d,%d)", server.Size(), server.BlockSize(), db.Len(), db.BlockSize())
	}
	w := store.NewBatchWriter(server)
	for i := 0; i < db.Len(); i++ {
		if err := w.Add(i, db.Get(i)); err != nil {
			return nil, fmt.Errorf("plain: setup upload: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("plain: setup upload: %w", err)
	}
	return &plainScheme{server: server, n: db.Len(), recordSize: db.BlockSize()}, nil
}

func (p *plainScheme) N() int          { return p.n }
func (p *plainScheme) RecordSize() int { return p.recordSize }

func (p *plainScheme) Access(q workload.Query) (block.Block, error) {
	if q.Index < 0 || q.Index >= p.n {
		return nil, fmt.Errorf("plain: index %d out of range [0,%d)", q.Index, p.n)
	}
	if q.Op == workload.Write {
		p.op[0] = store.WriteOp{Addr: q.Index, Block: q.Data}
		err := p.server.WriteBatch(p.op[:])
		p.op[0] = store.WriteOp{}
		if err != nil {
			return nil, fmt.Errorf("plain: upload: %w", err)
		}
		return q.Data, nil
	}
	p.addr[0] = q.Index
	blocks, err := p.server.ReadBatch(p.addr[:])
	if err != nil {
		return nil, fmt.Errorf("plain: download: %w", err)
	}
	return blocks[0], nil
}

// MarshalState returns the scheme's whole client state: its shape.
func (p *plainScheme) MarshalState() ([]byte, error) {
	state := make([]byte, 16)
	binary.LittleEndian.PutUint64(state, uint64(p.n))
	binary.LittleEndian.PutUint64(state[8:], uint64(p.recordSize))
	return state, nil
}
