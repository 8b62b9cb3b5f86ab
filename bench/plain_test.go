package main

import (
	"testing"

	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// The plaintext twin is the denominator of overhead_x: it must move exactly
// one block per access, reads and writes alike, and behave like a RAM.
func TestPlainSchemeMovesOneBlockPerAccess(t *testing.T) {
	const n, recSize = 64, 32
	mem, err := store.NewMem(n, recSize)
	if err != nil {
		t.Fatal(err)
	}
	counted := &blockShim{inner: mem}
	db, err := newDatabase(n, recSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := setupPlain(db, counted)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.blocks(); got != n {
		t.Fatalf("set-up moved %d blocks, want %d", got, n)
	}
	sh := newShadow(n)
	buf := make([]byte, recSize)
	for i := 0; i < 500; i++ {
		idx := (i * 37) % n
		before := counted.blocks()
		if i%3 == 0 {
			sh.ver[idx]++
			fillBlock(buf, idx, sh.ver[idx])
			if _, err := p.Access(workload.Query{Index: idx, Op: workload.Write, Data: buf}); err != nil {
				t.Fatal(err)
			}
		} else {
			b, err := p.Access(workload.Query{Index: idx, Op: workload.Read})
			if err != nil {
				t.Fatal(err)
			}
			if !checkBlock(b, idx, sh.ver[idx]) {
				t.Fatalf("access %d: record %d is not version %d", i, idx, sh.ver[idx])
			}
		}
		if moved := counted.blocks() - before; moved != 1 {
			t.Fatalf("access %d moved %d blocks, want exactly 1", i, moved)
		}
	}
	state, err := p.MarshalState()
	if err != nil || len(state) == 0 {
		t.Fatalf("MarshalState: %d bytes, %v", len(state), err)
	}
	if _, err := p.Access(workload.Query{Index: n}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}
