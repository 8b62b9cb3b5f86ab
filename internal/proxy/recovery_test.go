package proxy_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/trace"
	"dpstore/internal/workload"
)

const (
	recN    = 64
	recSize = 24
)

// buildDurableProxy mirrors the daemon's -proxy -data flow: durable
// engine, journal, setup-or-recover, journaled proxy. Returns the proxy
// and the engine (so tests can close it to simulate the process dying).
func buildDurableProxy(t *testing.T, dir string, scheme string, seed int64) (*proxy.Proxy, *store.Durable) {
	t.Helper()
	var slots, physBS int
	ramOpts := dpram.Options{Rand: rng.New(seed), StashParam: 8}
	oramOpts := pathoram.Options{Rand: rng.New(seed)}
	switch scheme {
	case "dpram":
		slots, physBS = recN, dpram.ServerBlockSize(recSize, ramOpts)
	case "pathoram":
		slots, physBS = pathoram.TreeShape(recN, recSize, oramOpts)
	}
	backing, err := store.OpenOrCreateDurable(filepath.Join(dir, "blocks"), slots, physBS, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	journal, ck, err := proxy.OpenJournal(filepath.Join(dir, "proxy.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe := proxy.NewPipeline(backing)
	var ds proxy.DurableScheme
	if ck != nil {
		if err := proxy.ReplayPending(backing, ck); err != nil {
			t.Fatal(err)
		}
		switch scheme {
		case "dpram":
			ds, err = dpram.Resume(pipe, ck.State, ramOpts)
		case "pathoram":
			ds, err = pathoram.Resume(pipe, ck.State, oramOpts)
		}
		if err != nil {
			t.Fatal(err)
		}
	} else {
		db, derr := block.NewDatabase(recN, recSize)
		if derr != nil {
			t.Fatal(derr)
		}
		switch scheme {
		case "dpram":
			ds, err = dpram.Setup(db, pipe, ramOpts)
		case "pathoram":
			ds, err = pathoram.Setup(db, pipe, oramOpts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.Flush(); err != nil {
			t.Fatal(err)
		}
		state, serr := ds.MarshalState()
		if serr != nil {
			t.Fatal(serr)
		}
		if err := journal.Append(proxy.Checkpoint{State: state}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := proxy.NewDurable(ds, proxy.Options{Pipeline: pipe}, journal)
	if err != nil {
		t.Fatal(err)
	}
	return p, backing
}

func recValue(tag string, i int) block.Block { return recValueSized(tag, i, recSize) }

func recValueSized(tag string, i, size int) block.Block {
	b := block.New(size)
	copy(b, fmt.Sprintf("%s-%04d", tag, i))
	return b
}

// TestDurableProxyRecovery: acked writes through a journaled proxy are
// readable after an unclean restart (no proxy.Close, no final checkpoint)
// for both schemes, and the recovery epoch advances.
func TestDurableProxyRecovery(t *testing.T) {
	for _, scheme := range []string{"dpram", "pathoram"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			p, backing := buildDurableProxy(t, dir, scheme, 1)
			if p.Epoch() != 1 {
				t.Fatalf("first epoch = %d", p.Epoch())
			}
			want := make(map[int]block.Block)
			for q := 0; q < 40; q++ {
				i := (q * 13) % recN
				v := recValue("gen1", q)
				if _, err := p.Write(i, v); err != nil {
					t.Fatal(err)
				}
				want[i] = v
			}
			if p.Checkpoints() == 0 {
				t.Fatal("journaled proxy wrote no checkpoints")
			}
			// Simulated crash: quiesce the pipeline's in-flight I/O so the
			// two engine incarnations don't race on the files (an artifact
			// of crashing in-process; the SIGKILL integration test covers
			// the real overlap), then abandon the proxy WITHOUT Close — no
			// final checkpoint, no clean WAL truncation.
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := backing.Close(); err != nil {
				t.Fatal(err)
			}

			p2, backing2 := buildDurableProxy(t, dir, scheme, 2)
			defer backing2.Close()
			if p2.Epoch() != 2 {
				t.Fatalf("recovered epoch = %d", p2.Epoch())
			}
			for i, v := range want {
				got, err := p2.Read(i)
				if err != nil {
					t.Fatalf("read %d after recovery: %v", i, err)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("record %d lost across restart: got %q want %q", i, got, v)
				}
			}
			// Never-written records are still zero.
			got, err := p2.Read(1) // 13k mod 64 is never 1 (13 invertible mod 64, q<40... 1*13^-1 mod 64 = 5*1? check: 13*5=65≡1, so q=5 writes i=1)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := want[1]; ok {
				if !bytes.Equal(got, v) {
					t.Fatalf("record 1: got %q want %q", got, v)
				}
			} else if !bytes.Equal(got, block.New(recSize)) {
				t.Fatalf("unwritten record 1 is %q", got)
			}
			// The recovered proxy keeps serving: write, crash again, reread.
			v := recValue("gen2", 0)
			if _, err := p2.Write(7, v); err != nil {
				t.Fatal(err)
			}
			if err := p2.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := backing2.Close(); err != nil {
				t.Fatal(err)
			}
			p3, backing3 := buildDurableProxy(t, dir, scheme, 3)
			defer backing3.Close()
			got, err = p3.Read(7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("second-generation write lost: got %q want %q", got, v)
			}
			// Quiesce before the deferred engine close: even a read issues
			// scheme writes (overwrite phase / eviction) through the
			// write-behind pipeline.
			if err := p3.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableProxyCleanShutdown: Close writes the final checkpoint; the
// next generation recovers with an empty pending set and full data.
func TestDurableProxyCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	p, backing := buildDurableProxy(t, dir, "dpram", 1)
	v := recValue("clean", 3)
	if _, err := p.Write(3, v); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := backing.Close(); err != nil {
		t.Fatal(err)
	}
	p2, backing2 := buildDurableProxy(t, dir, "dpram", 2)
	defer backing2.Close()
	got, err := p2.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatalf("clean shutdown lost data: got %q want %q", got, v)
	}
}

// TestJournalBytesPerCheckpoint is the CI gate on what one served DP-RAM
// access costs the journal: the pending ciphertext plus the stash entries
// the access changed, not the whole client state. The byte count is a pure
// function of the seed, so it gates where wall-clock cannot. An access
// leaves the stash alone with probability (1-p)², and when it does insert
// or delete an entry the delta runs from the count field ahead of the stash
// to that entry — half the stash on average, 2p of the time — which is what
// the second record in the budget pays for.
func TestJournalBytesPerCheckpoint(t *testing.T) {
	const (
		n           = 1 << 12
		recordSize  = 1024
		checkpoints = 2000
	)
	opts := dpram.Options{Rand: rng.New(15)}
	physBS := dpram.ServerBlockSize(recordSize, opts)
	mem, err := store.NewMem(n, physBS)
	if err != nil {
		t.Fatal(err)
	}
	journal, _, err := proxy.OpenJournal(filepath.Join(t.TempDir(), "proxy.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe := proxy.NewPipeline(mem)
	db, err := block.NewDatabase(n, recordSize)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := dpram.Setup(db, pipe, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	state, err := scheme.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Append(proxy.Checkpoint{State: state}); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.NewDurable(scheme, proxy.Options{Pipeline: pipe}, journal)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := journal.Size()
	src := rng.New(16)
	for q := 0; q < checkpoints; q++ {
		i := src.Intn(n)
		if q%2 == 0 {
			_, err = p.Write(i, recValueSized("gate", q, recordSize))
		} else {
			_, err = p.Read(i)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Land the write before the next access, so every checkpoint holds
		// exactly its own access's pending block and the count repeats.
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Checkpoints(); got != checkpoints {
		t.Fatalf("%d checkpoints for %d serial accesses", got, checkpoints)
	}
	mean := float64(journal.Size()-start) / checkpoints
	budget := float64(2*physBS + 256)
	t.Logf("journal grew %.0f B per checkpoint (budget %.0f, client state %d B)", mean, budget, len(state))
	if mean > budget {
		t.Fatalf("journal grows %.0f B per single-access checkpoint, budget %.0f B (2 ciphertexts + 256): the delta records have stopped tracking stash churn", mean, budget)
	}
}

// --- recovery obliviousness regression ---------------------------------------

// workloadQueries is the fixed workload both runs execute: a deliberately
// skewed mix (hot record, collisions, writes) — the kind of pattern that
// exposes schedulers or recovery paths whose trace depends on data.
func workloadQueries() []workload.Query {
	qs := make([]workload.Query, 0, 32)
	for q := 0; q < 32; q++ {
		switch {
		case q%4 == 0:
			qs = append(qs, workload.Query{Index: 5, Op: workload.Read}) // hot spot
		case q%4 == 1:
			qs = append(qs, workload.Query{Index: (q * 11) % recN, Op: workload.Write, Data: recValue("w", q)})
		default:
			qs = append(qs, workload.Query{Index: (q * 3) % recN, Op: workload.Read})
		}
	}
	return qs
}

// runShapes executes the workload against a scheme over a trace recorder,
// optionally checkpoint+restarting (restore into a fresh client, fresh
// coins) after `split` queries. It returns the per-query trace shapes.
func runShapes(t *testing.T, scheme string, split int) []string {
	t.Helper()
	var slots, physBS int
	ramOpts := dpram.Options{Rand: rng.New(7), StashParam: 8}
	oramOpts := pathoram.Options{Rand: rng.New(7)}
	switch scheme {
	case "dpram":
		slots, physBS = recN, dpram.ServerBlockSize(recSize, ramOpts)
	case "pathoram":
		slots, physBS = pathoram.TreeShape(recN, recSize, oramOpts)
	}
	mem, err := store.NewMem(slots, physBS)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(mem)
	db, err := block.NewDatabase(recN, recSize)
	if err != nil {
		t.Fatal(err)
	}
	var cur proxy.DurableScheme
	switch scheme {
	case "dpram":
		cur, err = dpram.Setup(db, rec, ramOpts)
	case "pathoram":
		cur, err = pathoram.Setup(db, rec, oramOpts)
	}
	if err != nil {
		t.Fatal(err)
	}
	qs := workloadQueries()
	for qi, q := range qs {
		if qi == split {
			// Checkpoint + "restart": marshal, then resume into a brand-new
			// client over the same recorded server with FRESH coins (seed
			// 99) — exactly what a recovering daemon does. The resumed
			// client's trace shape must be indistinguishable from the
			// uninterrupted run's.
			state, merr := cur.MarshalState()
			if merr != nil {
				t.Fatal(merr)
			}
			switch scheme {
			case "dpram":
				r := ramOpts
				r.Rand = rng.New(99)
				cur, err = dpram.Resume(rec, state, r)
			case "pathoram":
				o := oramOpts
				o.Rand = rng.New(99)
				cur, err = pathoram.Resume(rec, state, o)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rec.Mark()
		if _, err := cur.Access(q); err != nil {
			t.Fatal(err)
		}
	}
	queries := rec.Queries()
	shapes := make([]string, len(queries))
	for i, q := range queries {
		shapes[i] = q.Shape()
	}
	return shapes
}

// TestRecoveryShapeInvariance: the per-query trace shapes of a workload
// resumed after checkpoint+restart are IDENTICAL to the shapes of the same
// workload run uninterrupted, for DP-RAM and Path ORAM, at several restart
// points. Recovery must not leak through the access pattern: a resume that
// issued extra reads, replayed writes inside the request stream, or
// shortened an access would show up here as a shape divergence.
func TestRecoveryShapeInvariance(t *testing.T) {
	for _, scheme := range []string{"dpram", "pathoram"} {
		t.Run(scheme, func(t *testing.T) {
			baseline := runShapes(t, scheme, -1) // uninterrupted
			for _, split := range []int{1, 16, 31} {
				resumed := runShapes(t, scheme, split)
				if len(resumed) != len(baseline) {
					t.Fatalf("split %d: %d queries recorded, want %d", split, len(resumed), len(baseline))
				}
				for i := range baseline {
					if resumed[i] != baseline[i] {
						t.Fatalf("split %d query %d: resumed shape %q != uninterrupted %q (recovery leaks via access pattern)",
							split, i, resumed[i], baseline[i])
					}
				}
			}
		})
	}
}
