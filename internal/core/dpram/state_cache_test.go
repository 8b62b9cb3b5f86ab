package dpram

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

// swappedReads serves every read from the neighbouring slot (a ^ 1) while
// writes land where they are addressed: the store itself is never
// corrupted, but every block the client opens is another slot's
// ciphertext, which must fail with crypto.ErrAuth.
type swappedReads struct{ store.BatchServer }

func (s swappedReads) ReadBatch(addrs []int) ([]block.Block, error) {
	swapped := make([]int, len(addrs))
	for k, a := range addrs {
		swapped[k] = a ^ 1
	}
	return s.BatchServer.ReadBatch(swapped)
}

// TestMarshalStateCacheMatchesEncoding: after every access — stash hit or
// miss, stash branch or home write, read or write, success or a failure at
// ReadBatch, at WriteBatch or at open — MarshalState returns exactly a
// fresh encoding of the client, and no slice it returned earlier has
// changed. A small n with p = 1/2 makes every branch frequent; a restore
// to an older snapshot every 25 accesses covers RestoreState.
func TestMarshalStateCacheMatchesEncoding(t *testing.T) {
	const n, c, rec = 8, 4, 16
	for _, ro := range []bool{false, true} {
		t.Run(fmt.Sprintf("retrievalOnly=%v", ro), func(t *testing.T) {
			db, err := block.PatternDatabase(n, rec)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Rand: rng.New(50), Key: crypto.KeyFromSeed(50), StashParam: c, RetrievalOnly: ro}
			mem, err := store.NewMem(n, ServerBlockSize(rec, opts))
			if err != nil {
				t.Fatal(err)
			}
			cl, err := Setup(db, mem, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Retrieval-only mode uploads nothing and stores plaintext, so
			// it has no WriteBatch and no open to fail.
			faults := []string{"none", "read"}
			if !ro {
				faults = append(faults, "write", "open")
			}
			coins := rng.New(51)
			seen := map[string]int{}
			var returned [][]byte // every slice MarshalState handed out, with its bytes at the time
			var copies [][]byte
			snapshot := bytes.Clone(cl.encodeState())
			for k := 1; k <= 2000; k++ {
				before, _ := cl.MarshalState()
				returned, copies = append(returned, before), append(copies, bytes.Clone(before))

				i := coins.Intn(n)
				q := workload.Query{Index: i, Op: workload.Read}
				if coins.Intn(2) == 0 {
					q = workload.Query{Index: i, Op: workload.Write, Data: block.Pattern(uint64(1000+k), rec)}
				}
				fault := faults[coins.Intn(len(faults))]
				switch fault {
				case "none":
					cl.server = mem
				case "read":
					cl.server = store.NewFaulty(mem, 1, nil)
				case "write":
					cl.server = store.NewFaulty(mem, 3, nil) // after the two reads
				case "open":
					cl.server = swappedReads{mem}
				}
				hit := cl.stashed[i]
				_, err := cl.Access(q)
				stashedAfter := cl.stashed[i]
				cl.server = mem

				switch {
				case ro && q.Op == workload.Write:
					if err == nil {
						t.Fatal("retrieval-only write accepted")
					}
				case fault == "none":
					if err != nil {
						t.Fatalf("access %d: %v", k, err)
					}
					seen[fmt.Sprintf("hit=%v toStash=%v op=%v", hit, stashedAfter, q.Op)]++
				case fault == "open":
					if err != nil && !errors.Is(err, crypto.ErrAuth) {
						t.Fatalf("access %d over swapped reads: %v", k, err)
					}
					if err != nil {
						seen[fmt.Sprintf("fault=open hit=%v", hit)]++
					}
				default:
					if !errors.Is(err, store.ErrInjected) {
						t.Fatalf("access %d with a %s fault: err = %v", k, fault, err)
					}
					seen[fmt.Sprintf("fault=%s hit=%v", fault, hit)]++
				}

				got, _ := cl.MarshalState()
				if want := cl.encodeState(); !bytes.Equal(got, want) {
					t.Fatalf("access %d (%v, fault %s): MarshalState is stale (%d B, a fresh encoding is %d B)", k, q.Op, fault, len(got), len(want))
				}
				if k%25 == 0 {
					if err := cl.RestoreState(snapshot); err != nil {
						t.Fatal(err)
					}
					if restored, _ := cl.MarshalState(); !bytes.Equal(restored, snapshot) {
						t.Fatalf("access %d: MarshalState after RestoreState is not the restored snapshot", k)
					}
					snapshot = got // restored 25 accesses from now
				}
			}
			for k, b := range returned {
				if !bytes.Equal(b, copies[k]) {
					t.Fatalf("the slice MarshalState returned before access %d was later modified", k+1)
				}
			}

			var want []string
			for _, hit := range []bool{false, true} {
				for _, toStash := range []bool{false, true} {
					want = append(want, fmt.Sprintf("hit=%v toStash=%v op=%v", hit, toStash, workload.Read))
					if !ro {
						want = append(want, fmt.Sprintf("hit=%v toStash=%v op=%v", hit, toStash, workload.Write))
					}
				}
				for _, f := range faults[1:] {
					want = append(want, fmt.Sprintf("fault=%s hit=%v", f, hit))
				}
			}
			for _, w := range want {
				if seen[w] == 0 {
					t.Errorf("branch %q never exercised (seen: %v)", w, seen)
				}
			}
		})
	}
}

// TestBucketMarshalStateCacheMatchesEncoding is the same check for a
// BucketRAM over overlapping buckets, where updates also write through to
// the dirty copies of other stashed buckets.
func TestBucketMarshalStateCacheMatchesEncoding(t *testing.T) {
	const plain = 16
	mem, err := store.NewMem(6, crypto.CiphertextSize(plain))
	if err != nil {
		t.Fatal(err)
	}
	buckets := overlappingBuckets()
	r, err := NewBucketRAM(mem, buckets, nil, plain, BucketOptions{Rand: rng.New(52), Key: crypto.KeyFromSeed(52), StashParam: 2})
	if err != nil {
		t.Fatal(err)
	}
	coins := rng.New(53)
	faults := []string{"none", "read", "write", "open"}
	var returned, copies [][]byte
	snapshot := r.encodeState()
	for k := 1; k <= 1000; k++ {
		before, _ := r.MarshalState()
		returned, copies = append(returned, before), append(copies, bytes.Clone(before))
		var update func([]block.Block)
		if coins.Intn(2) == 0 {
			pat := block.Pattern(uint64(k), plain)
			update = func(nodes []block.Block) { copy(nodes[k%len(nodes)], pat) }
		}
		fault := faults[coins.Intn(len(faults))]
		switch fault {
		case "read":
			r.server = store.NewFaulty(mem, 1, nil)
		case "write":
			r.server = store.NewFaulty(mem, 7, nil) // after the 2s = 6 reads
		case "open":
			r.server = swappedReads{mem}
		}
		_, err := r.Access(coins.Intn(len(buckets)), update)
		r.server = mem
		if fault == "none" && err != nil {
			t.Fatalf("access %d: %v", k, err)
		}
		if got, _ := r.MarshalState(); !bytes.Equal(got, r.encodeState()) {
			t.Fatalf("access %d (fault %s): MarshalState is stale", k, fault)
		}
		if k%25 == 0 {
			current := r.encodeState()
			if err := r.RestoreState(snapshot); err != nil {
				t.Fatal(err)
			}
			if restored, _ := r.MarshalState(); !bytes.Equal(restored, snapshot) {
				t.Fatalf("access %d: MarshalState after RestoreState is not the restored snapshot", k)
			}
			snapshot = current // restored 25 accesses from now
		}
	}
	for k, b := range returned {
		if !bytes.Equal(b, copies[k]) {
			t.Fatalf("the slice MarshalState returned before access %d was later modified", k+1)
		}
	}
}

// failAfterRead lets every ReadBatch reach the store and, while armed,
// loses its reply — the server saw the addresses, the client gets an
// error: a dropped connection, or a server choosing to fail the access.
type failAfterRead struct {
	store.BatchServer
	armed bool
	reads [][]int
}

var errReplyLost = errors.New("reply lost")

func (s *failAfterRead) ReadBatch(addrs []int) ([]block.Block, error) {
	s.reads = append(s.reads, append([]int(nil), addrs...))
	blocks, err := s.BatchServer.ReadBatch(addrs)
	if s.armed {
		return nil, errReplyLost
	}
	return blocks, err
}

// TestFailedAccessRetryRedrawsCoins pins what a retry does today: an
// access that fails after the store has served its reads leaves the stash
// (and the marshalled state, the very same slice) untouched, but it has
// spent its coins, and the retry draws fresh ones. When the record is not
// stashed, both attempts download it first, so the server sees the real
// address once per attempt and each attempt adds to the ε of that query.
// A client that rolls failed accesses forward — replaying the identical
// addresses — flips the last assertion: no retry would then differ from
// the attempt that failed.
func TestFailedAccessRetryRedrawsCoins(t *testing.T) {
	const n, c, rec = 64, 16, 16
	db, err := block.PatternDatabase(n, rec)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := store.NewMem(n, crypto.CiphertextSize(rec))
	if err != nil {
		t.Fatal(err)
	}
	srv := &failAfterRead{BatchServer: mem}
	cl, err := Setup(db, srv, Options{Rand: rng.New(15), Key: crypto.KeyFromSeed(15), StashParam: c})
	if err != nil {
		t.Fatal(err)
	}
	coins := rng.New(16)
	redrawn, unstashed := 0, 0
	for k := 0; k < 200; k++ {
		i := coins.Intn(n)
		q := workload.Query{Index: i, Op: workload.Read}
		if k%2 == 1 {
			q = workload.Query{Index: i, Op: workload.Write, Data: block.Pattern(uint64(k), rec)}
		}
		stashed := cl.stashed[i]
		before, _ := cl.MarshalState()

		srv.armed = true
		if _, err := cl.Access(q); !errors.Is(err, errReplyLost) {
			t.Fatalf("query %d: failed attempt returned %v", k, err)
		}
		srv.armed = false
		failed := srv.reads[len(srv.reads)-1]
		if after, _ := cl.MarshalState(); &after[0] != &before[0] {
			t.Fatalf("query %d: the failed attempt replaced the marshalled state", k)
		}
		if !bytes.Equal(cl.encodeState(), before) {
			t.Fatalf("query %d: the failed attempt changed the stash", k)
		}

		if _, err := cl.Access(q); err != nil {
			t.Fatalf("query %d: retry: %v", k, err)
		}
		retry := srv.reads[len(srv.reads)-1]
		if !stashed {
			unstashed++
			if failed[0] != i || retry[0] != i {
				t.Fatalf("query %d: record %d not stashed, attempts downloaded %d then %d first", k, i, failed[0], retry[0])
			}
		}
		if failed[0] != retry[0] || failed[1] != retry[1] {
			redrawn++
		}
	}
	if unstashed == 0 {
		t.Fatal("no query found its record unstashed")
	}
	if redrawn == 0 {
		t.Fatal("every retry replayed the failed attempt's addresses")
	}
	t.Logf("%d of 200 retries read other addresses than the attempt that failed; %d queries were for unstashed records", redrawn, unstashed)
}
