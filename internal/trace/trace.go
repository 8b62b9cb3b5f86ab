// Package trace captures adversary views.
//
// Definition 2.1 defines privacy over the transcript S(Q): everything the
// adversarial server sees while a query sequence executes. For a passive
// server in the balls-and-bins model that is exactly the ordered list of
// (operation, address) pairs — ciphertext contents are excluded from the
// view by the IND-CPA reduction discussed in Section 6.1. The Recorder
// wraps a store.Server and materializes that view, with query boundaries
// marked so per-query structure such as DP-RAM's (d_j, o_j) pairs can be
// recovered.
package trace

import (
	"strconv"
	"strings"
	"sync"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

// Op distinguishes the two moves of Definition 3.1.
type Op byte

// Operation kinds.
const (
	OpDownload Op = 'D'
	OpUpload   Op = 'U'
)

// Access is one observed server operation.
type Access struct {
	Op   Op
	Addr int
}

// Transcript is an ordered adversary view of one or more queries.
type Transcript []Access

// Key renders a transcript as a compact, canonical string usable as a
// histogram class in the empirical privacy estimator. Example: "D3 U3 D7".
func (t Transcript) Key() string {
	var sb strings.Builder
	for i, a := range t {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte(byte(a.Op))
		sb.WriteString(strconv.Itoa(a.Addr))
	}
	return sb.String()
}

// Shape renders the transcript with the addresses erased: run-length
// encoded operation kinds, e.g. "D2 U1" for two downloads then an upload.
// The shape is the part of the adversary view that must be *identical* —
// not just identically distributed — across workloads for a correctly
// scheduled construction: every scheme in this module moves a fixed,
// data-independent number of blocks per query, so any shape divergence
// between two workloads (a shorter trace on colliding addresses, say, the
// signature of a deduplicating scheduler) is an access-pattern leak.
func (t Transcript) Shape() string {
	var sb strings.Builder
	for i := 0; i < len(t); {
		j := i
		for j < len(t) && t[j].Op == t[i].Op {
			j++
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte(byte(t[i].Op))
		sb.WriteString(strconv.Itoa(j - i))
		i = j
	}
	return sb.String()
}

// Addrs returns the set of distinct addresses the transcript touches.
func (t Transcript) Addrs() map[int]struct{} {
	m := make(map[int]struct{}, len(t))
	for _, a := range t {
		m[a.Addr] = struct{}{}
	}
	return m
}

// Contains reports whether the transcript operates on addr.
func (t Transcript) Contains(addr int) bool {
	for _, a := range t {
		if a.Addr == addr {
			return true
		}
	}
	return false
}

// Recorder wraps a store.Server, forwarding every operation while appending
// it to an in-memory transcript. Mark() inserts query boundaries.
type Recorder struct {
	inner store.Server

	mu     sync.Mutex
	trans  Transcript
	bounds []int // index into trans where each marked query begins
}

// NewRecorder wraps inner.
func NewRecorder(inner store.Server) *Recorder {
	return &Recorder{inner: inner}
}

// Download implements store.Server.
func (r *Recorder) Download(addr int) (block.Block, error) {
	b, err := r.inner.Download(addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.trans = append(r.trans, Access{Op: OpDownload, Addr: addr})
	r.mu.Unlock()
	return b, nil
}

// Upload implements store.Server.
func (r *Recorder) Upload(addr int, b block.Block) error {
	if err := r.inner.Upload(addr, b); err != nil {
		return err
	}
	r.mu.Lock()
	r.trans = append(r.trans, Access{Op: OpUpload, Addr: addr})
	r.mu.Unlock()
	return nil
}

// Flush implements store.Flusher by forwarding to the inner store.
func (r *Recorder) Flush() error { return store.Flush(r.inner) }

// Size implements store.Server.
func (r *Recorder) Size() int { return r.inner.Size() }

// BlockSize implements store.Server.
func (r *Recorder) BlockSize() int { return r.inner.BlockSize() }

// Mark records a query boundary: all operations recorded after this call
// belong to the next query.
func (r *Recorder) Mark() {
	r.mu.Lock()
	r.bounds = append(r.bounds, len(r.trans))
	r.mu.Unlock()
}

// Transcript returns a copy of the full recorded view.
func (r *Recorder) Transcript() Transcript {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(Transcript(nil), r.trans...)
}

// Queries splits the view at the recorded Mark boundaries. Operations before
// the first Mark (for example, setup uploads) are dropped; callers that want
// them should call Mark before setup.
func (r *Recorder) Queries() []Transcript {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bounds) == 0 {
		return nil
	}
	out := make([]Transcript, 0, len(r.bounds))
	for i, start := range r.bounds {
		end := len(r.trans)
		if i+1 < len(r.bounds) {
			end = r.bounds[i+1]
		}
		q := append(Transcript(nil), r.trans[start:end]...)
		out = append(out, q)
	}
	return out
}

// Reset clears the recorded view and boundaries.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.trans = nil
	r.bounds = nil
	r.mu.Unlock()
}
