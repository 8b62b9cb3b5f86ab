// Package dpir implements differentially private information retrieval —
// the DP-IR primitive of Section 5 of the paper.
//
// IR is stateless on both sides: the server stores the plaintext database
// and the client keeps nothing between queries. Algorithm 1 (Appendix G)
// hides a retrieval by downloading the wanted block together with K−1
// uniformly random decoys, and with probability α downloads K pure decoys
// and answers ⊥ (an error). With
//
//	K = ⌈(1−α)·n / (e^ε − 1)⌉
//
// the scheme is ε'-DP-IR for e^ε' = 1 + (1−α)·n/(α·K) (Theorem 5.1,
// Appendix B), so e^ε' − 1 ≈ (e^ε − 1)/α: the ε' achieved is not the ε
// that sized K. At ε', K is ≈ 1/α times the floor (n−1)(1−α)/e^ε' of
// Theorem 3.4 — optimal up to that constant factor, not equal to the
// floor. At ε = Θ(log n), K is O(1): constant-overhead private retrieval.
//
// The package also provides the errorless variant (a full scan, which
// Theorem 3.3 proves optimal) and the multi-server uniform-decoy scheme
// analyzed in Appendix C.
package dpir

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dpstore/internal/block"
	"dpstore/internal/privacy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

// ErrBottom is returned by Query when the scheme's internal coin chose the
// error branch (probability α): the transcript contains only decoys and the
// client must report ⊥.
var ErrBottom = errors.New("dpir: query errored (⊥ branch of Algorithm 1)")

// Options configures a DP-IR client.
type Options struct {
	// Epsilon is the requested privacy budget ε ≥ 0. It sizes K by
	// Algorithm 1's formula K = ⌈(1−α)·n/(e^ε − 1)⌉; the ε the client
	// actually gets is ε' = privacy.DPIRAchievedEps(n, K, α), with
	// e^ε' − 1 ≈ (e^ε − 1)/α.
	Epsilon float64
	// Alpha is the error probability α ∈ (0, 1]. Algorithm 1 requires
	// α > 0; see NewErrorless for the α = 0 case.
	Alpha float64
	// Rand is the client's coin source. Required.
	Rand *rng.Source
}

func (o Options) validate() error {
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 {
		return fmt.Errorf("dpir: ε = %v must be ≥ 0", o.Epsilon)
	}
	if !(o.Alpha > 0 && o.Alpha <= 1) {
		return fmt.Errorf("dpir: α = %v must be in (0, 1]", o.Alpha)
	}
	if o.Rand == nil {
		return errors.New("dpir: Options.Rand is required")
	}
	return nil
}

// Client is a stateless DP-IR client bound to a server. ("Stateless" in the
// paper's sense: nothing is carried between queries; the struct only holds
// immutable parameters and the coin source.)
type Client struct {
	server store.BatchServer
	n      int
	k      int
	alpha  float64
	eps    float64
	src    *rng.Source
}

// New creates a DP-IR client for the n-record database held by server.
func New(server store.Server, opts Options) (*Client, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := server.Size()
	if n < 2 {
		return nil, fmt.Errorf("dpir: database must hold ≥ 2 records, got %d", n)
	}
	return &Client{
		server: store.AsBatch(server),
		n:      n,
		k:      privacy.DPIRDownloadCount(n, opts.Epsilon, opts.Alpha),
		alpha:  opts.Alpha,
		eps:    opts.Epsilon,
		src:    opts.Rand,
	}, nil
}

// K returns the per-query download count.
func (c *Client) K() int { return c.k }

// RequestedEps returns the ε the client was configured with.
func (c *Client) RequestedEps() float64 { return c.eps }

// AchievedEps returns the budget the scheme actually attains with this K
// and α, per Appendix B: ln(1 + (1−α)·n/(α·K)).
func (c *Client) AchievedEps() float64 {
	return privacy.DPIRAchievedEps(c.n, c.k, c.alpha)
}

// Alpha returns the configured error probability.
func (c *Client) Alpha() float64 { return c.alpha }

// SampleSet runs the coin flips of Algorithm 1 without touching the server:
// it returns the download set T (sorted) and whether the real branch was
// taken (real = false means the ⊥ branch). Analysis code uses it to sample
// exact transcripts cheaply.
func (c *Client) SampleSet(q int) (set []int, real bool) {
	real = !c.src.Bernoulli(c.alpha) // r > α keeps the real block
	if real {
		set = append(set, q)
		set = append(set, c.src.SubsetExcluding(c.n, c.k-1, q)...)
	} else {
		set = c.src.Subset(c.n, c.k)
	}
	sort.Ints(set)
	return set, real
}

// Query retrieves record q (zero-based). It downloads the K-block set of
// Algorithm 1 batched — the set is fully determined by the coins before
// the server is touched, so ⌈K/store.ScanWindow⌉ round trips suffice (one,
// at the K = O(1) operating point of ε = Θ(log n)) — and returns the
// record, or ErrBottom on the α branch. Any server failure is returned
// verbatim.
func (c *Client) Query(q int) (block.Block, error) {
	if q < 0 || q >= c.n {
		return nil, fmt.Errorf("dpir: query %d out of range [0,%d)", q, c.n)
	}
	set, real := c.SampleSet(q)
	var want block.Block
	// K is O(1) at the ε = Θ(log n) operating point, but near-linear in the
	// low-ε regime, so the set is fetched in bounded windows like the full
	// scans.
	err := store.ReadWindows(c.server, set, func(start int, blocks []block.Block) error {
		for i, j := range set[start : start+len(blocks)] {
			if j == q {
				want = blocks[i]
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dpir: downloading decoy set: %w", err)
	}
	if !real {
		// Algorithm 1 returns ⊥ on the α branch even if q happened to be
		// drawn as a decoy; correctness must depend only on the coin so the
		// error probability is exactly α, independent of the query.
		return nil, ErrBottom
	}
	return want, nil
}

// Errorless is the α = 0 variant: by Theorem 3.3 an errorless DP-IR must
// operate on (1−δ)·n records no matter the budget, so the optimal errorless
// scheme is simply a full scan (equivalently, trivial PIR). It is included
// as the E1 baseline.
type Errorless struct {
	server store.BatchServer
	n      int
}

// NewErrorless creates the full-scan errorless DP-IR.
func NewErrorless(server store.Server) *Errorless {
	return &Errorless{server: store.AsBatch(server), n: server.Size()}
}

// Query downloads every record in batched scan windows and returns
// record q.
func (e *Errorless) Query(q int) (block.Block, error) {
	if q < 0 || q >= e.n {
		return nil, fmt.Errorf("dpir: query %d out of range [0,%d)", q, e.n)
	}
	var want block.Block
	err := store.ScanRange(e.server, e.n, func(base int, blocks []block.Block) error {
		if q >= base && q < base+len(blocks) {
			want = blocks[q-base]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dpir: scanning: %w", err)
	}
	return want, nil
}
