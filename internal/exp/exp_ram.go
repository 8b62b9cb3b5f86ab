package exp

import (
	"fmt"
	"math"

	"dpstore/internal/analysis"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/exact"
	"dpstore/internal/privacy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/workload"
)

func init() {
	register(Experiment{
		ID:         "E5",
		Title:      "DP-RAM: constant cost and Φ(n)-bounded client stash",
		Reproduces: "Theorem 6.1 / Algorithms 2–3 / Lemma D.1",
		Run:        runE5,
	})
	register(Experiment{
		ID:         "E6",
		Title:      "DP-RAM empirical privacy at small n",
		Reproduces: "Theorem 6.1 privacy analysis (Section 6.1–6.5)",
		Run:        runE6,
	})
	register(Experiment{
		ID:         "E7",
		Title:      "DP-RAM lower-bound landscape log_c((1−α)n/e^ε)",
		Reproduces: "Theorem 3.7",
		Run:        runE7,
	})
}

func runE5(cfg Config) ([]*Table, error) {
	src := rng.New(cfg.Seed)
	t := &Table{
		Title: "E5 — DP-RAM (Algorithms 2–3): exact per-query cost and stash behaviour",
		Note: "Theorem 6.1: 3 blocks in 2 exchanges per query at every n, 1 of them awaited (the upload is posted); " +
			"Lemma D.1: stash stays O(Φ(n)) w.h.p. (Φ = ⌈lg n·lg lg n⌉ here).",
		Header: []string{"n", "Φ(n)", "down/query", "up/query", "exchanges (awaited)", "stash avg", "stash max", "3Φ ceiling"},
	}
	for _, n := range sizes(cfg, 1<<10, 1<<12, 1<<14, 1<<16) {
		db, err := block.PatternDatabase(n, block.DefaultSize)
		if err != nil {
			return nil, err
		}
		opts := dpram.Options{Rand: src.Split(), Key: crypto.KeyFromSeed(uint64(n))}
		srv, err := store.NewMem(n, dpram.ServerBlockSize(block.DefaultSize, opts))
		if err != nil {
			return nil, err
		}
		counting := store.NewCounting(srv)
		c, err := dpram.Setup(db, counting, opts)
		if err != nil {
			return nil, err
		}
		counting.Reset()
		q := trials(cfg, 10000)
		w := src.Split()
		var stashSum float64
		for i := 0; i < q; i++ {
			idx := w.Intn(n)
			if w.Bernoulli(0.3) {
				if _, err := c.Write(idx, block.Pattern(uint64(i), block.DefaultSize)); err != nil {
					return nil, err
				}
			} else {
				if _, err := c.Read(idx); err != nil {
					return nil, err
				}
			}
			stashSum += float64(c.StashSize())
		}
		st := counting.Stats()
		t.AddRow(fi(n), fi(c.StashParam()),
			ff(float64(st.Downloads)/float64(q)),
			ff(float64(st.Uploads)/float64(q)),
			"2 (1)",
			ff(stashSum/float64(q)), fi(c.MaxStashSize()), fi(3*c.StashParam()))
	}
	return []*Table{t}, nil
}

// e6Recorder captures (op, addr) pairs as a compact class key.
type e6Recorder struct {
	inner store.Server
	log   []byte
}

func (r *e6Recorder) Download(addr int) (block.Block, error) {
	b, err := r.inner.Download(addr)
	if err == nil {
		r.log = append(r.log, 'D', byte('0'+addr))
	}
	return b, err
}

func (r *e6Recorder) Upload(addr int, b block.Block) error {
	err := r.inner.Upload(addr, b)
	if err == nil {
		r.log = append(r.log, 'U', byte('0'+addr))
	}
	return err
}

func (r *e6Recorder) Size() int      { return r.inner.Size() }
func (r *e6Recorder) BlockSize() int { return r.inner.BlockSize() }

func runE6(cfg Config) ([]*Table, error) {
	src := rng.New(cfg.Seed)
	const n = 4
	const phi = 2
	t := &Table{
		Title: fmt.Sprintf("E6 — DP-RAM ε at n = %d, p = %.2f (adjacent 2-query sequences, full transcript classes)", n, float64(phi)/n),
		Note: "ε exact is computed by exhaustive enumeration of the transcript Markov chain (internal/exact); " +
			"ε̂ is sampled from the production implementation. The Theorem 6.1 proof certifies " +
			"ε ≤ 3·ln(n²/p)+3·ln(n/p); one-sided mass 0 = pure DP.",
		Header: []string{"pair", "ε (exact)", "ε̂ (sampled)", "Thm 6.1 bound", "one-sided (exact)", "one-sided (sampled)"},
	}
	pairs := []struct {
		name string
		a, b workload.Sequence
	}{
		{"read idx differs", workload.Sequence{{Index: 0, Op: workload.Read}, {Index: 1, Op: workload.Read}},
			workload.Sequence{{Index: 0, Op: workload.Read}, {Index: 2, Op: workload.Read}}},
		{"op differs", workload.Sequence{{Index: 0, Op: workload.Read}, {Index: 1, Op: workload.Read}},
			workload.Sequence{{Index: 0, Op: workload.Read}, {Index: 1, Op: workload.Write, Data: block.Pattern(9, block.DefaultSize)}}},
	}
	bound := privacy.DPRAMEpsUpperBound(n, float64(phi)/n)
	model := exact.NewDPRAM(n, phi)
	for _, pair := range pairs {
		exactRes := model.ComparePair(pair.a, pair.b)
		sample := func(s *rng.Source, seq workload.Sequence) func() string {
			db, _ := block.PatternDatabase(n, block.DefaultSize)
			return func() string {
				srv, _ := store.NewMem(n, block.DefaultSize)
				rec := &e6Recorder{inner: srv}
				c, err := dpram.Setup(db, rec, dpram.Options{
					Rand: s.Split(), StashParam: phi, DisableEncryption: true,
				})
				if err != nil {
					panic(err)
				}
				rec.log = nil
				for _, q := range seq {
					if _, err := c.Access(q); err != nil {
						panic(err)
					}
				}
				return string(rec.log)
			}
		}
		pe := analysis.SamplePair(sample(src.Split(), pair.a), sample(src.Split(), pair.b), trials(cfg, 150000))
		t.AddRow(pair.name, ff(exactRes.Eps), ff(pe.MaxRatioEps(30)), ff(bound),
			fg(exactRes.OneSided), fg(pe.OneSidedMass()))
	}
	return []*Table{t}, nil
}

func runE7(cfg Config) ([]*Table, error) {
	n := 1 << 20
	lgn := math.Log(float64(n))
	t := &Table{
		Title: fmt.Sprintf("E7 — Theorem 3.7 landscape at n = 2^20: required overhead log_c((1−α)n/e^ε)"),
		Note: "Two escape routes from the Ω(log n) ORAM bound: grow client storage c, or grow ε. " +
			"Our DP-RAM sits at (ε = Θ(log n), overhead 3); Path ORAM at (ε = 0, overhead 2Z·lg n).",
		Header: []string{"ε", "c = 2", "c = 16", "c = 1024", "remark"},
	}
	rows := []struct {
		eps    float64
		remark string
	}{
		{0, "oblivious (ORAM regime)"},
		{2, "constant ε"},
		{lgn / 2, "ε = ½·ln n"},
		{lgn, "ε = ln n — our DP-RAM (measured overhead 3)"},
		{2 * lgn, "ε = 2·ln n"},
	}
	for _, r := range rows {
		t.AddRow(ff(r.eps),
			ff(privacy.DPRAMLowerBound(n, 2, r.eps, 0)),
			ff(privacy.DPRAMLowerBound(n, 16, r.eps, 0)),
			ff(privacy.DPRAMLowerBound(n, 1024, r.eps, 0)),
			r.remark)
	}
	_ = cfg
	return []*Table{t}, nil
}
