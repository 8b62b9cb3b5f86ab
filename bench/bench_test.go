package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in metrics.go must say the same thing, and
// both must keep to the naming rules of the benchmark contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloadDefs", len(bf.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range workloadDefs {
		if bf.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %+v", i, bf.Workloads[i], w)
		}
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if !nameRule.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, tables %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, table has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, table has %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRule.MatchString(d.Name) || !unitRule.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
}

// The same seed must generate the same operations, another seed others.
func TestGeneratorIsSeeded(t *testing.T) {
	gens := map[string]func(seed int64) *generator{
		"records": func(seed int64) *generator { return newRecordGen(seed, 1, 2, records, 0.5) },
		"mix":     func(seed int64) *generator { return newMixGen(seed, 0, mixSlots) },
	}
	for name, mk := range gens {
		a, b, c := mk(7).sequenceHash(5000), mk(7).sequenceHash(5000), mk(8).sequenceHash(5000)
		if a != b {
			t.Errorf("%s: seed 7 gave two op sequences (%x, %x)", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave one op sequence (%x)", name, a)
		}
	}
	// A client only ever draws addresses it owns.
	g := newRecordGen(3, 1, 2, records, 0.5)
	var o op
	for i := 0; i < 1000; i++ {
		if g.next(&o); o.addrs[0]%2 != 1 || o.addrs[0] >= records {
			t.Fatalf("client 1 of 2 drew address %d", o.addrs[0])
		}
	}
	// The mix cycle moves exactly ten blocks per call.
	m := newMixGen(3, 0, mixSlots)
	blocks := 0
	for i := 0; i < 20; i++ {
		m.next(&o)
		blocks += o.n
	}
	if blocks != 200 {
		t.Errorf("one mix cycle moves %d blocks, want 200", blocks)
	}
}

func TestOracleDetectsStaleAndTornBlocks(t *testing.T) {
	b := make([]byte, 64)
	fillBlock(b, 5, 2)
	if !checkBlock(b, 5, 2) {
		t.Fatal("a block does not check against its own content")
	}
	if checkBlock(b, 5, 1) || checkBlock(b, 6, 2) {
		t.Error("stale version or swapped address accepted")
	}
	b[40] ^= 1
	if checkBlock(b, 5, 2) {
		t.Error("torn block accepted")
	}
}

// Every workload runs for a second, untraced and traced, without a failed
// operation, and emits every declared metric exactly once, finite, under
// its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	exact := map[string]map[string]float64{
		"blocksvc-mixed":       {"blocks_per_access": 10, "wire.roundtrips_per_access": 1},
		"dpram-remote":         {"blocks_per_access": 3, "wire.roundtrips_per_access": 2},
		"pathoram-remote":      {"blocks_per_access": 136, "wire.roundtrips_per_access": 2},
		"dpram-served-durable": {"blocks_per_access": 3, "wire.roundtrips_per_access": 1},
	}
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := &config{workload: w.Name, seed: 11, seconds: 1, trace: 2, outDir: dir, tmpDir: dir, cores: 2}
			rep, tally, err := runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tally.failed != 0 || tally.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", tally.failed, tally.attempted, tally.firstErr)
			}
			line, err := rep.resultJSON(tally.attempted, tally.failed, true)
			if err != nil {
				t.Fatal(err)
			}
			var res resultLine
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(endToEnd)+len(perLayer))
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s: emitted=%v unit=%q value=%v", d.Name, ok, m.Unit, m.Value)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			for name, want := range exact[w.Name] {
				if got := res.Metrics[name].Value; got != want {
					t.Errorf("%s = %v, want exactly %v", name, got, want)
				}
			}
			if _, err := os.Stat(dir + "/" + w.Name + ".spans.jsonl"); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
