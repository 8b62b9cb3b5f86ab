package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// workloadDef names one workload and records why it exists. The list is the
// single source of truth; BENCHMARK.json is checked against it by the tests.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"blocksvc-mixed", "Plaintext floor: 2 tenants, reads beside writes, per-block beside batch frames, 64 KiB payloads; wire, store.remote, admission and backing do all the work; no scheme, crypto or fsync."},
	{"dpram-remote", "The paper's construction in the paper's setting: 3 blocks and 2 tiny round trips per access, so wire and store.remote dominate and crypto does little."},
	{"pathoram-remote", "The paper's baseline on the same database: 136 blocks and two 8 KiB frames per access, so crypto and pathoram dominate; large batches through the same wire and store layers."},
	{"dpram-served-durable", "The headline served path with independent arrivals: open loop at a frozen rate through proxy, journal, pipeline and WAL; two fsync chains dominate, wire and crypto are minor."},
}

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"access_p50_us", "us", "lower", 0.25},
	{"access_p99_us", "us", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"cpu_us_per_access", "us", "lower", 0.25},
	{"overhead_x", "x", "lower", 0.25},
	{"blocks_per_access", "count", "lower", 0.005},
	{"storage_blowup_x", "x", "lower", 0.02},
}

// exactMetrics must repeat bit for bit between two runs of one commit with
// one seed (checked by -repeat).
var exactMetrics = []string{"blocks_per_access", "storage_blowup_x", "wire.roundtrips_per_access"}

var perLayer = []metricDef{
	{"wire.bytes_up_per_access", "B", "lower", 0},
	{"wire.bytes_down_per_access", "B", "lower", 0},
	{"wire.roundtrips_per_access", "count", "lower", 0},
	{"wire.codec_ns_per_access", "ns", "lower", 0},

	{"store.remote.rtt_p50_us", "us", "lower", 0},
	{"store.remote.rtt_p99_us", "us", "lower", 0},
	{"store.remote.calls_per_access", "count", "lower", 0},
	{"store.remote.self_us_per_access", "us", "lower", 0},

	{"store.admission.shed_ratio", "ratio", "lower", 0},
	{"store.admission.queue_wait_p99_us", "us", "lower", 0},

	{"store.backing.busy_us_per_access", "us", "lower", 0},
	{"store.backing.read_blocks_per_access", "count", "lower", 0},
	{"store.backing.write_blocks_per_access", "count", "lower", 0},

	{"store.durable.read_batch_p50_us", "us", "lower", 0},
	{"store.durable.write_batch_p50_us", "us", "lower", 0},
	{"store.durable.write_batch_p99_us", "us", "lower", 0},
	{"store.durable.fsyncs_per_access", "count", "lower", 0},
	{"store.durable.fsync_p50_us", "us", "lower", 0},
	{"store.durable.group_commit_size_mean", "count", "higher", 0},
	{"store.durable.disk_bytes_per_user_byte", "x", "lower", 0},

	{"proxy.access_p50_us", "us", "lower", 0},
	{"proxy.self_us_per_access", "us", "lower", 0},
	{"proxy.journal.checkpoint_p50_us", "us", "lower", 0},
	{"proxy.journal.state_bytes_per_checkpoint", "B", "lower", 0},
	{"proxy.journal.accesses_per_checkpoint", "count", "higher", 0},

	{"proxy.pipeline.read_p50_us", "us", "lower", 0},
	{"proxy.pipeline.write_enqueue_p50_us", "us", "lower", 0},
	{"proxy.pipeline.flush_ops_mean", "count", "higher", 0},
	{"proxy.pipeline.self_us_per_access", "us", "lower", 0},

	{"dpram.access_p50_us", "us", "lower", 0},
	{"dpram.self_us_per_access", "us", "lower", 0},
	{"dpram.marshal_state_us", "us", "lower", 0},
	{"dpram.stash_size_max", "count", "lower", 0},
	{"dpram.client_state_bytes", "B", "lower", 0},

	{"pathoram.access_p50_us", "us", "lower", 0},
	{"pathoram.self_us_per_access", "us", "lower", 0},
	{"pathoram.stash_size_max", "count", "lower", 0},
	{"pathoram.client_state_bytes", "B", "lower", 0},

	{"crypto.seal_ns_per_block", "ns", "lower", 0},
	{"crypto.open_ns_per_block", "ns", "lower", 0},
	{"crypto.ablation_us_per_access", "us", "lower", 0},

	{"proc.host_cores", "count", "higher", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.allocs_per_access", "count", "lower", 0},
	{"proc.alloc_bytes_per_access", "B", "lower", 0},
	{"proc.gc_pause_total_ms", "ms", "lower", 0},

	{"gen.late_p50_us", "us", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.slo_miss_ratio", "ratio", "lower", 0},
	{"gen.fail_ratio", "ratio", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unattributed_pct", "%", "lower", 0},
	{"trace.sampled_accesses", "count", "higher", 0},

	// Per-op-type medians of blocksvc-mixed, taken with tracing off. They sit
	// here and not among the end-to-end metrics because every workload must
	// emit every end-to-end metric and the scheme workloads have no such ops.
	{"read_batch_p50_us", "us", "lower", 0},
	{"write_batch_p50_us", "us", "lower", 0},
	{"download_p50_us", "us", "lower", 0},
	{"upload_p50_us", "us", "lower", 0},
}

// report collects the metric values of one run. A metric that a workload's
// stack does not contain stays 0.
type report struct {
	defs    []metricDef
	vals    map[string]float64
	samples map[string]int // sample count behind a percentile, where one exists
	notes   []string
}

func newReport(defs ...[]metricDef) *report {
	r := &report{vals: map[string]float64{}, samples: map[string]int{}}
	for _, d := range defs {
		r.defs = append(r.defs, d...)
	}
	for _, d := range r.defs {
		r.vals[d.Name] = 0
	}
	return r
}

// set records a value; an undeclared name is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	if _, ok := r.vals[name]; !ok {
		panic("bench: undeclared metric " + name)
	}
	r.vals[name] = v
}

// setN records a percentile together with the sample count behind it.
func (r *report) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

func (r *report) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// print writes one line per metric: name, value, unit, sample count.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		line := fmt.Sprintf("%-44s %16.4f %-6s", d.Name, r.vals[d.Name], d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultJSON(attempted, failed int, correct bool) ([]byte, error) {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		v := r.vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(out)
}

// quantile returns the nearest-rank q-quantile of sorted values (0 if empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tailQuantile is the highest of p99, p95, p90, p75 that still has at least
// ten samples beyond it; short runs fall back to the median.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
