// Command bench is the repository's benchmark: one process runs one
// workload against the stack assembled in-process (daemon on a loopback
// listener, clients in the same process), checks every value it reads
// against a shadow model, and prints every metric by name with its unit.
// The last line of standard output is one JSON object for the driver.
//
//	bash bench/run.sh -workload dpram-remote -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := &config{cores: runtime.NumCPU()}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; 2: both")
	fs.StringVar(&cfg.outDir, "out", "out", "directory for the span files")
	fs.StringVar(&cfg.tmpDir, "tmp", "", "directory for the durable workload's data (default: the system's)")
	repeat := fs.Int("repeat", 0, "run every workload this many times with one seed and compare the runs")
	calibrate := fs.Bool("calibrate", false, "measure the closed-loop capacity the open-loop rate is derived from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds <= 0 || cfg.trace < 0 || cfg.trace > 2 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -trace 0, 1 or 2")
		return 2
	}
	switch {
	case *repeat > 0:
		return runRepeat(cfg, *repeat)
	case *calibrate:
		return runCalibrate(cfg)
	}
	rep, t, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d host_cores=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.cores)
	rep.print(os.Stdout)
	if t.firstErr != nil {
		fmt.Printf("# first failed operation: %v\n", t.firstErr)
	}
	line, err := rep.resultJSON(t.attempted, t.failed, t.failed == 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if t.failed != 0 {
		return 1
	}
	return 0
}

// runOnce runs one workload and returns its metrics and its op counts.
func runOnce(cfg *config) (*report, *tally, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	cfg.traceEvery = w.traceEvery
	var rep *report
	switch cfg.trace {
	case 0:
		rep = newReport(endToEnd)
	case 1:
		rep = newReport(perLayer)
	default:
		rep = newReport(endToEnd, perLayer)
	}
	total := &tally{}
	if cfg.trace != 1 {
		t, err := runEndToEnd(cfg, w, rep)
		if err != nil {
			return nil, nil, err
		}
		total.merge(t)
	}
	if cfg.trace != 0 {
		t, err := runPerLayer(cfg, w, rep)
		if err != nil {
			return nil, nil, err
		}
		total.merge(t)
	}
	return rep, total, nil
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// runCalibrate drives dpram-served-durable closed-loop — every client
// issuing its next access when the last one returns — and prints the
// capacity the frozen open-loop rate was derived from.
func runCalibrate(cfg *config) int {
	cfg.workload, cfg.closedLoop, cfg.trace = "dpram-served-durable", true, 0
	rep, _, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	capacity := rep.vals["throughput_ops_s"]
	fmt.Printf("closed-loop capacity with %d clients: %.0f accesses/s; 40 %% of it: %.0f/s; frozen rate: %d/s\n",
		clientCount(cfg.cores), capacity, 0.4*capacity, durableRate)
	return 0
}
