package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRepeat runs every workload n times, each in its own process, all with
// one seed, and prints for every end-to-end metric the values, their
// relative spread and the metric's bound. Metrics that are exact counts
// must match bit for bit. It returns non-zero if any run fails or any exact
// metric differs.
func runRepeat(cfg *config, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	exact := map[string]bool{}
	for _, m := range exactMetrics {
		exact[m] = true
	}
	status := 0
	for _, w := range workloadDefs {
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		runs := make([]resultLine, 0, n)
		for i := 0; i < n; i++ {
			res, err := runChild(self, cfg, w.Name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.Name, i+1, err)
				return 1
			}
			runs = append(runs, res)
		}
		fmt.Printf("%s (seed %d, %g s, %d runs)\n", w.Name, cfg.seed, cfg.seconds, n)
		defs := append(append([]metricDef(nil), endToEnd...), metricDef{Name: "wire.roundtrips_per_access", Unit: "count"})
		for _, d := range defs {
			lo, hi := math.Inf(1), math.Inf(-1)
			var vals []string
			for _, r := range runs {
				v := r.Metrics[d.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals = append(vals, strconv.FormatFloat(v, 'g', 8, 64))
			}
			diff := ratio(hi-lo, math.Abs(lo))
			verdict := "within bound"
			switch {
			case exact[d.Name] && hi != lo:
				verdict, status = "EXACT METRIC DIFFERS", 1
			case exact[d.Name]:
				verdict = "exact"
			case diff > d.Bound:
				verdict = "beyond bound"
			}
			fmt.Printf("  %-28s %-6s %-44s diff %7.3f%%  bound %5.1f%%  %s\n",
				d.Name, d.Unit, strings.Join(vals, "  "), 100*diff, 100*d.Bound, verdict)
		}
	}
	return status
}

// runChild runs one workload in a child process, end-to-end and traced,
// and parses the result line.
func runChild(self string, cfg *config, workload string) (resultLine, error) {
	var res resultLine
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "2",
		"-out", cfg.outDir, "-tmp", cfg.tmpDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}
