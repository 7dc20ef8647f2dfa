package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs the workload k times, each in a child process of its
// own with seeds o.seed, o.seed+1, ..., and prints each metric's median,
// quartiles and quartile spread as a share of the median — the figures
// the benchmark's bounds are set from.
func repeatRuns(o options, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w\n%s", seed, err, out)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: last line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: answers failed their checks", seed)
		}
		line := fmt.Sprintf("seed %d: attempted=%d failed=%d", seed, res.Attempted, res.Failed)
		for _, name := range sortedNames(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line += fmt.Sprintf(" %s=%.4g", name, m.Value)
		}
		fmt.Println(line)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-38s %6s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, n := range names {
		xs := values[n]
		q1, med, q3 := quartiles(xs)
		fmt.Printf("%-38s %6s %12.4f %12.4f %12.4f %8.4f\n", n, units[n], q1, med, q3, ratio(q3-q1, med))
	}
	return nil
}

// quartiles returns the quartiles of xs by the exclusive method, as
// Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
