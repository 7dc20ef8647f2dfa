// Command servebench is the repository's serving benchmark. It
// assembles a durable lb-serve primary in-process (and, for one
// workload, a follower tailing it), drives it over loopback HTTP from a
// seeded closed loop of one client per workload, checks every answer
// against its own model of the acknowledged writes, audits the primary,
// the follower and the recovered database at the end, and prints every
// metric by name and unit. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload views-write --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --workload read-large --seed 1 --seconds 10 --repeat 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"

	"logicblox"
)

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	desc  string
}

// result is a run's outcome: the printed JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the operations are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times in child processes (seeds seed, seed+1, ...) and print each metric's median and quartiles")
	flag.Parse()
	o.trace = *trace == 1
	w := workloads()[o.workload]
	if w == nil || *trace < 0 || *trace > 1 || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "servebench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(o, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	logicblox.EnableStorageStats(true)
	res, err := run(o, w, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes one line per metric, sorted by name.
func printMetrics(out io.Writer, ms map[string]metric) {
	for _, n := range sortedNames(ms) {
		m := ms[n]
		line := fmt.Sprintf("  %-38s %14.4f %-6s", n, m.Value, m.Unit)
		if m.desc != "" {
			line += "  " + m.desc
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
}
