// Command perfbench is the repository's end-to-end benchmark. It boots
// in-process anonradiod nodes on loopback listeners (behind the fleet
// router for the routed workload), drives them with at most two
// closed-loop clients over the binary wire encoding, checks every outcome
// against an in-process reference, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. Run it through run.sh, which
// builds it inside the checkout:
//
//	bash perfbench/run.sh --workload serve-routed-small --seed 1 --seconds 10 --trace 0
//
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"elect_p50_us", "us"}, {"elect_per_s", "1/s"}, {"batch_p50_us", "us"},
	{"admit_p50_us", "us"}, {"admit_per_s", "1/s"}, {"recover_s", "s"}, {"mem_peak_mb", "MB"},
}

// perLayer lists the traced run's metrics. A layer a workload bypasses
// reports 0: the router and its hop on the durable workload, the journal on
// the serve workload. The tail percentiles sit here, with their sample
// counts, because they are too noisy to gate on.
var perLayer = []metricDef{
	{"fleet.client_self_us", "us"}, {"fleet.router_self_us", "us"}, {"fleet.hop_us", "us"}, {"fleet.batch_fanout", "count"},
	{"server.elect_self_us", "us"}, {"server.batch_self_us", "us"}, {"server.register_self_us", "us"},
	{"wire.elect_codec_ns", "ns"}, {"wire.batch_codec_us", "us"}, {"wire.artifact_decode_us", "us"},
	{"service.elect_self_us", "us"}, {"service.stolen_share", "ratio"}, {"service.admit_self_us", "us"},
	{"service.rebuild_hit_ratio", "ratio"}, {"service.admission_rejected", "count"}, {"service.admission_failed", "count"},
	{"election.elect_into_us", "us"}, {"election.verify_us", "us"}, {"radio.rounds_per_elect", "rounds"},
	{"election.build_us", "us"}, {"election.load_trusted_us", "us"},
	{"core.classify_us", "us"}, {"core.iterations", "count"}, {"config.parse_us", "us"},
	{"wal.append_us", "us"}, {"wal.syncs_per_admit", "count"}, {"wal.checkpoints", "count"}, {"wal.checkpoint_ms", "ms"},
	{"wal.bytes_per_admit", "B"}, {"wal.replay_s", "s"}, {"recover.records", "count"}, {"recover.checkpoint_entries", "count"},
	{"mem.heap_live_mb", "MB"}, {"mem.bytes_per_key", "B"},
	{"trace.unattributed_us", "us"}, {"trace.overhead_pct", "%"},
	{"elect_p99_us", "us"}, {"batch_p99_us", "us"}, {"admit_p99_us", "us"},
	{"elect_samples", "count"}, {"batch_samples", "count"}, {"admit_samples", "count"},
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run (serve-routed-small, admit-churn-durable)")
	flag.Int64Var(&p.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&p.seconds, "seconds", 10, "scales the fixed operation counts of the timed phases")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run that reports per-layer metrics")
	flag.Parse()
	if p.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	p.trace = trace == 1
	p.log = os.Stderr

	// All files stay inside the build directory of the checkout.
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	p.dir = dir
	p.spans = filepath.Join(root, fmt.Sprintf("spans-%s-seed%d.jsonl", p.workload, p.seed))
	res, err := run(p)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing", dir+":", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
