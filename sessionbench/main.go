// Command sessionbench is the repository's standing benchmark: whole
// Qcluster feedback sessions (a k=100 search followed by five feedback
// rounds) driven over loopback HTTP against the real serving stack, by
// a closed loop of one client per CPU.
//
//	bash sessionbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// Workloads: paper (the paper's 30k-image collection, color and
// texture), highdim (a dim-32 Gaussian mixture) and ingest-sharded
// (sessions beside a closed-loop writer on a durable 4-shard set). An
// untraced run prints the end-to-end metrics; a traced run (--trace 1)
// prints the per-layer ledger from exported spans, registry counters and
// direct timings of the layer functions. Every run checks the outputs:
// a mismatch makes "correct" false and the exit status 1. The output is
// one envelope line (box, seed, workload parameters, every metric with
// unit, direction and sample count, the ledger) followed by the result
// line. --spec prints BENCHMARK.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "paper, highdim or ingest-sharded")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		secs     = flag.Float64("seconds", runSeconds, "seconds to measure")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	if _, ok := findWorkload(*workload); !ok || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "usage: sessionbench --workload paper|highdim|ingest-sharded --seed n --seconds s --trace 0|1\n")
		return 2
	}
	// The durable set lives under the build directory, inside the
	// checkout the benchmark runs from.
	const workdir = ".bench_build"
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: uint64(*seed), seconds: *secs, trace: *trace == 1,
		sc: fullScale, workdir: workdir, clients: max(runtime.NumCPU(), 2),
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 1
	}
	if !rep.correct {
		for name, msg := range rep.checks {
			if msg != "ok" {
				fmt.Fprintf(os.Stderr, "sessionbench: check %s failed: %s\n", name, msg)
			}
		}
		return 1
	}
	return 0
}
