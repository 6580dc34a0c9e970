// Command benchmark is the repository's benchmark: four closed-loop
// workloads driven through the assembly bp-gateway and the experiments
// ship (experiments.NewTestbed), eight end-to-end metrics measured with
// tracing off, and a traced run over twin testbeds whose per-layer costs
// add up to the end-to-end per-packet figure. See README.md.
//
//	go run ./benchmark                       # every workload, both runs
//	go run ./benchmark --workload fleet --seed 7 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	// One generator goroutine, and the program's own fan-out on at most
	// four cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "connect, keepalive, fleet, churn, or all")
		trace    = fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; both")
		outDir   = fs.String("out", ".bench_out", "directory for the machine-readable results (BENCH_<workload>[_trace].json)")
		traceOut = fs.String("trace-out", "", "file to dump the traced run's spans to, as JSON lines")
		cfg      config
	)
	fs.Int64Var(&cfg.seed, "seed", 2019, "drives corpus, schedule and device order")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "wall time of the measured phase; 0 measures exactly the scaled operation counts instead")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplies every operation and device count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.setups = 3
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		todo = []*workload{w}
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if cfg.scale <= 0 || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: -scale must be positive and -seconds not negative")
		return 2
	}

	fmt.Fprintf(stdout, "benchmark: seed %d, scale %g, %g s per run, GOMAXPROCS %d of %d CPUs (%s), %s, commit %s\n",
		cfg.seed, cfg.scale, cfg.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit())

	var reports []*report
	for _, w := range todo {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			var (
				rep *report
				err error
			)
			if traced {
				rep, err = runTraced(w, cfg, *traceOut)
			} else {
				rep, err = runUntraced(w, cfg)
			}
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			rep.print(stdout)
			path, err := rep.writeFile(*outDir)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%-10s result written to %s\n", w.name, path)
			reports = append(reports, rep)
		}
	}
	for _, rep := range reports {
		if !rep.correct() {
			fmt.Fprintf(stderr, "benchmark: %s failed its checks; no result\n", rep.workload)
			return 1
		}
	}
	fmt.Fprintln(stdout, resultLine(reports))
	return 0
}
