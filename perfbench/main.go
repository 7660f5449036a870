// Command perfbench is the repository benchmark. It starts an in-process
// serve.Server on a loopback listener, drives one named workload at it
// from a seeded open-loop generator through at most nproc connections,
// checks every answer and the ledger/audit invariants, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload estimate-mem --seed 1 --seconds 40 --trace 0
//
// Workloads: estimate-mem and ingest-durable (see
// workload.go). perfbench/RATIONALE.md records why each exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// Fault injection for the benchmark's own tests; nil in real runs.
	hooks *hooks
}

// hooks let the self-tests inject the faults the gate must catch.
type hooks struct {
	answer       func(o *op)             // rewrite a release response before the gate reads it
	afterTraffic func(srv *serve.Server) // runs after the last release, before the ledger check
	afterRecover func(srv *serve.Server) // runs on each recovered server before its check
}

// result is one run's outcome in the benchmark's output format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errInvalid marks a run whose generator fell behind its schedule: the
// latencies would describe the generator, so nothing is reported, and
// the process exits with exitInvalid.
var errInvalid = errors.New("invalid run")

const exitInvalid = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phases")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for data dirs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if cfg.seconds <= 0 || cfg.seed == 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --seed non-zero")
		return 2
	}
	res, report, err := runBench(cfg)
	fmt.Fprint(stderr, report)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		if errors.Is(err, errInvalid) {
			return exitInvalid
		}
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	fmt.Fprintln(stdout, string(out))
	return 0
}

// report accumulates the human-readable run report (printed to stderr),
// each line stamped with the seconds since the run started.
type report struct {
	strings.Builder
	t0 time.Time
}

func (r *report) line(format string, a ...any) {
	if r.t0.IsZero() {
		r.t0 = time.Now()
	}
	fmt.Fprintf(r, "%6.2fs "+format+"\n", append([]any{time.Since(r.t0).Seconds()}, a...)...)
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

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil // removed by a compaction between listing and reading
		}
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
