package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/serve"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests check the
// output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload for two seconds, untraced and traced, and
// checks that the last output line names exactly the metrics
// BENCHMARK.json declares for that mode, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloadOrder))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []int{0, 1} {
			want := map[string]string{}
			decl := bf.EndToEnd
			if trace == 1 {
				decl = bf.PerLayer
			}
			for _, m := range decl {
				want[m.Name] = m.Unit
			}
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", strconv.Itoa(trace), "--workdir", t.TempDir()}
				code := exitInvalid
				// A run whose generator fell behind reports nothing; a
				// two-second run can be one on a loaded machine.
				for attempt := 0; attempt < 3 && code == exitInvalid; attempt++ {
					stdout.Reset()
					stderr.Reset()
					code = run(args, &stdout, &stderr)
				}
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// injected runs a workload briefly with the given faults injected and
// returns its result. A run whose generator fell behind says nothing
// about the gate, so it is run again.
func injected(t *testing.T, workload string, h *hooks) *result {
	t.Helper()
	for attempt := 0; ; attempt++ {
		res, report, err := runBench(config{workload: workload, seed: 11, seconds: 2, workdir: t.TempDir(), hooks: h})
		if errors.Is(err, errInvalid) && attempt < 2 {
			continue
		}
		if err != nil {
			t.Fatalf("%v\n%s", err, report)
		}
		t.Log(report)
		return res
	}
}

// rewrite returns an answer hook that adds shift to the estimate answers
// of the given kinds that pass keep (nil: all), at most limit of them,
// and a counter of the answers it rewrote.
func rewrite(t *testing.T, shift float64, limit int, keep func(er serve.EstimateResponse) bool, kinds ...kind) (func(o *op), *int) {
	n := new(int)
	return func(o *op) {
		if *n == limit || !slices.Contains(kinds, o.req.kind) {
			return
		}
		var er serve.EstimateResponse
		if err := json.Unmarshal(o.resp, &er); err != nil {
			t.Error(err)
			return
		}
		if keep != nil && !keep(er) {
			return
		}
		er.Value += shift
		o.resp = mustJSON(er)
		*n++
	}, n
}

func TestGateCatchesOutOfToleranceAnswer(t *testing.T) {
	hook, n := rewrite(t, 1000, 1, nil, kCount)
	res := injected(t, "ingest-durable", &hooks{answer: hook})
	if *n != 1 {
		t.Fatalf("%d answers rewritten, want 1", *n)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("gate accepted a count 1000 off: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestGateCatchesBiasedEstimators shifts every mean and median answer:
// each alone is within what an (ε, β) mechanism may do once, together
// they exceed the bound far more often than β allows.
func TestGateCatchesBiasedEstimators(t *testing.T) {
	hook, n := rewrite(t, 1000, -1, nil, kMean, kMedian)
	res := injected(t, "ingest-durable", &hooks{answer: hook})
	if *n == 0 {
		t.Fatal("no answer was rewritten")
	}
	if res.Correct {
		t.Errorf("gate accepted %d mean and median answers 1000 off", *n)
	}
}

// TestGateCatchesOneBrokenEstimator shifts only the variance answers on
// estimate-mem, where variance is one kind in seven and no answer has a
// per-answer check: the gate must still reject the run.
func TestGateCatchesOneBrokenEstimator(t *testing.T) {
	hook, n := rewrite(t, 1000, -1, nil, kVariance)
	res := injected(t, "estimate-mem", &hooks{answer: hook})
	if *n == 0 {
		t.Fatal("no answer was rewritten")
	}
	if res.Correct {
		t.Errorf("gate accepted %d variance answers 1000 off", *n)
	}
}

// TestGateCatchesAlteredReplay changes one cache replay of a dashboard
// release by far less than the error bound: only the check that a replay
// repeats a released answer can see it.
func TestGateCatchesAlteredReplay(t *testing.T) {
	hook, n := rewrite(t, 1e-6, 1, func(er serve.EstimateResponse) bool { return er.Cached }, kMean, kMedian)
	res := injected(t, "estimate-mem", &hooks{answer: hook})
	if *n != 1 {
		t.Fatalf("%d replays rewritten, want 1", *n)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("gate accepted an altered cache replay: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestGateCatchesDoubleDeduction(t *testing.T) {
	res := injected(t, "ingest-durable", &hooks{afterTraffic: func(srv *serve.Server) {
		tn, ok := srv.Tenant(tenantID)
		if !ok {
			t.Fatal("tenant missing")
		}
		// Charge one release's cost a second time.
		if err := tn.Ledger().Spend(dp.EpsCost(releaseEps)); err != nil {
			t.Fatal(err)
		}
	}})
	if res.Correct {
		t.Error("gate accepted a spend that exceeds the charged releases")
	}
}

func TestGateCatchesRecoveredSpendRefill(t *testing.T) {
	res := injected(t, "ingest-durable", &hooks{afterRecover: func(srv *serve.Server) {
		tn, ok := srv.Tenant(tenantID)
		if !ok {
			t.Fatal("tenant missing")
		}
		tn.Ledger().Reset()
	}})
	if res.Correct {
		t.Error("gate accepted a recovered server whose spend refilled")
	}
}

// TestStraddle pins how an answer is judged against the two table states
// that bracket it.
func TestStraddle(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{-2, 3, 0}, {2, 3, 2}, {-4, -1, 1}, {0, 5, 0},
	} {
		if got := straddle(c.a, c.b); got != c.want {
			t.Errorf("straddle(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
