package updp

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

// goldenPath pins every released value of the estimators below at fixed
// seeds, bit for bit. The estimators' internals (sorting, counting,
// subsampling) may be rewritten for speed only if this file still matches.
// To regenerate after a deliberate output change, delete the file and run
// `go test -run TestGoldenBits ./updp`: the test writes it and fails once.
const goldenPath = "testdata/golden_bits.txt"

// goldenFields names the released values of one golden line, in order.
var goldenFields = []string{
	"Mean", "Median", "IQR", "Variance", "Quantile(0.9)",
	"EmpiricalMean", "EmpiricalQuantile(n/2)", "PrivateRange.lo", "PrivateRange.hi", "PrivateRadius",
	"FiniteDomainQuantile(wide)", "FiniteDomainQuantile(narrow)",
	"Quantiles[1]", "Quantiles[n/4]", "Quantiles[n/2]", "Quantiles[n/2]'", "Quantiles[3n/4]", "Quantiles[n]",
	"QuantileInterval(0.5).Lo", "QuantileInterval(0.5).Hi", "IQRInterval(eps=4).Lo", "IQRInterval(eps=4).Hi",
}

// goldenData draws n values of the named shape from seed.
func goldenData(kind string, n int, seed uint64) []float64 {
	rng := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		switch kind {
		case "gauss":
			out[i] = 10 + 2*rng.Gaussian()
		case "pareto":
			out[i] = 1e6 * rng.Pareto(1, 1.5)
		case "atoms":
			out[i] = math.Round(3 * rng.Gaussian())
		case "student":
			out[i] = 1e-4 * rng.StudentT(3)
		}
	}
	return out
}

// goldenLine runs every pinned release on one input and renders the
// results as hex float64 bits ("err:..." for a refused release).
func goldenLine(data []float64, seed uint64) []string {
	n := len(data)
	ints := empirical.DiscretizeAll(data, 1e-7)
	var out []string
	f := func(v float64, err error) {
		if err != nil {
			out = append(out, "err:"+strings.ReplaceAll(err.Error(), " ", "_"))
			return
		}
		out = append(out, fmt.Sprintf("%016x", math.Float64bits(v)))
	}
	i := func(v int64, err error) { f(float64(v), err) }
	opt := WithSeed(seed)

	f(Mean(data, 1, opt))
	f(Median(data, 1, opt))
	f(IQR(data, 1, opt))
	f(Variance(data, 1, opt))
	f(Quantile(data, 0.9, 1, opt))
	f(EmpiricalMean(ints, 1, opt))
	i(EmpiricalQuantile(ints, n/2, 1, opt))
	lo, hi, err := PrivateRange(ints, 1, opt)
	i(lo, err)
	i(hi, err)
	i(PrivateRadius(ints, 1, opt))
	i(dp.FiniteDomainQuantile(xrand.New(seed), ints, n/2, -1<<40, 1<<40, 1, 0.1))
	i(dp.FiniteDomainQuantile(xrand.New(seed), ints, n/2, -1000, 1000, 1, 0.1))
	taus := []int{1, max(n/4, 1), n / 2, n / 2, 3 * n / 4, n}
	qs, err := empirical.Quantiles(xrand.New(seed), ints, taus, 1, 0.1)
	for k := range taus {
		if err != nil {
			i(0, err)
		} else {
			i(qs[k], nil)
		}
	}
	ci, err := QuantileInterval(data, 0.5, 1, opt)
	f(ci.Lo, err)
	f(ci.Hi, err)
	ci, err = IQRInterval(data, 4, opt)
	f(ci.Lo, err)
	f(ci.Hi, err)
	return out
}

// goldenCases renders every golden line: four data shapes, six sizes,
// five seeds, each as drawn and pre-sorted.
func goldenCases() []string {
	var lines []string
	for _, kind := range []string{"gauss", "pareto", "atoms", "student"} {
		for _, n := range []int{4, 5, 17, 100, 2000, 5001} {
			for seed := uint64(1); seed <= 5; seed++ {
				data := goldenData(kind, n, 1000*seed+uint64(n))
				sorted := slices.Clone(data)
				slices.Sort(sorted)
				for _, in := range []struct {
					order string
					xs    []float64
				}{{"unsorted", data}, {"sorted", sorted}} {
					key := fmt.Sprintf("%s/n=%d/seed=%d/%s", kind, n, seed, in.order)
					lines = append(lines, key+" "+strings.Join(goldenLine(in.xs, seed), " "))
				}
			}
		}
	}
	return lines
}

func TestGoldenBits(t *testing.T) {
	got := goldenCases()
	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); rerun to compare", goldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for k := range got {
		g, w := strings.Fields(got[k]), strings.Fields(want[k])
		if g[0] != w[0] || len(g) != len(w) || len(g) != 1+len(goldenFields) {
			t.Fatalf("line %d: shape mismatch: got %q want %q", k+1, got[k], want[k])
		}
		for j := 1; j < len(g); j++ {
			if g[j] != w[j] {
				t.Errorf("%s %s: got %s, want %s", g[0], goldenFields[j-1], g[j], w[j])
			}
		}
	}
}
