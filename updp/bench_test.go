package updp

import (
	"fmt"
	"testing"
)

// BenchmarkEstimators times one public release per statistic on Gaussian
// data at a small and a large n. Iteration i uses seed i, so every run
// replays the same sequence of releases.
//
// Run: go test -bench BenchmarkEstimators -run '^$' ./updp
func BenchmarkEstimators(b *testing.B) {
	stats := []struct {
		name string
		fn   func(data []float64, opt Option) (float64, error)
	}{
		{"mean", func(d []float64, o Option) (float64, error) { return Mean(d, 1, o) }},
		{"median", func(d []float64, o Option) (float64, error) { return Median(d, 1, o) }},
		{"iqr", func(d []float64, o Option) (float64, error) { return IQR(d, 1, o) }},
		{"variance", func(d []float64, o Option) (float64, error) { return Variance(d, 1, o) }},
		{"quantile", func(d []float64, o Option) (float64, error) { return Quantile(d, 0.9, 1, o) }},
	}
	for _, st := range stats {
		for _, n := range []int{2000, 200000} {
			b.Run(fmt.Sprintf("%s/n=%d", st.name, n), func(b *testing.B) {
				data := gaussianData(uint64(n), n, 50, 2)
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					if _, err := st.fn(data, WithSeed(uint64(i))); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
