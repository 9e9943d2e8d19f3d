package main

import (
	"encoding/json"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// dist summarizes a sample. Percentiles the sample cannot support (fewer
// than minTail samples beyond them) are NaN, and N always travels with
// the numbers so a reader can judge them.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// percentile returns the nearest-rank q-quantile of sorted and whether
// at least minTail samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minTail {
		return math.NaN(), false
	}
	return sorted[i], true
}

// summarize sorts a copy of xs and returns its dist.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Max: math.NaN()}
	d.P50, _ = percentile(s, 0.50)
	d.P99, _ = percentile(s, 0.99)
	if len(s) > 0 {
		d.Max = s[len(s)-1]
	}
	return d
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MarshalJSON writes unsupported (NaN) percentiles as null.
func (d dist) MarshalJSON() ([]byte, error) {
	num := func(v float64) any {
		if math.IsNaN(v) {
			return nil
		}
		return v
	}
	return json.Marshal(struct {
		N   int `json:"n"`
		P50 any `json:"p50"`
		P99 any `json:"p99"`
		Max any `json:"max"`
	}{d.N, num(d.P50), num(d.P99), num(d.Max)})
}
