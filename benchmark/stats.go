package main

import (
	"math"
	"sort"
)

// metric is one reported number. Value is what the ledger compares; Q1, Q3
// and N describe the samples inside the run that Value is the median of
// (N = 1 for a number measured once per run).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// metrics collects a run's numbers by name.
type metrics map[string]metric

// set records a number measured once.
func (m metrics) set(name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// setSamples records the median of per-round samples with their quartiles.
func (m metrics) setSamples(name, unit string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	m[name] = metric{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile interpolates linearly between the closest ranks; 0 for no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns (the
// driver's spread rule is written in terms of it). Fewer than two samples
// have no spread: all three values are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		v := median(xs)
		return v, v, v
	}
	s := sorted(xs)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
