package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile. With fewer, the percentile is one or two unlucky
// samples and moves from run to run by more than any bound a
// regression gate could use.
const minTail = 10

// errThinTail is returned when too few samples lie beyond a requested
// percentile.
var errThinTail = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with errThinTail, when fewer than minBeyond samples lie
// above the returned rank; callers pass minTail for every tail figure
// they report.
func percentile(xs []float64, p float64, minBeyond int) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("percentile of no samples")
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)))) // 1-based
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d: %w",
			p*100, len(s), beyond, minBeyond, errThinTail)
	}
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles returns the nearest-rank p10, p25, p50, p75 and p90 of xs
// for the readable account (nil for no samples); reported tail figures
// go through percentile instead.
func quantiles(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out []float64
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		out = append(out, s[max(0, int(math.Ceil(p*float64(len(s))))-1)])
	}
	return out
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fmtList renders samples for the readable account.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
