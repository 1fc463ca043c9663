package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile up to p99 that has at least
// tailBeyond samples beyond it, with the percentile actually used: p99 needs
// 1000 samples; with n samples it falls back to 1 - tailBeyond/n. With
// tailBeyond or fewer samples it reports the median.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	q := 0.99
	if n > 0 {
		if alt := 1 - float64(tailBeyond)/float64(n); alt < q {
			q = alt
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return quantile(xs, q), 100 * q
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean of positive values (0 if any is not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// peakRSSMB is the process's resident-set high-water mark (getrusage
// ru_maxrss, in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
