package cost

import "fmt"

// MinimaxCuts cuts the per-layer mPE spans into n contiguous parts
// minimizing the maximum part sum — the capacity heuristic: mPEs are the
// unit of crossbar real estate, so the widest chip bounds both silicon and
// the pipeline's slowest stage. It returns the cut points (the layer each
// part after the first starts at, ascending), nil when n <= 1. n is clamped
// to the layer count; layer counts are small, so the quadratic DP is fine.
func MinimaxCuts(spans []int, n int) []int {
	L := len(spans)
	n = min(n, L)
	if n <= 1 {
		return nil
	}
	prefix := make([]int, L+1)
	for i, c := range spans {
		prefix[i+1] = prefix[i] + c
	}
	// dp[k][i]: minimal achievable max-part-sum splitting the first i layers
	// into k parts; cut[k][i] records the start of the k-th part.
	const inf = int(^uint(0) >> 1)
	dp := make([][]int, n+1)
	cut := make([][]int, n+1)
	for k := range dp {
		dp[k] = make([]int, L+1)
		cut[k] = make([]int, L+1)
		for i := range dp[k] {
			dp[k][i] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= n; k++ {
		for i := k; i <= L; i++ {
			for j := k - 1; j < i; j++ {
				if dp[k-1][j] == inf {
					continue
				}
				v := max(dp[k-1][j], prefix[i]-prefix[j])
				if v < dp[k][i] {
					dp[k][i] = v
					cut[k][i] = j
				}
			}
		}
	}
	cuts := make([]int, n-1)
	hi := L
	for k := n; k >= 2; k-- {
		hi = cut[k][hi]
		cuts[k-2] = hi
	}
	return cuts
}

// CheckCapacity reports the first chip of the partition (cuts over the
// per-layer mPE spans) holding more than limit mPEs; limit <= 0 is
// unlimited.
func CheckCapacity(spans, cuts []int, limit int) error {
	if limit <= 0 {
		return nil
	}
	lo := 0
	for i := 0; i <= len(cuts); i++ {
		hi := len(spans)
		if i < len(cuts) {
			hi = cuts[i]
		}
		mpes := 0
		for _, s := range spans[lo:hi] {
			mpes += s
		}
		if mpes > limit {
			return fmt.Errorf("layers [%d,%d) need %d mPEs, chip capacity %d", lo, hi, mpes, limit)
		}
		lo = hi
	}
	return nil
}
