package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the value is set by a handful of outliers and does not
// repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an
// ascending slice. It refuses a percentile that has fewer than
// minBeyond samples beyond it.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.4g of no samples", p)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.4g of %d samples has only %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// quartiles returns the three cut points of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the PR driver computes. It needs
// at least two values; with one, all three cut points are that value.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value of vs (mean of the two middle ones for an
// even count); 0 for no values.
func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}

// mean is the arithmetic mean of vs; 0 for no values.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// laps times a piece of work that is repeated identically, cut into
// short laps, and keeps for each lap the fastest of its repetitions;
// total is the work's time with every lap at its best.
//
// The sandbox has two speeds: when a neighbour occupies the sibling
// hyperthread, code with a high instruction rate runs 1.4 to 2 times
// slower, for tenths of a second at a stretch, and the share of time
// spent slow drifts between a tenth and four fifths over minutes
// (README.md, "Steadiness"). A median over passes flips from one speed
// to the other with that share; the fastest of a dozen short laps is
// the fast speed in either regime, and repeats within a few per cent.
type laps struct {
	clock func() time.Duration
	last  time.Duration
	cur   []time.Duration // the repetition under way
	best  []time.Duration // fastest so far, by position
}

func newLaps(clock func() time.Duration) *laps { return &laps{clock: clock} }

var epoch = time.Now()

// wallClock and processCPU are the two clocks laps run on.
func wallClock() time.Duration { return time.Since(epoch) }

// start begins a repetition.
func (l *laps) start() {
	l.cur = l.cur[:0]
	l.last = l.clock()
}

// lap ends the current lap.
func (l *laps) lap() {
	now := l.clock()
	l.cur = append(l.cur, now-l.last)
	l.last = now
}

// extend appends laps timed elsewhere on the same clock, up to now.
func (l *laps) extend(durs []time.Duration) {
	l.cur = append(l.cur, durs...)
	l.last = l.clock()
}

// keep folds the finished repetition into the best laps. Repetitions
// of the same work take the same laps; a different count means the
// work was not the same.
func (l *laps) keep() error {
	if l.best == nil {
		l.best = append([]time.Duration(nil), l.cur...)
		return nil
	}
	if len(l.cur) != len(l.best) {
		return fmt.Errorf("a repetition took %d laps, the ones before it %d", len(l.cur), len(l.best))
	}
	for i, d := range l.cur {
		l.best[i] = min(l.best[i], d)
	}
	return nil
}

// sum is the repetition under way, lap by lap as it ran.
func (l *laps) sum() time.Duration {
	var t time.Duration
	for _, d := range l.cur {
		t += d
	}
	return t
}

// total is the work with every lap at its fastest.
func (l *laps) total() time.Duration {
	var t time.Duration
	for _, d := range l.best {
		t += d
	}
	return t
}
