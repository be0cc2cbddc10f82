package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailLatency returns the q-quantile, over programs, of each program's
// mean op latency (ms). The programs differ in cost by up to 4x, so only
// the one or two slowest programs lie above a high quantile, and a
// quantile of the pooled ops rests on single ops of those programs. The
// mean of each program's ops over the run's rounds averages the host's
// drift across the whole run instead.
func tailLatency(byProgram map[string][]float64, q float64) float64 {
	means := make([]float64, 0, len(byProgram))
	for _, xs := range byProgram {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		means = append(means, sum/float64(len(xs)))
	}
	return quantile(means, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// medianSetup runs setup reps times and returns the value of the last
// repetition with the median wall time in seconds. Earlier values are
// torn down by discard before the next repetition starts.
func medianSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i+1 < reps {
			discard(v)
			runtime.GC()
		}
		last = v
	}
	return last, quantile(times, 0.5), nil
}

// rounds hands out the seeded program order one round at a time. A round
// is a permutation of every program, so each round covers the whole suite
// once and the seed changes only the order. A run measures a fixed number
// of rounds, so every run does the same work on any host.
type rounds struct {
	rng   *rand.Rand
	n     int
	limit int
	perm  []int
	round int
	pos   int
}

func newRounds(seed int64, n, limit int) *rounds {
	return &rounds{rng: rand.New(rand.NewSource(seed)), n: n, limit: limit, pos: n, round: -1}
}

// next returns the next (round, program index) pair, or false once the
// last round is handed out. The caller serialises calls.
func (r *rounds) next() (round, prog int, ok bool) {
	if r.pos == r.n {
		if r.round+1 == r.limit {
			return 0, 0, false
		}
		r.perm = r.rng.Perm(r.n)
		r.round++
		r.pos = 0
	}
	p := r.perm[r.pos]
	r.pos++
	return r.round, p, true
}
