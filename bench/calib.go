package main

import (
	"container/heap"
	"crypto/aes"
	"crypto/cipher"
	"math"
	"sort"
	"time"
)

// Host time on a shared machine drifts: on the 2-vCPU box the seed
// results come from, allocation- and memory-bound code ran up to 1.6x
// slower for tens of seconds at a time while neighbours were busy, and a
// pure ALU loop moved only 4 %. Raw pass times of one workload spread
// by 26-31 % (interquartile range over median) across ten runs. So the
// benchmark reports host time at a reference speed: between points it
// times a fixed slice of standard-library work shaped like the
// simulator (an event heap of closures, per-event buffers, map updates
// and AES-GCM records) and scales each timed interval by (refSlice / the
// median slice around it)^elasticity. The slice uses no repository
// code, so a change to the simulator moves the scaled time as it moves
// the raw time; the raw times stay in the result file.

// refSlice is one calibration slice on the reference box (2 vCPUs, Go
// 1.24) while it is not contended.
const refSlice = 600 * time.Microsecond

// elasticity is how much of the slice's slow-down the simulator shares:
// under the same contention a pass slowed by the slice's slow-down to
// this power. 0.7 minimised the spread of the four workloads' run
// medians over ten-run sets on the reference box (README.md).
const elasticity = 0.7

// sliceEvery is the least host time between two slices. It keeps the
// slices near 3 % of a run and close enough together to follow drift.
const sliceEvery = 25 * time.Millisecond

// speedWindow is how far from an interval's midpoint the slices that set
// its speed may lie. One slice alone also pays for whatever garbage the
// point before it left behind, so the speed is the median of the slices
// within the window, or of the nearest minSlices when it holds fewer.
const (
	speedWindow = time.Second
	minSlices   = 3
)

type calEvent struct {
	at  int64
	seq int
	fn  func()
}

type calQueue []*calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibrator times calibration slices.
type calibrator struct {
	aead cipher.AEAD
	src  []byte
	out  []byte
	last time.Time // end of the latest slice
}

func newCalibrator() *calibrator {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	c := &calibrator{aead: aead, src: pattern(1400), out: make([]byte, 0, 2048)}
	c.slice() // warm up
	return c
}

// slice runs the fixed calibration work once and returns its duration.
func (c *calibrator) slice() time.Duration {
	const events = 2000
	start := time.Now()
	var q calQueue
	var now int64
	seq := 0
	bufs := make(map[int][]byte)
	nonce := make([]byte, 12)
	x := uint64(88172645463325252) // xorshift state: same work every slice
	var schedule func(d int64, k int)
	schedule = func(d int64, k int) {
		seq++
		heap.Push(&q, &calEvent{at: now + d, seq: seq, fn: func() {
			b := make([]byte, 64+k%1400)
			copy(b, c.src)
			bufs[k%512] = b
			if k%20 == 0 {
				nonce[0] = byte(k)
				c.out = c.aead.Seal(c.out[:0], nonce, c.src, nil)
			}
			if seq < events {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				schedule(int64(x%1000), k+1)
			}
		}})
	}
	for i := 0; i < 64; i++ {
		schedule(int64(i), i)
	}
	for q.Len() > 0 {
		e := heap.Pop(&q).(*calEvent)
		now = e.at
		e.fn()
	}
	d := time.Since(start)
	c.last = time.Now()
	return d
}

// timed is a measured interval or a slice: its midpoint and duration.
type timed struct {
	at time.Time
	d  time.Duration
}

func newTimed(start time.Time, d time.Duration) timed { return timed{start.Add(d / 2), d} }

// speedLog records the calibration slices run during one pass and
// converts the pass's intervals to the reference speed.
type speedLog struct {
	cal    *calibrator
	slices []timed
}

// maybeSlice runs a slice when one is due.
func (l *speedLog) maybeSlice() {
	if time.Since(l.cal.last) >= sliceEvery {
		start := time.Now()
		l.slices = append(l.slices, newTimed(start, l.cal.slice()))
	}
}

// scale returns iv's duration at the reference speed. A log too short to
// hold minSlices slices runs the rest first.
func (l *speedLog) scale(iv timed) time.Duration {
	for len(l.slices) < minSlices {
		start := time.Now()
		l.slices = append(l.slices, newTimed(start, l.cal.slice()))
	}
	return time.Duration(float64(iv.d) * math.Pow(float64(refSlice)/l.speed(iv.at), elasticity))
}

// speed is the median duration of the slices around t.
func (l *speedLog) speed(t time.Time) float64 {
	var near []float64
	for _, sl := range l.slices {
		if sl.at.Sub(t).Abs() <= speedWindow {
			near = append(near, float64(sl.d))
		}
	}
	if len(near) < minSlices {
		byDist := append([]timed(nil), l.slices...)
		sort.Slice(byDist, func(i, j int) bool {
			return byDist[i].at.Sub(t).Abs() < byDist[j].at.Sub(t).Abs()
		})
		near = near[:0]
		for _, sl := range byDist[:minSlices] {
			near = append(near, float64(sl.d))
		}
	}
	return median(near)
}
