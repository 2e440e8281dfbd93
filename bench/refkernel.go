package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// refKernel is a fixed mix of the work the serving stack does — comparison
// sort, dependent cache-missing loads, small allocations, floating point —
// owned by the benchmark so no change to the program can move it. It is timed
// right before and after every round; dividing the round's timings by it
// removes the machine-speed drift between runs, which on a shared 2-core box
// is larger than the differences the benchmark has to resolve.
//
// The mix is measured, not guessed: a neighbour's memory traffic slows the
// cache-missing chase three times as much as it slows any workload, so at the
// issue's 100k steps (half the kernel's time) dividing by the kernel added
// noise on four workloads of five. At 10k steps (an eighth of its time) it
// removes 15–30% of the round-to-round deviation on all five.
type refKernel struct {
	src   []float64 // unsorted input, copied before each sort
	buf   []float64
	chase []uint32 // one random cycle over 8 MiB
	sink  float64
}

const (
	refSortLen    = 20_000
	refChaseLen   = 8 << 20 / 4
	refChaseSteps = 10_000
	refAllocs     = 5_000
	refFloatOps   = 200_000
	refSlot       = 40 * time.Millisecond
)

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(20080407))
	k := &refKernel{
		src:   make([]float64, refSortLen),
		buf:   make([]float64, refSortLen),
		chase: make([]uint32, refChaseLen),
	}
	for i := range k.src {
		k.src[i] = rng.Float64()
	}
	// Sattolo's shuffle yields a single cycle, so the chase never falls into
	// a short loop that fits the cache.
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	for i := len(k.chase) - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	return k
}

// iterate runs the kernel once (about 4 ms on the nominal machine).
func (k *refKernel) iterate() {
	copy(k.buf, k.src)
	sort.Float64s(k.buf)
	acc := k.buf[refSortLen/2]

	at := uint32(0)
	for i := 0; i < refChaseSteps; i++ {
		at = k.chase[at]
	}
	acc += float64(at)

	var keep *[64]byte
	for i := 0; i < refAllocs; i++ {
		b := new([64]byte)
		b[0] = byte(i)
		if i%97 == 0 {
			keep = b
		}
	}
	acc += float64(keep[0])

	x := 1.0
	for i := 0; i < refFloatOps; i++ {
		x = math.Sqrt(x*1.0000001 + 1e-9)
	}
	k.sink = acc + x
}

// measure runs the kernel for slot and returns the median iteration time in
// milliseconds.
func (k *refKernel) measure(slot time.Duration) float64 {
	var its []float64
	for start := time.Now(); len(its) < 3 || time.Since(start) < slot; {
		t0 := time.Now()
		k.iterate()
		its = append(its, float64(time.Since(t0))/1e6)
	}
	return median(its)
}
