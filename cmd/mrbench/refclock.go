//lint:allow nodeterminism the reference clock times a fixed loop with the wall clock; no reading feeds a simulation
package main

import (
	"runtime"
	"sync"
	"time"
)

// refClock corrects host times for how fast the host runs at the moment.
// On a shared host the same work can take 1.5 to 2 times as long for
// seconds or minutes at a time, as other tenants load the physical cores
// and their caches, so raw times from two runs differ by more than most
// changes being measured. The clock runs a fixed pass of work on the same
// thread as the measured work, between its slices, and records how long
// each pass takes. Dividing a measured time by the median pass time of
// the same interval, and multiplying by refPass, gives the time the work
// would have taken at the reference speed. The median ignores passes
// that were interrupted.
//
// The pass churns a small map: it looks up random keys and deletes the
// ones it finds and inserts the others, within the capacity the map was
// built with. That is hashing, unpredictable branches and scattered
// stores over an L2-resident table, as in the simulator's own code.
//
// Seven passes were timed side by side for 24 minutes on the host the
// benchmark was written on, between alternating batch60 and batch5k
// repetitions: filling a preallocated list and chasing pointers in L1, a
// pointer chase over 4 MB, random updates of a 4 MB table, sorting,
// float formatting, allocating a list of objects, and this map churn.
// Raw repetition times spread by 24% (batch60) and 19% (batch5k), as
// interquartile range over median. Correcting by the map pass left 15%
// and 12%, and 8% and 5% between the medians of eight-repetition
// windows. Only the allocating pass came close, but it shares the
// garbage collector with the measured work: against the 4 MB table
// pass, it ran 14% slower beside batch5k, which collects every few
// milliseconds, than beside batch60, so a change to a workload's
// allocation rate would move its own correction. The map pass moved by
// 0.4%. It allocates nothing (a test checks this), so it neither
// triggers collections nor pays for them.
//
// The pass, its data and refPass are part of the benchmark's definition:
// changing any of them changes every corrected time.
type refClock struct {
	// The pass's state, owned by whichever single goroutine runs passes.
	m map[int]int
	x uint64

	mu     sync.Mutex
	hist   [refBins]uint32 // pass durations since the last mark, in refBin steps
	n      int
	passes time.Duration // total pass time since the last mark

	quit chan struct{} // non-nil while the background loop runs
	done chan struct{}
}

const (
	// refPass is the reference duration of one pass, near its duration
	// on a quiet 2-vCPU Xeon (Sapphire Rapids, 2.1 GHz) host. It only
	// scales the corrected times.
	refPass = 200 * time.Microsecond
	// refBin is the histogram resolution; passes of refBins*refBin or
	// longer land in the last bin.
	refBin  = 50 * time.Nanosecond
	refBins = 40000

	refSteps = 3000 // map operations per pass
	refKeys  = 4000 // keys are drawn from [0, refKeys)
	refLive  = 3000 // the most keys the map holds; it is built for refKeys
	// refEvery is how often a pass runs: the background loop sleeps this
	// long between passes, and work that runs passes itself runs one this
	// often.
	refEvery = 30 * time.Millisecond
)

// newRefClock builds the pass's map.
func newRefClock() *refClock {
	return &refClock{m: make(map[int]int, refKeys), x: 0x9E3779B97F4A7C15}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// pass runs one pass and records its duration. Only one goroutine may
// run passes: the background loop while it runs, else the measured work.
func (c *refClock) pass() {
	t0 := time.Now()
	x := c.x
	for i := 0; i < refSteps; i++ {
		x = xorshift(x)
		k := int(x % refKeys)
		if _, ok := c.m[k]; ok {
			delete(c.m, k)
		} else if len(c.m) < refLive {
			c.m[k] = i
		}
	}
	d := time.Since(t0)
	c.x = x
	bin := min(int(d/refBin), refBins-1)
	c.mu.Lock()
	c.hist[bin]++
	c.n++
	c.passes += d
	c.mu.Unlock()
}

// startLoop runs a pass every refEvery on a goroutine of its own until
// stop. With GOMAXPROCS at 1 that goroutine shares the measured work's
// thread: the runtime preempts the work every 10-20 ms, a due pass runs,
// and the loop sleeps again.
func (c *refClock) startLoop() {
	c.quit, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-t.C:
				c.pass()
			}
		}
	}()
}

// stop ends the background loop, if it runs, and waits for it to exit.
func (c *refClock) stop() {
	if c.quit != nil {
		close(c.quit)
		<-c.done
		c.quit = nil
	}
}

// mark starts a new interval.
func (c *refClock) mark() {
	c.mu.Lock()
	c.hist = [refBins]uint32{}
	c.n = 0
	c.passes = 0
	c.mu.Unlock()
}

// minPasses is the fewest passes an interval's speed is read from.
const minPasses = 5

// interval is what the clock saw between a mark and a read.
type interval struct {
	// speed is the host's speed over the interval relative to the
	// reference: refPass over the median pass time, above 1 when the
	// host ran faster than the reference.
	speed float64
	// busy is the time the interval's passes took, which the measured
	// work did not use.
	busy time.Duration
}

// exclude removes the interval's passes from a cost measured over it.
func (iv interval) exclude(c *cost) { c.wall -= iv.busy.Seconds() }

// read returns the interval since the last mark. An interval shorter
// than minPasses passes is extended with more passes for its speed, which
// the rest of the interval does not count.
func (c *refClock) read() interval {
	c.mu.Lock()
	iv := interval{busy: c.passes}
	c.mu.Unlock()
	for {
		c.mu.Lock()
		n := c.n
		c.mu.Unlock()
		if n >= minPasses {
			break
		}
		if c.quit != nil {
			time.Sleep(refEvery / 4) // the loop runs passes while this waits
		} else {
			c.pass()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	half, seen := (c.n+1)/2, 0
	for bin, k := range c.hist {
		if seen += int(k); seen >= half {
			median := time.Duration(bin)*refBin + refBin/2
			iv.speed = float64(refPass) / float64(median)
			return iv
		}
	}
	panic("unreachable: the histogram holds c.n passes")
}

const (
	// setupShare is the share of a run's time budget spent timing set-up.
	// One set-up takes milliseconds, so a run times hundreds and reports
	// the median.
	setupShare = 0.05
	// minSetups is the fewest set-ups a run times.
	minSetups = 15
)

// setupTimes are a run's set-up samples in seconds, and the host's speed
// while they were taken.
type setupTimes struct {
	total, inputs, builds []float64
	speed                 float64
}

// timeSetup calls build, which builds a workload's inputs and state and
// returns how long each part took, until setupShare of budget seconds
// have passed and at least minSetups times. A collection before each
// build starts every one from the same heap, and a reference pass after
// each reads the host's speed.
func timeSetup(clock *refClock, budget float64, build func() (inputsS, buildS float64, err error)) (*setupTimes, error) {
	st := &setupTimes{}
	clock.mark()
	start := time.Now()
	for len(st.total) < minSetups || time.Since(start).Seconds() < setupShare*budget {
		runtime.GC()
		in, b, err := build()
		if err != nil {
			return nil, err
		}
		st.total = append(st.total, in+b)
		st.inputs = append(st.inputs, in)
		st.builds = append(st.builds, b)
		clock.pass()
	}
	st.speed = clock.read().speed
	return st, nil
}

// report records the set-up metrics: setup_s is the median set-up time
// at the reference speed, setup_raw_s the median as measured.
func (st *setupTimes) report(r *report) {
	raw := median(st.total)
	r.set("setup_s", "s", raw*st.speed)
	r.set("setup_raw_s", "s", raw)
	r.set("setup.samples", "count", float64(len(st.total)))
	r.set("setup.specs_s", "s", median(st.inputs))
	r.set("setup.engine_new_s", "s", median(st.builds))
}
