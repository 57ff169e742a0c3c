package main

import (
	"sync"
	"time"
)

// The host the benchmark runs on shares its cores with other tenants.
// For stretches from a tenth of a second to whole minutes it runs the
// benchmark's map- and memory-bound code at down to half speed, while a
// chain of dependent ALU operations keeps its speed (46.2 us against
// 47.0 us for the ALU probe below, while the map probe went from 56 to
// 104 us). Whole 20-second runs of the same code came out up to 2x apart
// in jobs per second, and some runs never saw the host at full speed.
//
// So the benchmark reads the host's contention with a probe: the time of a
// fixed loop of map and slice work over the time of a fixed ALU loop,
// neither running anything of the program under test. It takes a reading
// just before and just after every job and set-up, and a background
// sampler takes one every samplePeriod during them. Each job's and
// set-up's host time is scaled by fullSpeed over the mean of its readings:
// work done while the host ran at half speed counts at (about) full speed.
// Code that gets faster shows in full, since the probe does not run it.

// fullSpeed is the probe's reading on the baseline host at full speed
// (its lowest readings were 1.21 to 1.25). It sets the scale of every
// host time the benchmark reports, the same for every run.
const fullSpeed = 1.2

// samplePeriod is how often the sampler reads the probe during a job or
// set-up.
const samplePeriod = 20 * time.Millisecond

// prober is one probe's state: the map and slice its loop updates.
type prober struct {
	m    map[int]int
	s    []int
	sink int
}

func newProber() *prober {
	p := &prober{m: make(map[int]int, 1024), s: make([]int, 4096)}
	for i := 0; i < 1024; i++ {
		p.m[i] = i
	}
	return p
}

// mapPass times one pass of the map and slice loop, about 50 us on the
// baseline host. It updates existing keys only, so it allocates nothing
// and cannot start a garbage collection.
func (p *prober) mapPass() time.Duration {
	t0 := time.Now()
	acc := 0
	for i := 0; i < 3000; i++ {
		k := (i * 2654435761) & 1023
		p.m[k] += i
		p.s[(i*7)&4095] ^= acc
		acc += p.s[(i*13)&4095] + p.m[(k+1)&1023]
	}
	p.sink += acc
	return time.Since(t0)
}

// aluPass times one pass of a xorshift chain, about 45 us on the baseline
// host.
func (p *prober) aluPass() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p.sink += int(x)
	return time.Since(t0)
}

// read is one reading: the map loop's time over the ALU loop's, each the
// fastest of three passes, so one interruption or a cold cache does not
// read as contention.
func (p *prober) read() float64 {
	m, a := p.mapPass(), p.aluPass()
	for k := 0; k < 2; k++ {
		m, a = min(m, p.mapPass()), min(a, p.aluPass())
	}
	return float64(m) / float64(a)
}

// hostSpeed reads the probe for one run: on demand on the caller's
// goroutine, and every samplePeriod on a background sampler that keeps
// the readings of the current interval. Each goroutine has its own
// prober.
type hostSpeed struct {
	own  *prober
	mu   sync.Mutex
	sum  float64       // of the interval's sampled readings
	n    int           // readings sampled in the interval
	took time.Duration // host time those readings took
	stop chan struct{}
	done chan struct{}
}

// newHostSpeed starts the background sampler; close stops it.
func newHostSpeed() *hostSpeed {
	h := &hostSpeed{own: newProber(), stop: make(chan struct{}), done: make(chan struct{})}
	go h.sample(newProber())
	return h
}

func (h *hostSpeed) sample(p *prober) {
	defer close(h.done)
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		v := p.read()
		took := time.Since(t0)
		h.mu.Lock()
		h.sum += v
		h.n++
		h.took += took
		h.mu.Unlock()
	}
}

// close stops the sampler and waits for it to end.
func (h *hostSpeed) close() {
	close(h.stop)
	<-h.done
}

// interval is one timed piece of work and the probe readings around and
// during it.
type interval struct {
	host    time.Duration // the work's host time, the sampler's readings taken out
	reading float64       // mean probe reading: before, during and after
}

// time runs f between two readings, the first being pre (the reading
// that closed the previous interval, or 0 to take a fresh one). It returns
// the interval and its closing reading. With a nil h it only times f.
func (h *hostSpeed) time(pre float64, f func()) (interval, float64) {
	if h == nil {
		t0 := time.Now()
		f()
		return interval{host: time.Since(t0)}, 0
	}
	if pre == 0 {
		pre = h.own.read()
	}
	h.mu.Lock()
	h.sum, h.n, h.took = 0, 0, 0
	h.mu.Unlock()
	t0 := time.Now()
	f()
	host := time.Since(t0)
	h.mu.Lock()
	sum, n, took := h.sum, h.n, h.took
	h.mu.Unlock()
	post := h.own.read()
	return interval{host: host - took, reading: (pre + sum + post) / float64(n+2)}, post
}

// scaled is the interval's host time in seconds at full host speed.
// Without readings it is the host time as measured.
func (iv interval) scaled() float64 {
	s := iv.host.Seconds()
	if iv.reading > 0 {
		s *= fullSpeed / iv.reading
	}
	return s
}
