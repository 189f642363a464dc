package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are corrected for two properties of a shared host
// that no change to the program can affect, and that moved every timing
// of this benchmark far more than any seed did:
//
//   - Steal. A hypervisor keeps runnable vCPUs off the host CPU for a
//     while (25-35% of the time during some hours on a 2-vCPU Xeon VM).
//     The kernel counts it in the steal column of /proc/stat; an
//     operation's steady time is its wall time minus the steal accrued
//     during it, averaged over the CPUs.
//   - Clock. The CPU time a fixed loop needs moved between about 700 and
//     990 µs on that VM, in plateaus of a minute or so, as the host's
//     clock and its neighbours' load changed. Each run times refLoop in
//     thread CPU time (which excludes steal) on the benchmark's client
//     while it idles — before each closed-loop job, between fleet
//     submissions — and scales its steady times by refNominal /
//     median(loop).
//
// The report keeps the measured values with a _raw suffix, next to
// ref_loop_us and steal_pct. The correction is partial: inside a steal
// burst of 27-30%, corrected fleet-open times still read about 45% slow
// (2.5x before correction).
const (
	refSteps   = 300_000
	refNominal = 700 * time.Microsecond
)

var refSink float64

// refLoop returns the thread CPU time of a fixed chain of dependent
// floating-point steps owned by the benchmark, so no change to the program
// under test can move it.
func refLoop() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, err := threadCPU()
	if err != nil {
		return 0, err
	}
	x := 1.0
	for i := 0; i < refSteps; i++ {
		x = x*1.0000001 + 1e-9
	}
	refSink = x
	c1, err := threadCPU()
	return c1 - c0, err
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID, the calling thread's CPU time
// at nanosecond resolution (getrusage counts threads in scheduler ticks).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// loopUS is the median refLoop time, in microseconds.
func loopUS(loops []time.Duration) float64 {
	us := make([]float64, len(loops))
	for i, d := range loops {
		us[i] = float64(d) / 1e3
	}
	return median(us)
}

// clockScale is the factor that turns a steady duration measured at the
// clock the loops saw into reference-clock time.
func clockScale(loops []time.Duration) float64 {
	return float64(refNominal) / 1e3 / loopUS(loops)
}

// userHZTick is the unit of /proc/stat's CPU columns (USER_HZ = 100).
const userHZTick = 10 * time.Millisecond

// stealNow returns the steal time accrued so far, summed over all CPUs,
// or 0 where /proc/stat cannot be read.
func stealNow() time.Duration {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * userHZTick
}

// steady is wall time minus the steal accrued during it, per CPU.
func steady(wall, stolen time.Duration) time.Duration {
	return wall - stolen/time.Duration(runtime.NumCPU())
}

// stealSampler records the steal counter every few milliseconds, so the
// steal accrued between any two instants of an open-loop run can be
// looked up afterwards.
type stealSampler struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu sync.Mutex
	at []time.Time
	st []time.Duration
}

// stealSamplePeriod matches the counter's own resolution.
const stealSamplePeriod = userHZTick

func startStealSampler() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(stealSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	st, now := stealNow(), time.Now()
	s.mu.Lock()
	s.at = append(s.at, now)
	s.st = append(s.st, st)
	s.mu.Unlock()
}

// Stop ends sampling and waits for the sampler to exit; it may be called
// more than once.
func (s *stealSampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// stolen is the steal accrued between a and b, from the samples taken
// at or before each instant.
func (s *stealSampler) stolen(a, b time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := func(t time.Time) time.Duration {
		i := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t) })
		if i == 0 {
			return s.st[0]
		}
		return s.st[i-1]
	}
	return at(b) - at(a)
}

// timings are a run's end-to-end time measurements, each kept as measured
// (raw) and steal-corrected (steady).
type timings struct {
	jobs                  int
	busyRaw, busySteady   time.Duration // the time the jobs took, for jobs_per_s
	doneRaw, doneSteady   []float64     // per-job latency, ms
	hitRaw, hitSteady     []float64     // fleet hit latency, ms
	setupRaw, setupSteady []float64     // per set-up, s
	loops                 []time.Duration
}

// sampleClock adds one refLoop timing.
func (t *timings) sampleClock() error {
	d, err := refLoop()
	if err != nil {
		return err
	}
	t.loops = append(t.loops, d)
	return nil
}

// publish records the end-to-end timing metrics at the reference clock
// and their measured values with a _raw suffix.
func (t *timings) publish(rep *Report, fleet bool) {
	scale := clockScale(t.loops)
	set := func(name, unit string, raw, steady, scale float64) {
		rep.set(name, steady*scale, unit)
		rep.set(name+"_raw", raw, unit)
	}
	set("jobs_per_s", "jobs/s", float64(t.jobs)/t.busyRaw.Seconds(), float64(t.jobs)/t.busySteady.Seconds(), 1/scale)
	for _, p := range []float64{50, 75, 90} {
		set(fmt.Sprintf("done_p%.0f_ms", p), "ms", percentile(t.doneRaw, p), percentile(t.doneSteady, p), scale)
	}
	set("setup_s", "s", median(t.setupRaw), median(t.setupSteady), scale)
	if fleet {
		set("hit_p50_ms", "ms", percentile(t.hitRaw, 50), percentile(t.hitSteady, 50), scale)
		set("hit_p90_ms", "ms", percentile(t.hitRaw, 90), percentile(t.hitSteady, 90), scale)
		rep.set("hit_samples", float64(len(t.hitRaw)), "count")
	}
	rep.set("done_samples", float64(len(t.doneRaw)), "count")
	rep.set("ref_loop_us", loopUS(t.loops), "us")
	rep.set("steal_pct", 100*(1-ratio(t.busySteady.Seconds(), t.busyRaw.Seconds())), "%")
	rep.Samples["done_ms"] = t.doneRaw
	rep.Samples["done_steady_ms"] = t.doneSteady
}
