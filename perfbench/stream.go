package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"xehe"
)

const (
	// setupRuns is how many times an end-to-end run sets up from
	// scratch; setup_s is their median.
	setupRuns = 3
	// sinkBuffer bounds the outputs waiting for the checker. It exceeds
	// what the cluster holds in flight (the default class shares of
	// PendingCap admit at most 2.25 × 512 queued jobs, plus the worker
	// queues), so the generator blocks on Submit, never on the checker.
	sinkBuffer = 2048
	// rateInterval is the host interval over which completion rates
	// are sampled.
	rateInterval = time.Second
)

// env is one set-up: seeded inputs plus a warmed cluster.
type env struct {
	in   *inputs
	cl   *xehe.Cluster
	next int   // next unit index (continues the seeded order across windows)
	ids  int64 // last job id handed out
}

// window is what one measured stretch of a workload observed.
type window struct {
	attempted, shed, wrong int64
	jobs                   int64   // jobs the scheduler completed
	wall                   float64 // host seconds, first Submit to drained
	gen                    float64 // host seconds the generator ran
	inSubmit               float64 // host seconds the generator spent in Submit
	sim                    float64 // simulated seconds elapsed
	before, after          xehe.ClusterStats
	rates                  []float64 // jobs per host second, one per rateInterval
	mem                    float64   // near-peak live Go heap, bytes
	memSamples             int
}

// wallRate is the median of the per-interval completion rates, which
// a host hiccup in one interval does not move; windows shorter than
// three intervals fall back to the whole-window rate.
func (w window) wallRate() float64 {
	if len(w.rates) < 3 {
		return float64(w.jobs) / w.wall
	}
	return median(w.rates)
}

// failed counts jobs that failed, were shed, or returned wrong output.
func (w window) failed() int64 {
	return w.shed + w.wrong + (w.after.Failed - w.before.Failed)
}

// setUp builds seeded inputs and a warmed untraced cluster, then
// restarts the simulated clocks, which keeps the warm-up out of every
// simulated-time metric.
func setUp(w *workload, seed int64, log *spanLog, v *verdict) (*env, error) {
	in, err := newInputs(w, seed, log)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(in, w, false, false, v)
	if err != nil {
		return nil, err
	}
	e.cl.ResetSimClocks()
	return e, nil
}

// newEnv builds a one-shard Device1 cluster over the inputs and runs
// the workload's warm-up units on it.
func newEnv(in *inputs, w *workload, trace, analytic bool, v *verdict) (*env, error) {
	e := &env{in: in, cl: xehe.NewCluster(in.params, in.kit, []xehe.DeviceKind{xehe.Device1}, clusterConfig(trace, analytic))}
	warm := e.drive(w, pass{minUnits: w.warm, analytic: analytic}, v)
	if warm.failed() > 0 {
		e.cl.Close()
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed", warm.failed(), warm.attempted)
	}
	return e, nil
}

// pass says how long one drive runs and how it is observed.
type pass struct {
	dur      time.Duration // run units until this much host time passed
	minUnits int           // ...and at least this many units ran
	maxJobs  int64         // stop once this many jobs were submitted; 0: no limit
	analytic bool          // kernel bodies skipped: check errors, not outputs
	log      *spanLog      // benchmark spans; nil records none
}

// more reports whether the generator should submit unit i. A timed
// pass that runs in bursts finishes the burst it is in.
func (p pass) more(i, burst int, jobs int64, start time.Time) bool {
	switch {
	case p.maxJobs > 0 && jobs >= p.maxJobs:
		return false
	case i < p.minUnits:
		return true
	case p.dur == 0:
		return false
	}
	return (burst > 0 && i%burst != 0) || time.Since(start) < p.dur
}

// drive runs units of the workload as the pass says, waits for the
// cluster to drain, checks every output against its reference and
// checks the scheduler invariants.
func (e *env) drive(w *workload, p pass, v *verdict) window {
	win := window{before: e.cl.Stats()}
	sim0 := e.cl.SimulatedSeconds()
	mem := startMemSampler()
	rates := startRateSampler(e.cl, win.before.Jobs)

	// One checker goroutine waits for every output in submission order
	// and checks it; its findings are merged once it exits.
	type findings struct {
		problems []string
		wrong    int64
	}
	sinks := make(chan sink, sinkBuffer)
	done := make(chan findings)
	go func() {
		var f findings
		for s := range sinks {
			t0 := time.Now()
			ct, err := s.fut.Wait()
			p.log.wall(s.id, "xehe.Wait", t0)
			switch {
			case err != nil:
				f.problems = append(f.problems, fmt.Sprintf("job %d: %v", s.id, err))
			case !p.analytic && !sameCiphertext(ct, s.ref):
				f.wrong++
				f.problems = append(f.problems, fmt.Sprintf("job %d: output differs from the serial reference", s.id))
			}
		}
		done <- f
	}()

	sub := func(j *xehe.Job) (int64, *xehe.Pending, error) {
		e.ids++
		t0 := time.Now()
		f, err := e.cl.Submit(j)
		win.inSubmit += time.Since(t0).Seconds()
		p.log.wall(e.ids, "xehe.Submit", t0)
		return e.ids, f, err
	}
	start := time.Now()
	for i := 0; p.more(i, w.burst, win.attempted, start); i++ {
		if w.burst > 0 && i > 0 && i%w.burst == 0 {
			e.cl.Wait()
		}
		u, err := w.submit(e.in, sub, e.next)
		e.next++
		win.attempted += int64(u.jobs)
		for _, s := range u.sinks {
			sinks <- s
		}
		if errors.Is(err, xehe.ErrOverloaded) {
			win.shed++
		} else if err != nil {
			v.wrong("submit: %v", err)
			break
		}
	}
	win.gen = time.Since(start).Seconds()
	close(sinks)
	f := <-done
	e.cl.Wait()
	win.wall = time.Since(start).Seconds()
	win.mem, win.memSamples = mem.stop()
	win.rates = rates.stop()
	win.sim = e.cl.SimulatedSeconds() - sim0
	win.after = e.cl.Stats()
	win.jobs = win.after.Jobs - win.before.Jobs
	win.wrong = f.wrong
	for _, msg := range f.problems {
		v.wrong("%s", msg)
	}
	e.checkInvariants(win, v)
	return win
}

// checkInvariants checks the scheduler's books after a drained window.
func (e *env) checkInvariants(win window, v *verdict) {
	var submitted, rejected int64
	for c := range win.after.PerClass {
		submitted += win.after.PerClass[c].Submitted - win.before.PerClass[c].Submitted
		rejected += win.after.PerClass[c].Rejected - win.before.PerClass[c].Rejected
	}
	v.expect(submitted == win.jobs,
		"invariant: submitted %d != completed %d (completed counts failed jobs)", submitted, win.jobs)
	v.expect(submitted+rejected == win.attempted,
		"invariant: submitted %d + rejected %d != attempted %d", submitted, rejected, win.attempted)
	if pinned, ok := e.cl.Metrics().Get("memcache.pinned_buffers"); !ok || pinned.Value != 0 {
		v.wrong("invariant: memcache.pinned_buffers = %v after Wait, want 0", pinned.Value)
	}
}

func (e *env) close() { e.cl.Close() }

// memSampler polls the Go heap bytes the last GC marked live. Live
// bytes are what the program holds; mapped memory also counts GC slack,
// which moves with GC timing from run to run.
type memSampler struct {
	quit chan struct{}
	done chan []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{}), done: make(chan []float64)}
	go func() {
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var samples []float64
		for {
			metrics.Read(live)
			samples = append(samples, float64(live[0].Value.Uint64()))
			select {
			case <-m.quit:
				m.done <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends sampling and returns the 90th percentile of the samples,
// in bytes: near the peak, but not moved by one GC cycle's timing the
// way the single highest sample is.
func (m *memSampler) stop() (float64, int) {
	close(m.quit)
	samples := <-m.done
	return quantile(samples, 0.9), len(samples)
}

// rateSampler records completed jobs per host second.
type rateSampler struct {
	quit chan struct{}
	done chan []float64
}

func startRateSampler(cl *xehe.Cluster, jobs0 int64) *rateSampler {
	r := &rateSampler{quit: make(chan struct{}), done: make(chan []float64)}
	go func() {
		var rates []float64
		last, t0 := jobs0, time.Now()
		tick := time.NewTicker(rateInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.quit:
				r.done <- rates
				return
			case <-tick.C:
				jobs, now := cl.Stats().Jobs, time.Now()
				rates = append(rates, float64(jobs-last)/now.Sub(t0).Seconds())
				last, t0 = jobs, now
			}
		}
	}()
	return r
}

// stop ends sampling and returns the rates of the whole intervals.
func (r *rateSampler) stop() []float64 {
	close(r.quit)
	return <-r.done
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// secs converts seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(w *workload, seed int64, seconds float64, rep *report, v *verdict) error {
	var setups []float64
	var e *env
	for k := 0; k < setupRuns; k++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, seed, nil, v); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	win := e.drive(w, pass{dur: secs(seconds), minUnits: 1}, v)
	if win.jobs == 0 {
		return errNoJobs
	}
	v.attempted, v.failed = win.attempted, win.failed()

	n := int(win.jobs)
	rep.add("sim_jobs_per_s", float64(win.jobs)/win.sim, "1/s", n)
	rep.add("wall_jobs_per_s", win.wallRate(), "1/s", len(win.rates))
	c := win.after.PerClass[w.latClass]
	samples := int(c.Completed - win.before.PerClass[w.latClass].Completed)
	rep.add("sim_p50_ms", c.P50*1e3, "ms", samples)
	rep.add("sim_p99_ms", c.P99*1e3, "ms", samples)
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("success_frac", float64(win.attempted-win.failed())/float64(win.attempted), "fraction", int(win.attempted))
	rep.add("host_mem_mb", win.mem/(1<<20), "MiB", win.memSamples)
	return nil
}
