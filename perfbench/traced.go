package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"xehe"
)

const (
	// spanCap sizes each of the traced cluster's span rings. The traced
	// pass submits at most maxTracedJobs jobs, and the busiest ring
	// (the dispatcher's) records about one span per job plus one per
	// batch, so nothing drops.
	spanCap       = 1 << 16
	maxTracedJobs = spanCap / 2

	// Shares of --seconds given to each pass of a traced run.
	untracedShare = 0.25
	tracedShare   = 0.30
	analyticShare = 0.15
	probeShare    = 0.15

	// probeMinCalls is the least number of calls per probe.
	probeMinCalls = 5
)

// kernelFamilies groups device compute kernels by name prefix. Every
// compute kernel the workloads launch belongs to exactly one family;
// the busy-share sum check fails otherwise.
var kernelFamilies = []struct{ name, prefix string }{
	{"ntt", "ntt_"},
	{"keyswitch", "ks_"},
	{"rescale", "rs_"},
	{"elementwise", "he_"},
	{"automorphism", "galois_"},
}

// perLayer runs the workload once untraced, once traced, once with
// kernel bodies skipped, then probes the serial evaluator and the NTT
// engine directly, and reports per-layer metrics.
func perLayer(w *workload, seed int64, seconds float64, rep *report, v *verdict) error {
	log := &spanLog{}
	e, err := setUp(w, seed, log, v)
	if err != nil {
		return err
	}
	in := e.in

	// Untraced pass: the end-to-end configuration, plus Go runtime
	// deltas.
	rt0 := readRuntime()
	untraced := e.drive(w, pass{dur: secs(untracedShare * seconds), minUnits: 1}, v)
	rt1 := readRuntime()
	e.close()
	if untraced.jobs == 0 {
		return errNoJobs
	}

	// Traced pass. The warm-up is not reset here: it ends at tw on the
	// simulated clock, and everything the measured window records
	// starts at or after tw.
	te, err := newEnv(in, w, true, false, v)
	if err != nil {
		return err
	}
	tw := te.cl.SimulatedSeconds()
	pre, err := readTrace(te.cl)
	if err != nil {
		te.close()
		return err
	}
	met0 := te.cl.Metrics()
	traced := te.drive(w, pass{dur: secs(tracedShare * seconds), minUnits: 1, maxJobs: maxTracedJobs, log: log}, v)
	met1 := te.cl.Metrics()
	post, err := readTrace(te.cl)
	_, dropped := te.cl.TraceCounts()
	te.close()
	if err != nil {
		return err
	}
	if traced.jobs == 0 {
		return errNoJobs
	}
	v.attempted, v.failed = untraced.attempted+traced.attempted, untraced.failed()+traced.failed()

	// Host-only pass: the same stream with kernel bodies skipped.
	ae, err := newEnv(in, w, false, true, v)
	if err != nil {
		return err
	}
	hostOnly := ae.drive(w, pass{dur: secs(analyticShare * seconds), minUnits: 1, analytic: true}, v)
	ae.close()

	untracedRate, tracedRate, hostOnlyRate := untraced.wallRate(), traced.wallRate(), hostOnly.wallRate()

	// xehe: the public API boundary, timed from outside.
	submits := log.durations("xehe.Submit")
	rep.add("xehe.submit_wall_us_p50", quantile(submits, 0.5)/1e3, "us", len(submits))
	rep.add("xehe.submit_blocked_frac", traced.inSubmit/traced.gen, "fraction", len(submits))

	// sched: Stats and metrics deltas over the traced window.
	d := statsDelta(traced)
	n := float64(traced.jobs)
	rep.add("sched.mean_batch", n/float64(d.Batches), "jobs", int(d.Batches))
	ud := statsDelta(untraced)
	rep.add("sched.mean_batch_untraced", float64(untraced.jobs)/float64(ud.Batches), "jobs", int(ud.Batches))
	rep.add("sched.coalesced_frac", float64(d.Coalesced)/n, "fraction", int(traced.jobs))
	rep.add("sched.fused_steps", float64(d.FusedSteps)/n, "1/job", int(traced.jobs))
	rep.add("sched.unfused_steps", float64(d.UnfusedSteps)/n, "1/job", int(traced.jobs))
	park := counterDelta(met0, met1, "sched.dep_park_sim_ns")
	rep.add("sched.dep_park_sim_ms", ratio(park/1e6, float64(d.GraphJobs)), "ms/job", int(d.GraphJobs))
	edges := d.ResidentHits + d.ResidentMisses
	rep.add("sched.resident_hit_frac", ratio(float64(d.ResidentHits), float64(edges)), "fraction", int(edges))
	workers := len(traced.after.PerWorker)
	idle := counterDelta(met0, met1, "worker.idle_empty_wall_ns")
	rep.add("sched.worker_idle_wall_frac", idle/1e9/(float64(workers)*traced.wall), "fraction", workers)
	stall := counterDelta(met0, met1, "worker.stall_copy_sim_ns")
	rep.add("sched.worker_stall_copy_sim_ms", stall/1e6/traced.sim, "ms/s", workers)
	rep.add("sched.host_only_wall_jobs_per_s", hostOnlyRate, "1/s", int(hostOnly.jobs))
	rep.add("sched.kernel_body_wall_frac", 1-untracedRate/hostOnlyRate, "fraction", int(untraced.jobs))
	var rejected, retried, hit, miss int64
	for c := range traced.after.PerClass {
		a, b := traced.after.PerClass[c], traced.before.PerClass[c]
		rejected += a.Rejected - b.Rejected
		retried += a.Retried - b.Retried
		hit += a.DeadlineHit - b.DeadlineHit
		miss += a.DeadlineMiss - b.DeadlineMiss
	}
	rep.add("sched.failed", float64(d.Failed), "count", int(traced.jobs))
	rep.add("sched.rejected", float64(rejected), "count", int(traced.attempted))
	rep.add("sched.retried", float64(retried), "count", int(traced.jobs))

	// qos: pending-queue residency from the trace, deadline outcomes
	// from Stats.
	tr := post.window(tw, pre, v)
	for _, q := range []struct {
		class string
		p     float64
	}{{"interactive", 0.5}, {"interactive", 0.9}, {"batch", 0.9}} {
		waits := tr.durations("queue "+q.class, "pending")
		name := fmt.Sprintf("qos.queue_wait_sim_ms_p%d.%s", int(q.p*100), q.class)
		rep.add(name, quantile(waits, q.p)/1e3, "ms", len(waits))
	}
	rep.add("qos.deadline_miss_frac", ratio(float64(miss), float64(hit+miss)), "fraction", int(hit+miss))

	// gpu: device command tracks of the traced window.
	g := tr.device(v)
	simUS := traced.sim * 1e6
	rep.add("gpu.compute_busy_frac", g.compute/(float64(g.tiles)*simUS), "fraction", g.computeN)
	rep.add("gpu.copy_busy_frac", g.copy/(float64(g.tiles)*simUS), "fraction", g.copyN)
	rep.add("gpu.launches_per_job", float64(g.computeN)/n, "1/job", g.computeN)
	for _, f := range kernelFamilies {
		rep.add("gpu.busy_share."+f.name, ratio(g.family[f.name], g.compute), "fraction", g.familyN[f.name])
	}
	rep.add("ntt.launches_per_job", float64(g.familyN["ntt"])/n, "1/job", g.familyN["ntt"])

	// sycl: gathered transfers.
	rep.add("sycl.h2d_bytes_per_job", float64(d.BytesH2D)/n, "B/job", int(traced.jobs))
	rep.add("sycl.d2h_bytes_per_job", float64(d.BytesD2H)/n, "B/job", int(traced.jobs))
	rep.add("sycl.transfer_batches", float64(d.TransferBatches)/n, "1/job", int(d.TransferBatches))

	// memcache.
	lookups := d.CacheHits + d.CacheMisses
	rep.add("memcache.hit_frac", ratio(float64(d.CacheHits), float64(lookups)), "fraction", int(lookups))
	pinned, _ := met1.Get("memcache.pinned_buffers")
	rep.add("memcache.pinned_after_drain", pinned.Value, "count", 1)

	// ckks: client-side set-up calls.
	rep.add("ckks.keygen_wall_ms", in.keygenWall.Seconds()*1e3, "ms", 1)
	rep.add("ckks.encrypt_wall_ms", medianMS(in.encWall), "ms", len(in.encWall))
	rep.add("ckks.decrypt_wall_ms", medianMS(in.decWall), "ms", len(in.decWall))

	// Go runtime over the untraced pass.
	rep.add("runtime.alloc_kb_per_job", (rt1.alloc-rt0.alloc)/1024/float64(untraced.jobs), "KiB/job", int(untraced.jobs))
	rep.add("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "fraction", 1)

	// obs: what tracing cost and whether it kept every span.
	rep.add("obs.trace_overhead_frac", 1-tracedRate/untracedRate, "fraction", int(traced.jobs))
	rep.add("obs.spans_dropped", float64(dropped), "count", 1)
	v.expect(dropped == 0, "trace dropped %d spans; per-layer numbers would be incomplete", dropped)

	// Layer probes: serial evaluator routines and NTT engine calls.
	probes(in, secs(probeShare*seconds), rep, log)

	return log.write(filepath.Join(".bench_build", "perfbench-spans", fmt.Sprintf("%s-seed%d.json", w.name, seed)))
}

// statsDelta returns the aggregate Stats counters accumulated in win.
func statsDelta(win window) xehe.ServiceStats {
	a, b := win.after.Stats, win.before.Stats
	return xehe.ServiceStats{
		Jobs: a.Jobs - b.Jobs, Failed: a.Failed - b.Failed,
		Batches: a.Batches - b.Batches, Coalesced: a.Coalesced - b.Coalesced,
		FusedSteps: a.FusedSteps - b.FusedSteps, UnfusedSteps: a.UnfusedSteps - b.UnfusedSteps,
		TransferBatches: a.TransferBatches - b.TransferBatches,
		BytesH2D:        a.BytesH2D - b.BytesH2D, BytesD2H: a.BytesD2H - b.BytesD2H,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		GraphJobs:    a.GraphJobs - b.GraphJobs,
		ResidentHits: a.ResidentHits - b.ResidentHits, ResidentMisses: a.ResidentMisses - b.ResidentMisses,
	}
}

// counterDelta returns how much a metrics counter grew.
func counterDelta(before, after xehe.Metrics, name string) float64 {
	a, _ := after.Get(name)
	b, _ := before.Get(name)
	return a.Value - b.Value
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds() * 1e3
	}
	return median(xs)
}

// runtimeSample is a point reading of Go runtime counters.
type runtimeSample struct {
	alloc           float64 // cumulative heap bytes allocated
	gcCPU, totalCPU float64 // cumulative CPU seconds
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{alloc: float64(ms.TotalAlloc), gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// traceEvent is one event of the program's Chrome-trace JSON.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// event is one complete span of a trace track (microseconds).
type event struct {
	name    string
	ts, dur float64
}

// trace groups a WriteTrace export by track name. The cluster has one
// shard, so track names are unique.
type trace map[string][]event

// readTrace exports the cluster's trace and groups it by track.
func readTrace(cl *xehe.Cluster) (trace, error) {
	var buf bytes.Buffer
	if err := cl.WriteTrace(&buf); err != nil {
		return nil, fmt.Errorf("WriteTrace: %w", err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("trace JSON: %w", err)
	}
	names := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names[ev.Tid], _ = ev.Args["name"].(string)
		}
	}
	t := trace{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			track := names[ev.Tid]
			t[track] = append(t[track], event{name: ev.Name, ts: ev.Ts, dur: ev.Dur})
		}
	}
	return t, nil
}

// window drops the warm-up from a trace: the events the warm-up
// snapshot pre already held, and the settle spans of warm-up batches
// that were recorded after it (a worker records a batch's settle span
// after counting its jobs done, so Wait can return first). Any other
// event that starts before tw (simulated seconds) fails the run: it
// would be measured work the cut misattributes to the warm-up.
func (t trace) window(tw float64, pre trace, v *verdict) trace {
	cut := tw * 1e6
	out := trace{}
	for track, evs := range t {
		warm := map[event]int{}
		for _, ev := range pre[track] {
			warm[ev]++
		}
		for _, ev := range evs {
			switch {
			case warm[ev] > 0:
				warm[ev]--
			case ev.ts < cut:
				v.expect(ev.name == "settle", "trace track %q: %s at %.3fus precedes the measured window (%.3fus)", track, ev.name, ev.ts, cut)
			default:
				out[track] = append(out[track], ev)
			}
		}
		for ev, n := range warm {
			v.expect(n == 0, "trace track %q: warm-up event %s at %.3fus missing from the final trace", track, ev.name, ev.ts)
		}
	}
	return out
}

// durations returns the durations (microseconds) of the named events
// on a track.
func (t trace) durations(track, name string) []float64 {
	var d []float64
	for _, ev := range t[track] {
		if ev.name == name {
			d = append(d, ev.dur)
		}
	}
	return d
}

// deviceBusy sums the device command tracks.
type deviceBusy struct {
	tiles             int
	compute, copy     float64 // busy microseconds summed over tiles
	computeN, copyN   int
	family            map[string]float64
	familyN           map[string]int
	unattributedNames []string
}

// device sums busy time per tile track and per kernel family, checks
// that commands on one engine never overlap, and checks that the
// family shares add up to the whole compute busy time.
func (t trace) device(v *verdict) deviceBusy {
	g := deviceBusy{family: map[string]float64{}, familyN: map[string]int{}}
	var tracks []string
	for track := range t {
		tracks = append(tracks, track)
	}
	sort.Strings(tracks)
	for _, track := range tracks {
		compute := strings.HasSuffix(track, " compute")
		if !strings.HasPrefix(track, "tile") || !(compute || strings.HasSuffix(track, " copy")) {
			continue
		}
		evs := append([]event(nil), t[track]...)
		sort.Slice(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
		busy := 0.0
		for i, ev := range evs {
			if i > 0 {
				prev := evs[i-1]
				// One in-order engine: a command starts after the last one
				// ended (the µs export rounds, hence the tolerance).
				v.expect(ev.ts >= prev.ts+prev.dur-1e-6*math.Max(1, prev.ts),
					"%s: %s at %.3fus overlaps %s ending %.3fus", track, ev.name, ev.ts, prev.name, prev.ts+prev.dur)
			}
			busy += ev.dur
		}
		if !compute {
			g.copy += busy
			g.copyN += len(evs)
			continue
		}
		g.tiles++
		g.compute += busy
		g.computeN += len(evs)
		for _, ev := range evs {
			matched := false
			for _, f := range kernelFamilies {
				if strings.HasPrefix(ev.name, f.prefix) {
					g.family[f.name] += ev.dur
					g.familyN[f.name]++
					matched = true
					break
				}
			}
			if !matched {
				g.unattributedNames = append(g.unattributedNames, ev.name)
			}
		}
	}
	sum := 0.0
	for _, f := range kernelFamilies {
		sum += g.family[f.name]
	}
	v.expect(math.Abs(sum-g.compute) <= 1e-9*g.compute,
		"kernel-family busy %.6gus != compute busy %.6gus (unattributed: %v)", sum, g.compute, g.unattributedNames)
	return g
}

// probes times the serial evaluator routines and direct NTT engine
// calls at the workload parameters: host time per call (median) and
// simulated time per call (clock delta over all calls).
func probes(in *inputs, budget time.Duration, rep *report, log *spanLog) {
	a, b := in.probeInputs()
	he := in.he
	ctx := he.Context()
	each := budget / 6

	routines := []struct {
		name, span string
		call       func()
	}{
		{"mulrelinrs", "core.MulRelinRescale", func() { he.MulRelinRescale(a, b) }},
		{"rotate", "core.Rotate", func() { he.Rotate(a, 1) }},
		{"mulrelin", "core.MulRelin", func() { he.MulRelin(a, b) }},
		{"add", "core.Add", func() { he.Add(a, b) }},
	}
	for _, r := range routines {
		wall, sim := probe(each, log, r.span, he.SimulatedSeconds, r.call)
		rep.add("core.sim_us."+r.name, sim*1e6, "us", len(wall))
		rep.add("core.wall_us."+r.name, median(wall)*1e6, "us", len(wall))
	}

	// Direct engine calls over every limb of one top-level polynomial.
	tbls := ctx.Params.TablesAt(ctx.Params.MaxLevel())
	data := append([]uint64(nil), a.Value[0].Data()...)
	fwdWall, fwdSim := probe(each, log, "ntt.Forward", ctx.Device.SimulatedSeconds, func() {
		for _, ev := range ctx.Engine.Forward(ctx.Queues, data, 1, tbls, ctx.Deps()...) {
			ev.Wait()
		}
	})
	invWall, _ := probe(each, log, "ntt.Inverse", ctx.Device.SimulatedSeconds, func() {
		for _, ev := range ctx.Engine.Inverse(ctx.Queues, data, 1, tbls, ctx.Deps()...) {
			ev.Wait()
		}
	})
	rep.add("ntt.fwd_wall_us", median(fwdWall)*1e6, "us", len(fwdWall))
	rep.add("ntt.inv_wall_us", median(invWall)*1e6, "us", len(invWall))
	rep.add("ntt.fwd_sim_us", fwdSim*1e6, "us", len(fwdWall))
}

// probe calls f once untimed, then at least probeMinCalls times and
// until budget passed. It returns each call's host seconds and the
// simulated seconds per call.
func probe(budget time.Duration, log *spanLog, span string, clock func() float64, f func()) ([]float64, float64) {
	f() // caches fill before timing starts
	var wall []float64
	start, sim0 := time.Now(), clock()
	for len(wall) < probeMinCalls || time.Since(start) < budget {
		t0, s0 := time.Now(), clock()
		f()
		wall = append(wall, time.Since(t0).Seconds())
		log.both(0, span, t0, s0, clock())
	}
	return wall, (clock() - sim0) / float64(len(wall))
}

// probeInputs returns two top-level ciphertexts of the workload's pool.
func (in *inputs) probeInputs() (a, b *xehe.Ciphertext) {
	if in.pairs != nil {
		return in.pairs[0].a, in.pairs[0].b
	}
	return in.mmA[0][0], in.mmB[0][0]
}
