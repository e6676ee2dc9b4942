package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xehe"
)

// Settings shared by every workload's one-shard Device1 cluster.
// Device1 has two tiles, so the default pool is two workers.
const (
	queueDepth  = 2
	maxBatch    = 4
	pendingCap  = 512
	warmBuffers = 16

	// interactiveDeadline is the mixed-qos interactive latency target
	// in simulated seconds.
	interactiveDeadline = 0.010
	// mixedBurst is the mixed-qos burst length in jobs. Under sustained
	// overload the interactive latency keeps climbing toward the aging
	// window for tens of seconds, so it would depend on how many jobs
	// the host pushed in the run; whole bursts that drain keep it a
	// property of the traffic.
	mixedBurst = pendingCap

	// pairPool is how many distinct seeded input pairs the job
	// streams cycle through; each has its own serial reference.
	pairPool = 16
	// classPool is the length of the seeded class sequence.
	classPool = 1024

	// refTolerance is the largest absolute slot error a decrypted
	// reference may show against plaintext arithmetic on inputs drawn
	// from [-0.5, 0.5) + [-0.5, 0.5)i. The CKKS noise of every workload
	// stays near 2e-7; a wrong result is off by order 1.
	refTolerance = 1e-5
)

// matmul shape: the paper's matMul_10x9x8 (Section IV-E, Fig. 19).
const (
	mmM = 10
	mmN = 9
	mmK = 8
)

// pair is one seeded input pair with its serial reference output and
// the plaintexts the reference was checked against.
type pair struct {
	a, b   *xehe.Ciphertext
	va, vb []complex128
	ref    *xehe.Ciphertext
}

// inputs is everything a workload's set-up builds from the seed.
type inputs struct {
	params  *xehe.Parameters
	kit     *xehe.KeyKit
	he      *xehe.GPUEvaluator // serial reference path
	pairs   []pair
	classes []xehe.JobClass
	// matmul operands and references (C[i][j]).
	mmA, mmB, mmC [][]*xehe.Ciphertext

	keygenWall time.Duration
	encWall    []time.Duration // per Encrypt call
	decWall    []time.Duration // per Decrypt call
}

// sink is one job output the benchmark waits for and checks.
type sink struct {
	id  int64
	fut *xehe.Pending
	ref *xehe.Ciphertext
}

// unit is what one generator step submitted.
type unit struct {
	sinks []sink
	jobs  int
}

// workload is one seeded traffic shape, offered offline: as fast as
// Submit admits it.
type workload struct {
	name string
	// warm is the number of units run before the measured window.
	warm int
	// burst, when set, is how many units the generator offers before it
	// waits for the cluster to drain and starts the next burst; a timed
	// pass only stops between bursts.
	burst int
	// latClass is the class whose per-class Stats latency is the
	// end-to-end latency of an offline stream.
	latClass xehe.JobClass
	prepare  func(in *inputs, rng *rand.Rand, log *spanLog) error
	submit   func(in *inputs, sub submitFn, i int) (unit, error)
}

// submitFn submits one job and returns the id its spans carry.
type submitFn func(*xehe.Job) (int64, *xehe.Pending, error)

var workloads = map[string]*workload{
	"mixed-qos": {
		name: "mixed-qos", warm: 32, burst: mixedBurst, latClass: xehe.Interactive,
		prepare: prepareMixed, submit: submitChain(mixedJob),
	},
	"matmul-graph": {
		name: "matmul-graph", warm: 1, latClass: xehe.Batch,
		prepare: prepareMatmul, submit: submitMatmul,
	},
	"add-stream": {
		name: "add-stream", warm: 64, latClass: xehe.Batch,
		prepare: prepareAdd, submit: submitChain(addJob),
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// clusterConfig is the one configuration every workload runs under.
func clusterConfig(trace bool, analytic bool) xehe.ClusterConfig {
	cfg := xehe.ClusterConfig{
		Policy:      xehe.PolicyWFQ,
		QueueDepth:  queueDepth,
		MaxBatch:    maxBatch,
		PendingCap:  pendingCap,
		WarmBuffers: warmBuffers,
	}
	if trace {
		cfg.Trace = xehe.TraceConfig{Enabled: xehe.ToggleOn, SpanCap: spanCap}
	}
	if analytic {
		backend := xehe.ConfigOptimized()
		backend.Analytic = true
		cfg.Backend = &backend
	}
	return cfg
}

// newInputs builds parameters and seeded keys, then runs the
// workload's own pool and reference preparation.
func newInputs(w *workload, seed int64, log *spanLog) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{params: xehe.NewParameters(xehe.ParamsDemo())}
	t0 := time.Now()
	in.kit = xehe.GenerateKeys(in.params, rng.Int63(), 1)
	in.keygenWall = time.Since(t0)
	log.wall(0, "ckks.GenerateKeys", t0)
	in.he = xehe.NewGPUEvaluator(in.params, in.kit, xehe.Device1, xehe.ConfigOptimized())
	if err := w.prepare(in, rng, log); err != nil {
		return nil, err
	}
	return in, nil
}

// randomSlots draws one plaintext vector.
func randomSlots(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return v
}

// encrypt draws and encrypts one seeded vector, timing the call.
func (in *inputs) encrypt(rng *rand.Rand, log *spanLog) (*xehe.Ciphertext, []complex128) {
	v := randomSlots(rng, in.params.Slots())
	t0 := time.Now()
	ct := in.kit.Encrypt(v)
	in.encWall = append(in.encWall, time.Since(t0))
	log.wall(0, "ckks.Encrypt", t0)
	return ct, v
}

// checkRef decrypts a reference and compares it with the plaintext
// model slot by slot.
func (in *inputs) checkRef(what string, ref *xehe.Ciphertext, want []complex128, log *spanLog) error {
	t0 := time.Now()
	got := in.kit.Decrypt(ref)
	in.decWall = append(in.decWall, time.Since(t0))
	log.wall(0, "ckks.Decrypt", t0)
	worst := 0.0
	for s := range want {
		worst = math.Max(worst, cmplx.Abs(got[s]-want[s]))
	}
	if !(worst <= refTolerance) {
		return fmt.Errorf("reference %s decrypts %.3g away from plaintext, tolerance %.0g", what, worst, refTolerance)
	}
	return nil
}

// evalSpan runs one serial evaluator call inside a benchmark span.
func evalSpan(log *spanLog, he *xehe.GPUEvaluator, name string, f func() *xehe.Ciphertext) *xehe.Ciphertext {
	t0, s0 := time.Now(), he.SimulatedSeconds()
	ct := f()
	log.both(0, name, t0, s0, he.SimulatedSeconds())
	return ct
}

// eachParallel runs f(he, i) for every i in [0, n) on one serial
// evaluator per host CPU, so reference computation uses the whole
// host; each reference is still computed serially by one evaluator.
func (in *inputs) eachParallel(n int, f func(he *xehe.GPUEvaluator, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		he := in.he
		if w > 0 {
			he = xehe.NewGPUEvaluator(in.params, in.kit, xehe.Device1, xehe.ConfigOptimized())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(he, i)
			}
		}()
	}
	wg.Wait()
}

// mixedJob is the mixed-qos job: MulRelinRescale then Rotate(1).
func mixedJob(p *pair) *xehe.Job {
	j := xehe.NewJob(p.a, p.b)
	j.Rotate(j.MulRelinRescale(0, 1), 1)
	return j
}

// addJob is the add-stream job: three chained Adds over two inputs,
// ((a+b)+a)+b.
func addJob(p *pair) *xehe.Job {
	j := xehe.NewJob(p.a, p.b)
	j.Add(j.Add(j.Add(0, 1), 0), 1)
	return j
}

// preparePairs encrypts the seeded pair pool and computes and checks
// each pair's serial reference.
func preparePairs(in *inputs, rng *rand.Rand, log *spanLog, ref func(he *xehe.GPUEvaluator, p *pair) *xehe.Ciphertext, want func(s int, p *pair) complex128) error {
	in.pairs = make([]pair, pairPool)
	for i := range in.pairs {
		p := &in.pairs[i]
		p.a, p.va = in.encrypt(rng, log)
		p.b, p.vb = in.encrypt(rng, log)
	}
	in.eachParallel(len(in.pairs), func(he *xehe.GPUEvaluator, i int) {
		in.pairs[i].ref = ref(he, &in.pairs[i])
	})
	exp := make([]complex128, in.params.Slots())
	for i := range in.pairs {
		p := &in.pairs[i]
		for s := range exp {
			exp[s] = want(s, p)
		}
		if err := in.checkRef(fmt.Sprintf("pair %d", i), p.ref, exp, log); err != nil {
			return err
		}
	}
	return nil
}

// prepareMixed builds the pair pool for MulRelinRescale→Rotate(1) and
// the seeded 20/70/10 interactive/batch/background class order.
func prepareMixed(in *inputs, rng *rand.Rand, log *spanLog) error {
	slots := in.params.Slots()
	err := preparePairs(in, rng, log, func(he *xehe.GPUEvaluator, p *pair) *xehe.Ciphertext {
		m := evalSpan(log, he, "core.MulRelinRescale", func() *xehe.Ciphertext { return he.MulRelinRescale(p.a, p.b) })
		return evalSpan(log, he, "core.Rotate", func() *xehe.Ciphertext { return he.Rotate(m, 1) })
	}, func(s int, p *pair) complex128 {
		r := (s + 1) % slots
		return p.va[r] * p.vb[r]
	})
	if err != nil {
		return err
	}
	in.classes = make([]xehe.JobClass, classPool)
	for i := range in.classes {
		switch u := rng.Float64(); {
		case u < 0.2:
			in.classes[i] = xehe.Interactive
		case u < 0.9:
			in.classes[i] = xehe.Batch
		default:
			in.classes[i] = xehe.Background
		}
	}
	return nil
}

// prepareAdd builds the pair pool for the three-Add chain.
func prepareAdd(in *inputs, rng *rand.Rand, log *spanLog) error {
	return preparePairs(in, rng, log, func(he *xehe.GPUEvaluator, p *pair) *xehe.Ciphertext {
		add := func(x, y *xehe.Ciphertext) *xehe.Ciphertext {
			return evalSpan(log, he, "core.Add", func() *xehe.Ciphertext { return he.Add(x, y) })
		}
		return add(add(add(p.a, p.b), p.a), p.b)
	}, func(s int, p *pair) complex128 {
		return 2*p.va[s] + 2*p.vb[s]
	})
}

// submitChain returns the submit step of a single-job-per-unit stream:
// unit i runs the job over pair i mod pairPool, with the seeded class
// (and, for interactive jobs, the deadline) when the workload has a
// class order.
func submitChain(build func(*pair) *xehe.Job) func(*inputs, submitFn, int) (unit, error) {
	return func(in *inputs, sub submitFn, i int) (unit, error) {
		p := &in.pairs[i%len(in.pairs)]
		j := build(p)
		if in.classes != nil {
			c := in.classes[i%len(in.classes)]
			j.WithClass(c)
			if c == xehe.Interactive {
				j.WithDeadline(interactiveDeadline)
			}
		}
		id, f, err := sub(j)
		if err != nil {
			return unit{jobs: 1}, err
		}
		return unit{sinks: []sink{{id: id, fut: f, ref: p.ref}}, jobs: 1}, nil
	}
}

// prepareMatmul encrypts seeded A (M×K) and B (K×N) and computes the
// serial reference C[i][j] = Σ_l MulRelin(A[i][l], B[l][j]).
func prepareMatmul(in *inputs, rng *rand.Rand, log *spanLog) error {
	mk := func(rows, cols int) ([][]*xehe.Ciphertext, [][][]complex128) {
		cts := make([][]*xehe.Ciphertext, rows)
		vals := make([][][]complex128, rows)
		for i := range cts {
			cts[i] = make([]*xehe.Ciphertext, cols)
			vals[i] = make([][]complex128, cols)
			for j := range cts[i] {
				cts[i][j], vals[i][j] = in.encrypt(rng, log)
			}
		}
		return cts, vals
	}
	var va, vb [][][]complex128
	in.mmA, va = mk(mmM, mmK)
	in.mmB, vb = mk(mmK, mmN)
	in.mmC = make([][]*xehe.Ciphertext, mmM)
	for i := range in.mmC {
		in.mmC[i] = make([]*xehe.Ciphertext, mmN)
	}
	in.eachParallel(mmM*mmN, func(he *xehe.GPUEvaluator, k int) {
		i, j := k/mmN, k%mmN
		var acc *xehe.Ciphertext
		for l := 0; l < mmK; l++ {
			a, b := in.mmA[i][l], in.mmB[l][j]
			prod := evalSpan(log, he, "core.MulRelin", func() *xehe.Ciphertext { return he.MulRelin(a, b) })
			if acc == nil {
				acc = prod
				continue
			}
			prev := acc
			acc = evalSpan(log, he, "core.Add", func() *xehe.Ciphertext { return he.Add(prev, prod) })
		}
		in.mmC[i][j] = acc
	})
	want := make([]complex128, in.params.Slots())
	for i := range in.mmC {
		for j, ref := range in.mmC[i] {
			for s := range want {
				want[s] = 0
				for l := 0; l < mmK; l++ {
					want[s] += va[i][l][s] * vb[l][j][s]
				}
			}
			if err := in.checkRef(fmt.Sprintf("C[%d][%d]", i, j), ref, want, log); err != nil {
				return err
			}
		}
	}
	return nil
}

// submitMatmul submits one whole matMul_10x9x8 job graph: per output
// element, K MulRelin product jobs feed one accumulator job that takes
// them through InputFrom and sums them with Add.
func submitMatmul(in *inputs, sub submitFn, _ int) (unit, error) {
	var u unit
	for i := 0; i < mmM; i++ {
		for j := 0; j < mmN; j++ {
			prods := make([]*xehe.Pending, mmK)
			for l := 0; l < mmK; l++ {
				pj := xehe.NewJob(in.mmA[i][l], in.mmB[l][j])
				pj.MulRelin(0, 1)
				u.jobs++
				_, f, err := sub(pj)
				if err != nil {
					return u, fmt.Errorf("product (%d,%d,%d): %w", i, j, l, err)
				}
				prods[l] = f
			}
			acc := xehe.NewJob()
			for _, p := range prods {
				acc.InputFrom(p)
			}
			// With no host inputs the K dependencies are value indices
			// 0..K-1; op results follow them.
			v := acc.Add(0, 1)
			for l := 2; l < mmK; l++ {
				v = acc.Add(v, l)
			}
			u.jobs++
			id, f, err := sub(acc)
			if err != nil {
				return u, fmt.Errorf("accumulator (%d,%d): %w", i, j, err)
			}
			u.sinks = append(u.sinks, sink{id: id, fut: f, ref: in.mmC[i][j]})
		}
	}
	return u, nil
}

// sameCiphertext reports bit-for-bit equality of two ciphertexts.
func sameCiphertext(a, b *xehe.Ciphertext) bool {
	if a == nil || b == nil || a.Level != b.Level || a.Scale != b.Scale || len(a.Value) != len(b.Value) {
		return false
	}
	for i := range a.Value {
		if !a.Value[i].Equal(b.Value[i]) {
			return false
		}
	}
	return true
}
