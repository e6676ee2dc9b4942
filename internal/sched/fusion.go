package sched

// Cross-job kernel fusion: the step-at-a-time batch executor every
// worker batch runs through. A batch holds k jobs with identical shape
// keys — same input levels and op chains, hence identical kernel
// launch sequences — so instead of walking each job's chain alone
// (k separate launches per step), the worker walks the shared chain
// once and drives every step as one widened launch over all k jobs'
// polynomials (internal/core's *Batch methods over ntt.BatchView
// gathers). The per-element arithmetic is unchanged, so fused results
// are bit-for-bit identical to the serial core.Context routines; the
// win is paying kernel launch, host submission and multi-queue
// overhead once per step per batch. A batch of one launches exactly
// what the serial routine launches.

import (
	"fmt"

	"xehe/internal/ckks"
	"xehe/internal/core"
)

// evalChainFusedOn is the fused executor over already device-resident
// inputs (the worker ships them in one gathered staging submission).
// It takes ownership of ins: on error every value — inputs and
// intermediates — has been recycled. The error names the failed op as
// a job op: the worker reports only errors of batches of one (a broken
// batch of two or more re-runs each job alone).
func evalChainFusedOn(c *core.Context, rlk *ckks.RelinKey, gks map[int]*ckks.GaloisKey, jobs []*Job, ins [][]*core.Ciphertext, tr *stepTrace) (vals [][]*core.Ciphertext, err error) {
	stage := 0
	vals = ins
	defer func() {
		if r := recover(); r != nil {
			for _, vs := range vals {
				for _, v := range vs {
					if v != nil {
						c.Free(v)
					}
				}
			}
			vals = nil
			err = wrapPanic(fmt.Sprintf("job op %d (%v)", stage, jobs[0].Ops[stage].Code), r)
		}
	}()
	k := len(jobs)
	// Same shape key == same op chain; job 0's chain drives the batch.
	gather := func(idx int) []*core.Ciphertext {
		cts := make([]*core.Ciphertext, k)
		for j := range cts {
			cts[j] = vals[j][idx]
		}
		return cts
	}
	for i, op := range jobs[0].Ops {
		stage = i
		sst := tr.begin()
		var rs []*core.Ciphertext
		switch op.Code {
		case OpAdd:
			rs = c.AddBatch(gather(op.A), gather(op.B))
		case OpMulRelin:
			rs = c.MulLinBatch(gather(op.A), gather(op.B), rlk)
		case OpMulRelinRescale:
			rs = c.MulLinRSBatch(gather(op.A), gather(op.B), rlk)
		case OpSquareRelinRescale:
			rs = c.SqrLinRSBatch(gather(op.A), rlk)
		case OpRotate:
			gk, ok := gks[op.K]
			if !ok {
				panic(fmt.Sprintf("no Galois key for rotation %d", op.K))
			}
			rs = c.RotateBatch(gather(op.A), op.K, gk)
		case OpModSwitch:
			rs = c.ModSwitchBatch(gather(op.A))
		}
		tr.end(sst, op.Code.String(), k)
		for j := range vals {
			vals[j] = append(vals[j], rs[j])
		}
	}
	return vals, nil
}
