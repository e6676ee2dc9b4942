package core

import (
	"fmt"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// launch submits a kernel to the context's queue(s), chaining the
// asynchronous pipeline dependencies.
func (c *Context) launch(k *sycl.Kernel) {
	if len(c.Queues) > 1 {
		c.after(sycl.SubmitSplit(c.Queues, func(h *sycl.Handler) {
			h.DependsOn(c.deps...)
			h.ParallelFor(k)
		}))
		return
	}
	ev := c.Queues[0].Submit(func(h *sycl.Handler) {
		h.DependsOn(c.deps...)
		h.ParallelFor(k)
	})
	c.after([]gpu.Event{ev})
}

// ewKernel builds an elementwise kernel over comps × N items whose
// body processes one component row range at a time.
func (c *Context) ewKernel(name string, comps int, per isa.Profile, extra, bytesPerItem float64, pattern gpu.MemPattern, body func(comp, lo, hi int)) *sycl.Kernel {
	n := c.Params.N
	k := &sycl.Kernel{
		Name:  name,
		Range: gpu.NDRange{Global: [3]int{1, comps, n}},
		Profile: gpu.KernelProfile{
			Items:             comps * n,
			PerItem:           per,
			ExtraSlotsPerItem: extra,
			GlobalBytes:       bytesPerItem * float64(comps*n),
			Pattern:           pattern,
		},
	}
	if !c.Cfg.Analytic {
		k.Body = func(g *gpu.GroupCtx) { body(g.Q, g.Base, g.Base+g.Size) }
	}
	return k
}

func profileOf(ops ...isa.Op) isa.Profile {
	var p isa.Profile
	for _, op := range ops {
		p.Add(op, 1)
	}
	p.Add(isa.OpIndex, 2)
	return p
}

// addInto launches dst = a + b over the first comps components.
func (c *Context) addInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernel("he_add", comps, profileOf(isa.OpAddMod), 0, 24, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			p := moduli[q].Value
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = xmath.AddMod(da[j], db[j], p)
			}
		}))
	dst.IsNTT = a.IsNTT
}

// subInto launches dst = a - b.
func (c *Context) subInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernel("he_sub", comps, profileOf(isa.OpAddMod), 0, 24, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			p := moduli[q].Value
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = xmath.SubMod(da[j], db[j], p)
			}
		}))
	dst.IsNTT = a.IsNTT
}

// mulInto launches the dyadic product dst = a ⊙ b.
func (c *Context) mulInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernel("he_dyadic_mul", comps, profileOf(isa.OpMulMod), 0, 24, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			m := moduli[q]
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = m.MulMod(da[j], db[j])
			}
		}))
	dst.IsNTT = a.IsNTT
}

// madInto launches dst += a ⊙ b, fused (one reduction) when the
// mad_mod optimization is enabled, or as separate mul_mod + add_mod
// kernels in the baseline (Section III-A.1).
func (c *Context) madInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	if c.Cfg.MadMod {
		c.launch(c.ewKernel("he_mad_mod", comps, profileOf(isa.OpMAdMod), 0, 32, gpu.PatternUnitStride,
			func(q, lo, hi int) {
				m := moduli[q]
				da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
				for j := lo; j < hi; j++ {
					dd[j] = m.MAdMod(da[j], db[j], dd[j])
				}
			}))
		return
	}
	c.launch(c.ewKernel("he_mul_then_add", comps, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 40, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			m := moduli[q]
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = xmath.AddMod(m.MulMod(da[j], db[j]), dd[j], m.Value)
			}
		}))
}

// fwdNTT / invNTT run the configured GPU NTT variant over all
// components of a polynomial.
func (c *Context) fwdNTT(p *poly.Poly, tbls []*ntt.Tables) {
	var data []uint64
	if !c.Cfg.Analytic {
		data = p.Data()
	}
	c.after(c.Engine.Forward(c.Queues, data, 1, tbls, c.deps...))
	p.IsNTT = true
}

func (c *Context) invNTT(p *poly.Poly, tbls []*ntt.Tables) {
	var data []uint64
	if !c.Cfg.Analytic {
		data = p.Data()
	}
	c.after(c.Engine.Inverse(c.Queues, data, 1, tbls, c.deps...))
	p.IsNTT = false
}

// Add returns a + b on device.
func (c *Context) Add(a, b *Ciphertext) *Ciphertext {
	level := a.CT.Level
	out := &ckks.Ciphertext{Scale: a.CT.Scale, Level: level}
	var bufs []*sycl.Buffer
	for i := range a.CT.Value {
		d, buf := c.allocPoly(level + 1)
		c.addInto(d, a.CT.Value[i], b.CT.Value[i], level+1)
		out.Value = append(out.Value, d)
		bufs = append(bufs, buf)
	}
	return wrap(out, bufs)
}

// Mul returns the degree-2 tensor product on device.
func (c *Context) Mul(a, b *Ciphertext) *Ciphertext {
	level := a.CT.Level
	comps := level + 1
	d0, b0 := c.allocPoly(comps)
	d1, b1 := c.allocPoly(comps)
	d2, b2 := c.allocPoly(comps)
	c.mulInto(d0, a.CT.Value[0], b.CT.Value[0], comps)
	c.mulInto(d1, a.CT.Value[0], b.CT.Value[1], comps)
	c.madInto(d1, a.CT.Value[1], b.CT.Value[0], comps)
	c.mulInto(d2, a.CT.Value[1], b.CT.Value[1], comps)
	for _, d := range []*poly.Poly{d0, d1, d2} {
		d.IsNTT = true
	}
	out := &ckks.Ciphertext{
		Value: []*poly.Poly{d0, d1, d2},
		Scale: a.CT.Scale * b.CT.Scale,
		Level: level,
	}
	return wrap(out, []*sycl.Buffer{b0, b1, b2})
}

// Square computes the degree-2 square (one dyadic product saved).
func (c *Context) Square(a *Ciphertext) *Ciphertext {
	level := a.CT.Level
	comps := level + 1
	d0, b0 := c.allocPoly(comps)
	d1, b1 := c.allocPoly(comps)
	d2, b2 := c.allocPoly(comps)
	c.mulInto(d0, a.CT.Value[0], a.CT.Value[0], comps)
	c.mulInto(d1, a.CT.Value[0], a.CT.Value[1], comps)
	c.addInto(d1, d1, d1, comps)
	c.mulInto(d2, a.CT.Value[1], a.CT.Value[1], comps)
	for _, d := range []*poly.Poly{d0, d1, d2} {
		d.IsNTT = true
	}
	out := &ckks.Ciphertext{
		Value: []*poly.Poly{d0, d1, d2},
		Scale: a.CT.Scale * a.CT.Scale,
		Level: level,
	}
	return wrap(out, []*sycl.Buffer{b0, b1, b2})
}

// extendDigit launches ks_digit_extend for digit i of every job: row j
// of digits[jb] is coefficient row i of tCoeffs[jb] reduced modulo q_j,
// except row i itself, which takes the target's NTT-form row i. The
// forward NTT of the digit's own row would reproduce that row exactly
// (both are canonical in [0, q_i)), so fwdNTTDigit skips it, as SEAL's
// switch_key_inplace does. The serial and fused paths share this one
// kernel.
func (c *Context) extendDigit(i, level int, targets, tCoeffs, digits []*poly.Poly, extModuli []xmath.Modulus) {
	c.launch(c.ewKernelJobs("ks_digit_extend", len(digits), level+2,
		profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
		func(jb, j, lo, hi int) {
			d := digits[jb].Coeffs[j]
			if j == i {
				copy(d[lo:hi], targets[jb].Coeffs[i][lo:hi])
				return
			}
			di := tCoeffs[jb].Coeffs[i]
			mj := extModuli[j]
			for x := lo; x < hi; x++ {
				d[x] = mj.BarrettReduce(di[x])
			}
		}))
}

// fwdNTTDigit runs the batched forward NTT of every job's extended
// digit i over all moduli, skipping row i, which extendDigit already
// filled with its transform.
func (c *Context) fwdNTTDigit(i int, digits []*poly.Poly, extTbls []*ntt.Tables) {
	view := c.polyView(digits, len(extTbls))
	for jb := range digits {
		view.SkipRow(jb, i)
	}
	c.after(c.Engine.ForwardView(c.Queues, view, extTbls, c.deps...))
	for _, d := range digits {
		d.IsNTT = true
	}
}

// pricedNTT launches the kernels of a polys × len(tbls) transform with
// every row skipped: it advances simulated time exactly as the
// transform would while computing nothing. NTT-domain rotation uses it
// for the coefficient-form transforms the calibrated Rotate timings
// still price.
func (c *Context) pricedNTT(polys int, tbls []*ntt.Tables, forward bool) {
	view := ntt.NewBatchView(polys, len(tbls), c.Params.N)
	for p := 0; p < polys; p++ {
		for q := range tbls {
			view.SkipRow(p, q)
		}
	}
	if forward {
		c.after(c.Engine.ForwardView(c.Queues, view, tbls, c.deps...))
		return
	}
	c.after(c.Engine.InverseView(c.Queues, view, tbls, c.deps...))
}

// automorphJobs launches galois_automorphism for every job: dsts[jb] is
// srcs[jb] under x -> x^galois, both in NTT form, so each row is a
// permutation (ntt.GaloisPermutation, built once per Galois element per
// context) with no arithmetic. The serial and fused Rotate share this
// one kernel; its profile still prices the coefficient-form gather.
func (c *Context) automorphJobs(srcs, dsts []*poly.Poly, comps int, galois uint64) {
	var perm []uint32
	if !c.Cfg.Analytic {
		perm = c.galoisPerms[galois]
		if perm == nil {
			perm = ntt.GaloisPermutation(c.Params.N, galois)
			c.galoisPerms[galois] = perm
		}
	}
	c.launch(c.ewKernelJobs("galois_automorphism", len(dsts), comps,
		profileOf(isa.OpAdd64, isa.OpAdd64), 4, 16, gpu.PatternGather,
		func(jb, q, lo, hi int) {
			ntt.PermuteRow(dsts[jb].Coeffs[q][lo:hi], srcs[jb].Coeffs[q], perm[lo:])
		}))
	for _, d := range dsts {
		d.IsNTT = true
	}
}

// ksMad launches the multiply-accumulate of key-switching digit i for
// every job over the extended basis {q_0..q_level, p}: accs0[jb] +=
// digits[jb]·swk.B[i] and accs1[jb] += digits[jb]·swk.A[i]. The special
// prime sits at L+1 in the switching key regardless of the ciphertext
// level. The serial and fused paths share this one kernel.
//
// The functional body defers the modular reduction across digits, as
// SEAL's switch_key_inplace does: the sum of d·key over all digits stays
// unreduced in 128 bits (low words in the accumulator rows, high words
// in the context's host scratch) and the last digit reduces it once
// with BarrettReduce128. Digit 0 overwrites the rows, so the
// accumulators need no clearing. rns.MaxChainPrimes keeps the sum below
// 2^128. The analytic profile still prices one mad_mod per digit.
func (c *Context) ksMad(i, level int, digits, accs0, accs1 []*poly.Poly, swk *ckks.SwitchKey, extModuli []xmath.Modulus) {
	k, n, comps := len(digits), c.Params.N, level+2
	L := c.Params.MaxLevel()
	var highs []uint64
	if words := 2 * k * comps * n; !c.Cfg.Analytic {
		if cap(c.ksHigh) < words {
			c.ksHigh = make([]uint64, words)
		}
		highs = c.ksHigh[:words]
	}
	bKey, aKey := swk.B[i], swk.A[i]
	madProfile := profileOf(isa.OpMAdMod, isa.OpMAdMod)
	if !c.Cfg.MadMod {
		madProfile = profileOf(isa.OpMulMod, isa.OpAddMod, isa.OpMulMod, isa.OpAddMod)
	}
	c.launch(c.ewKernelJobs("ks_mad", k, comps, madProfile, 0, 56, gpu.PatternUnitStride,
		func(jb, j, lo, hi int) {
			keyIdx := j
			if j == level+1 {
				keyIdx = L + 1
			}
			// High-word rows: accumulator 0 of job jb, component j at
			// (jb*comps+j)*n; accumulator 1 follows all of them.
			h0 := highs[(jb*comps+j)*n:]
			h1 := highs[((k+jb)*comps+j)*n:]
			ksMadRow(extModuli[j], i, level,
				digits[jb].Coeffs[j][lo:hi], bKey.Coeffs[keyIdx][lo:], aKey.Coeffs[keyIdx][lo:],
				accs0[jb].Coeffs[j][lo:], accs1[jb].Coeffs[j][lo:], h0[lo:], h1[lo:])
		}))
}

// ksMadRow is the ks_mad row body for digit i of last+1 over one row
// range: (h0:o0) += d·b and (h1:o1) += d·a as unreduced 128-bit sums,
// reduced modulo m into o0 and o1 at the last digit. A one-digit switch
// reduces its single product directly.
func ksMadRow(m xmath.Modulus, i, last int, d, b, a, o0, o1, h0, h1 []uint64) {
	b, a = b[:len(d)], a[:len(d)]
	o0, o1, h0, h1 = o0[:len(d)], o1[:len(d)], h0[:len(d)], h1[:len(d)]
	switch {
	case last == 0:
		for x, dx := range d {
			o0[x] = m.MulMod(dx, b[x])
			o1[x] = m.MulMod(dx, a[x])
		}
	case i == 0:
		for x, dx := range d {
			h0[x], o0[x] = xmath.Mul64(dx, b[x])
			h1[x], o1[x] = xmath.Mul64(dx, a[x])
		}
	case i < last:
		for x, dx := range d {
			h0[x], o0[x] = xmath.MulAdd128(dx, b[x], h0[x], o0[x])
			h1[x], o1[x] = xmath.MulAdd128(dx, a[x], h1[x], o1[x])
		}
	default:
		for x, dx := range d {
			o0[x] = m.BarrettReduce128(xmath.MulAdd128(dx, b[x], h0[x], o0[x]))
			o1[x] = m.BarrettReduce128(xmath.MulAdd128(dx, a[x], h1[x], o1[x]))
		}
	}
}

// switchKey is the device key-switching procedure (see the host
// reference in internal/ckks for the algorithm). It is the
// NTT-dominated kernel behind Relinearize and Rotate (Fig. 5).
func (c *Context) switchKey(target *poly.Poly, swk *ckks.SwitchKey, level int) (*poly.Poly, *sycl.Buffer, *poly.Poly, *sycl.Buffer) {
	params := c.Params
	n := params.N
	basis := params.Basis
	moduli := params.ModuliAt(level)
	L := params.MaxLevel()
	sp := basis.Special
	spTbl := params.SpecialTable

	// Step 1: target back to coefficient form (GPU iNTT).
	tCoeff, tBuf := c.allocPoly(level + 1)
	if !c.Cfg.Analytic {
		copy(tCoeff.Data(), target.Data()[:n*(level+1)])
	}
	tCoeff.IsNTT = true
	c.invNTT(tCoeff, params.TablesAt(level))

	// Digit 0 of ks_mad overwrites every row, so no clearing is needed.
	acc0, a0buf := c.allocPoly(level + 2) // chain + special component
	acc1, a1buf := c.allocPoly(level + 2)
	acc0.IsNTT, acc1.IsNTT = true, true

	// One extended digit buffer over the full basis {q_0..q_l, p};
	// kernels are batched across moduli (one extend kernel, one batched
	// NTT, one multiply-accumulate kernel per digit), as the real
	// backend submits them.
	digit, dBuf := c.allocPoly(level + 2)
	extTbls := append(append([]*ntt.Tables{}, params.TablesAt(level)...), spTbl)
	extModuli := append(append([]xmath.Modulus{}, moduli...), sp)

	targets, tCoeffs := []*poly.Poly{target}, []*poly.Poly{tCoeff}
	digits, accs0, accs1 := []*poly.Poly{digit}, []*poly.Poly{acc0}, []*poly.Poly{acc1}

	for i := 0; i <= level; i++ {
		c.extendDigit(i, level, targets, tCoeffs, digits, extModuli)
		c.fwdNTTDigit(i, digits, extTbls)
		c.ksMad(i, level, digits, accs0, accs1, swk, extModuli)
	}
	c.freePoly(dBuf)
	c.freePoly(tBuf)

	// Step 3: mod-down by P (batched across moduli).
	out0, o0buf := c.allocPoly(level + 1)
	out1, o1buf := c.allocPoly(level + 1)
	out0.IsNTT, out1.IsNTT = true, true
	tmp, tmpBuf := c.allocPoly(level + 1)
	// p^{-1} mod q_j as Harvey operands, built once per modulus.
	pInvs := make([]xmath.MulModOperand, level+1)
	for j := range pInvs {
		pInvs[j] = xmath.NewMulModOperand(basis.SpecialInvModQi(L, j), moduli[j])
	}
	for _, pair := range [2]struct {
		acc *poly.Poly
		out *poly.Poly
	}{{acc0, out0}, {acc1, out1}} {
		// Special component to coefficient form.
		specialView := &poly.Poly{N: n, Coeffs: pair.acc.Coeffs[level+1 : level+2], IsNTT: true}
		c.after(c.Engine.Inverse(c.Queues, specialView.Coeffs[0], 1, []*ntt.Tables{spTbl}, c.deps...))
		c.launch(c.ewKernel("ks_moddown_reduce", level+1,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
			func(j, lo, hi int) {
				mj := moduli[j]
				sp := specialView.Coeffs[0]
				d := tmp.Coeffs[j]
				for k := lo; k < hi; k++ {
					d[k] = mj.BarrettReduce(sp[k])
				}
			}))
		tmp.IsNTT = false
		c.fwdNTT(tmp, params.TablesAt(level))
		acc, out := pair.acc, pair.out
		c.launch(c.ewKernel("ks_moddown_scale", level+1,
			profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride,
			func(j, lo, hi int) {
				p := moduli[j].Value
				pInv := pInvs[j]
				d := tmp.Coeffs[j]
				a := acc.Coeffs[j]
				o := out.Coeffs[j]
				for k := lo; k < hi; k++ {
					o[k] = pInv.MulMod(xmath.SubMod(a[k], d[k], p), p)
				}
			}))
	}
	c.freePoly(tmpBuf)
	c.freePoly(a0buf)
	c.freePoly(a1buf)
	return out0, o0buf, out1, o1buf
}

// Relinearize reduces a degree-2 device ciphertext to degree 1.
func (c *Context) Relinearize(ct *Ciphertext, rlk *ckks.RelinKey) *Ciphertext {
	level := ct.CT.Level
	r0, r0b, r1, r1b := c.switchKey(ct.CT.Value[2], &rlk.SwitchKey, level)
	c.addInto(r0, r0, ct.CT.Value[0], level+1)
	c.addInto(r1, r1, ct.CT.Value[1], level+1)
	r0.IsNTT, r1.IsNTT = true, true
	out := &ckks.Ciphertext{Value: []*poly.Poly{r0, r1}, Scale: ct.CT.Scale, Level: level}
	return wrap(out, []*sycl.Buffer{r0b, r1b})
}

// Rescale divides by the last chain modulus on device.
func (c *Context) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.CT.Level == 0 {
		panic("core: cannot rescale at level 0")
	}
	params := c.Params
	level := ct.CT.Level
	basis := params.Basis
	lastTbl := params.ChainTables[level]
	qLast := basis.Moduli[level].Value
	n := params.N

	out := &ckks.Ciphertext{Scale: ct.CT.Scale / float64(qLast), Level: level - 1}
	var bufs []*sycl.Buffer
	last, lastBuf := c.allocPoly(1)
	tmp, tmpBuf := c.allocPoly(1)
	for _, comp := range ct.CT.Value {
		src := comp
		c.launch(c.ewKernel("rs_copy_last", 1, profileOf(), 0, 16, gpu.PatternUnitStride,
			func(_, lo, hi int) {
				copy(last.Coeffs[0][lo:hi], src.Coeffs[level][lo:hi])
			}))
		last.IsNTT = true
		c.after(c.Engine.Inverse(c.Queues, last.Coeffs[0], 1, []*ntt.Tables{lastTbl}, c.deps...))

		dst, buf := c.allocPoly(level)
		dst.IsNTT = true
		for j := 0; j < level; j++ {
			mj := basis.Moduli[j]
			inv := xmath.NewMulModOperand(basis.InvLastModQi(level, j), mj)
			c.launch(c.ewKernel("rs_reduce", 1, profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
				func(_, lo, hi int) {
					l := last.Coeffs[0]
					d := tmp.Coeffs[0]
					for k := lo; k < hi; k++ {
						d[k] = mj.BarrettReduce(l[k])
					}
				}))
			tmp.IsNTT = false
			c.fwdNTT(tmp, params.ChainTables[j:j+1])
			srcJ := src.Coeffs[j]
			dstJ := dst.Coeffs[j]
			c.launch(c.ewKernel("rs_scale", 1, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride,
				func(_, lo, hi int) {
					d := tmp.Coeffs[0]
					for k := lo; k < hi; k++ {
						dstJ[k] = inv.MulMod(xmath.SubMod(srcJ[k], d[k], mj.Value), mj.Value)
					}
				}))
		}
		out.Value = append(out.Value, dst)
		bufs = append(bufs, buf)
	}
	c.freePoly(lastBuf)
	c.freePoly(tmpBuf)
	_ = n
	return wrap(out, bufs)
}

// ModSwitch drops the last RNS component (no kernels needed beyond
// bookkeeping: the residues are already what the smaller modulus
// requires).
func (c *Context) ModSwitch(ct *Ciphertext) *Ciphertext {
	if ct.CT.Level == 0 {
		panic("core: cannot mod-switch at level 0")
	}
	out := &ckks.Ciphertext{Scale: ct.CT.Scale, Level: ct.CT.Level - 1}
	var bufs []*sycl.Buffer
	for _, comp := range ct.CT.Value {
		d, buf := c.allocPoly(ct.CT.Level)
		c.launch(c.ewKernel("modswitch_copy", ct.CT.Level, profileOf(), 0, 16, gpu.PatternUnitStride,
			func(q, lo, hi int) {
				copy(d.Coeffs[q][lo:hi], comp.Coeffs[q][lo:hi])
			}))
		d.IsNTT = comp.IsNTT
		out.Value = append(out.Value, d)
		bufs = append(bufs, buf)
	}
	return wrap(out, bufs)
}

// galoisFor returns the Galois element of a rotation by k, panicking
// when gk was generated for another element: the key switch would
// otherwise run and the result decrypt to garbage.
func galoisFor(params *ckks.Parameters, k int, gk *ckks.GaloisKey) uint64 {
	galois := params.GaloisElement(k)
	if gk.Galois != galois {
		panic(fmt.Sprintf("core: rotation by %d needs Galois element %d, key is for Galois element %d", k, galois, gk.Galois))
	}
	return galois
}

// Rotate rotates message slots by k using the Galois key, which must
// have been generated for rotation k (it panics otherwise).
func (c *Context) Rotate(ct *Ciphertext, k int, gk *ckks.GaloisKey) *Ciphertext {
	params := c.Params
	level := ct.CT.Level
	comps := level + 1
	tbls := params.TablesAt(level)
	galois := galoisFor(params, k, gk)

	// Automorphism in NTT form: a row permutation of the input. The
	// coefficient-form route's iNTT of the inputs and fNTT of the
	// outputs keep their launches (every row skipped) and c0/c1 their
	// buffers, so simulated time and memory-cache traffic are those of
	// the calibrated coefficient-form Rotate.
	_, c0b := c.allocPoly(comps)
	_, c1b := c.allocPoly(comps)
	c.pricedNTT(1, tbls, false)
	c.pricedNTT(1, tbls, false)

	r0, r0b := c.allocPoly(comps)
	r1, r1b := c.allocPoly(comps)
	c.automorphJobs(ct.CT.Value[:1], []*poly.Poly{r0}, comps, galois)
	c.automorphJobs(ct.CT.Value[1:2], []*poly.Poly{r1}, comps, galois)
	c.freePoly(c0b)
	c.freePoly(c1b)
	c.pricedNTT(1, tbls, true)
	c.pricedNTT(1, tbls, true)

	k0, k0b, k1, k1b := c.switchKey(r1, &gk.SwitchKey, level)
	c.addInto(k0, k0, r0, comps)
	k0.IsNTT, k1.IsNTT = true, true
	c.freePoly(r0b)
	c.freePoly(r1b)
	out := &ckks.Ciphertext{Value: []*poly.Poly{k0, k1}, Scale: ct.CT.Scale, Level: level}
	return wrap(out, []*sycl.Buffer{k0b, k1b})
}
