package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"heax"
	"heax/internal/core"
	"heax/internal/hwsim"
	"heax/internal/ntt"
	"heax/internal/ring"
)

// layerBudget is how long one per-layer measurement may take; each also
// runs at least minReps times.
const (
	layerBudget = 400 * time.Millisecond
	minReps     = 5
)

// measure times f per call until both minReps calls and the budget are
// spent, after one untimed warm-up call. It returns milliseconds.
func measure(budget time.Duration, f func() error) ([]float64, error) {
	if err := f(); err != nil {
		return nil, err
	}
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < budget {
		t := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t)))
	}
	return out, nil
}

// allocsPerCall counts heap allocations per call at GOMAXPROCS 1, as
// testing.AllocsPerRun does.
func allocsPerCall(n int, f func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := f(); err != nil {
		return 0, err
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

// layers collects per-layer metrics and the computed reference columns.
type layers struct {
	m   map[string]metricValue
	ref map[string]float64
}

func (l *layers) set(name, unit string, v float64, n int) {
	l.m[name] = metricValue{Value: v, Unit: unit, N: n}
}

// setMedian records the median of samples in ms (or scaled to unit).
func (l *layers) setMedian(name, unit string, samplesMs []float64, scale float64) {
	l.set(name, unit, median(samplesMs)*scale, len(samplesMs))
}

// stepRecorder is a heax.Tracer summing step time and count by kind.
type stepRecorder struct {
	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int
}

func (r *stepRecorder) ObserveStep(kind string, d time.Duration) {
	r.mu.Lock()
	r.total[kind] += d
	r.count[kind]++
	r.mu.Unlock()
}

func (r *stepRecorder) reset() {
	r.mu.Lock()
	r.total = map[string]time.Duration{}
	r.count = map[string]int{}
	r.mu.Unlock()
}

// measurePlan times the workload's circuit in process: the compiler,
// the plan at default workers and at one worker with one step in
// flight (traced by step kind through Plan.SetTracer), and RunBatch.
func (l *layers) measurePlan(tn *tenant) error {
	circ, params, evk := tn.model.circ, tn.params, tn.evk
	in := map[string]*heax.Ciphertext{"x": tn.cts[0]}

	var plan *heax.Plan
	compiles, err := measure(layerBudget, func() (err error) {
		plan, err = circ.Compile(params, evk)
		return err
	})
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	l.setMedian("plan.compile_ms", "ms", compiles, 1)
	l.set("plan.steps", "count", float64(plan.NumSteps()), 1)
	l.set("plan.footprint_mb", "MB", float64(plan.FootprintBytes())/(1<<20), 1)

	runs, err := measure(layerBudget, func() error {
		_, err := plan.Run(in)
		return err
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	l.setMedian("plan.run_ms", "ms", runs, 1)

	serial, err := circ.Compile(params, evk, heax.WithPlanWorkers(1), heax.WithPlanInFlight(1))
	if err != nil {
		return err
	}
	rec := &stepRecorder{}
	rec.reset()
	serial.SetTracer(rec)
	var overhead []float64
	kindMs := map[string][]float64{}
	kindN := map[string]int{}
	runs1, err := measure(layerBudget, func() error {
		rec.reset()
		t := time.Now()
		_, err := serial.Run(in)
		wall := time.Since(t)
		rec.mu.Lock()
		var steps time.Duration
		for k, d := range rec.total {
			steps += d
			kindMs[k] = append(kindMs[k], ms(d))
			kindN[k] = rec.count[k]
		}
		rec.mu.Unlock()
		overhead = append(overhead, ms(wall-steps))
		return err
	})
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	l.setMedian("plan.run_1w_ms", "ms", runs1, 1)
	l.setMedian("plan.overhead_ms", "ms", overhead[1:], 1) // [0] is the warm-up
	for _, k := range heax.StepKinds() {
		if xs := kindMs[k]; len(xs) > 1 {
			l.setMedian("plan.step."+k+".ms", "ms", xs[1:], 1)
		} else {
			l.set("plan.step."+k+".ms", "ms", 0, 0)
		}
		l.set("plan.step."+k+".n", "count", float64(kindN[k]), 1)
	}

	const batch = 8
	sets := make([]map[string]*heax.Ciphertext, batch)
	for i := range sets {
		sets[i] = map[string]*heax.Ciphertext{"x": tn.cts[i%len(tn.cts)]}
	}
	batches, err := measure(layerBudget, func() error {
		_, err := plan.RunBatch(sets)
		return err
	})
	if err != nil {
		return fmt.Errorf("run batch: %w", err)
	}
	l.set("plan.batch_sets_per_s", "1/s", batch/(median(batches)/1e3), len(batches))
	return nil
}

// measureCircuits times building the workload's circuit client-side and
// sizes its wire JSON.
func (l *layers) measureCircuits(w *workload, seed int64) error {
	var m *model
	builds, err := measure(layerBudget, func() (err error) {
		m, err = w.model(seed, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	l.setMedian("circuits.build_ms", "ms", builds, 1)
	js, err := m.circ.MarshalJSON()
	if err != nil {
		return err
	}
	l.set("circuits.json_kb", "KB", float64(len(js))/1024, 1)
	return nil
}

// measureCKKS times the evaluator operations and codecs through the
// public heax API at the top level of the workload's parameter set.
func (l *layers) measureCKKS(tn *tenant, steps []int) error {
	params, evk := tn.params, tn.evk
	ev := heax.NewEvaluator(params, evk)
	ct := tn.cts[0]
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}
	pt, err := tn.enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		return err
	}
	prod, err := ev.MulRelin(ct, ct)
	if err != nil {
		return err
	}
	rot, err := ev.RotateLeft(ct, steps[0])
	if err != nil {
		return err
	}
	rescaled, err := ev.Rescale(prod)
	if err != nil {
		return err
	}
	plainProd, err := ev.MulPlain(ct, pt)
	if err != nil {
		return err
	}
	hoisted := make([]*heax.Ciphertext, len(steps))
	for i := range hoisted {
		hoisted[i] = heax.CopyOf(ct)
	}
	var wire bytes.Buffer
	batch := map[string]*heax.Ciphertext{"x": ct}
	if err := heax.WriteCiphertextBatch(&wire, batch); err != nil {
		return err
	}
	encoded := bytes.Clone(wire.Bytes())

	ops := []struct {
		name string
		f    func() error
	}{
		{"ckks.MulRelinInto.ms", func() error { return ev.MulRelinInto(ct, ct, prod) }},
		{"ckks.RotateInto.ms", func() error { return ev.RotateInto(ct, steps[0], rot) }},
		{"ckks.RotateHoistedInto.ms", func() error { return ev.RotateHoistedInto(ct, steps, hoisted) }},
		{"ckks.RescaleInto.ms", func() error { return ev.RescaleInto(prod, rescaled) }},
		{"ckks.MulPlainInto.ms", func() error { return ev.MulPlainInto(ct, pt, plainProd) }},
		{"ckks.KeySwitchPoly.ms", func() error { ev.KeySwitchPoly(ct.Polys[1], &evk.Relin.SwitchingKey); return nil }},
		{"ckks.EncodeReal.ms", func() error {
			_, err := tn.enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
			return err
		}},
		{"ckks.Decrypt.ms", func() error { _, err := tn.dec.Decrypt(ct); return err }},
		{"ckks.WriteCiphertextBatch.ms", func() error {
			wire.Reset()
			return heax.WriteCiphertextBatch(&wire, batch)
		}},
		{"ckks.ReadCiphertextBatch.ms", func() error {
			_, err := heax.ReadCiphertextBatch(bytes.NewReader(encoded), params)
			return err
		}},
	}
	for _, op := range ops {
		xs, err := measure(layerBudget, op.f)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		l.setMedian(op.name, "ms", xs, 1)
	}
	// The encryptor the tenant encrypted its inputs with is not kept
	// (its sampler is stateful), so time a fresh public-key encryptor.
	enc := heax.NewEncryptor(params, tn.pk, 7)
	xs, err := measure(layerBudget, func() error { _, err := enc.Encrypt(pt); return err })
	if err != nil {
		return fmt.Errorf("encrypt: %w", err)
	}
	l.setMedian("ckks.Encrypt.ms", "ms", xs, 1)

	a, err := allocsPerCall(20, func() error { return ev.MulRelinInto(ct, ct, prod) })
	if err != nil {
		return err
	}
	l.set("ckks.MulRelinInto.allocs", "count", a, 20)
	if a, err = allocsPerCall(20, func() error { return ev.RotateInto(ct, steps[0], rot) }); err != nil {
		return err
	}
	l.set("ckks.RotateInto.allocs", "count", a, 20)
	return nil
}

// measureKeySwitch replays one top-level KeySwitchPoly (Algorithm 7) at
// one worker through public ntt/ring calls, stage by stage: the digit
// INTTs, the (level+1)(level+2) convert+MAC tiles (the diagonal tiles
// reuse the NTT-form input), and the floor. The replay's result must be
// bit-identical to KeySwitchPoly's.
func (l *layers) measureKeySwitch(tn *tenant) (bool, error) {
	params, evk := tn.params, tn.evk
	ctx := params.RingQP
	c := tn.cts[0].Polys[1]
	level := c.Level()
	swk := &evk.Relin.SwitchingKey
	rowIdx := make([]int, level+2)
	for i := 0; i <= level; i++ {
		rowIdx[i] = i
	}
	rowIdx[level+1] = params.SpecialRow()
	shoup := make([][2]*ring.Poly, level+1)
	for i := range shoup {
		shoup[i] = [2]*ring.Poly{ctx.ShoupPoly(swk.Digits[i][0]), ctx.ShoupPoly(swk.Digits[i][1])}
	}
	intt := ctx.NewPoly(level + 1)
	acc0, acc1 := ctx.NewPoly(level+2), ctx.NewPoly(level+2)
	conv := make([]uint64, ctx.N)

	var stINTT, stTiles, stFloor, whole []float64
	var out0, out1 *ring.Poly
	one := heax.NewEvaluator(params, evk, heax.WithWorkers(1))
	replay := func() error {
		for _, acc := range []*ring.Poly{acc0, acc1} {
			for _, row := range acc.Coeffs {
				clear(row)
			}
		}
		t0 := time.Now()
		for i := 0; i <= level; i++ {
			copy(intt.Coeffs[i], c.Coeffs[i])
			ctx.Tables[i].Inverse(intt.Coeffs[i])
		}
		t1 := time.Now()
		for i := 0; i <= level; i++ {
			d0, d1 := swk.Digits[i][0], swk.Digits[i][1]
			s0, s1 := shoup[i][0], shoup[i][1]
			for jj := 0; jj <= level+1; jj++ {
				b := rowIdx[jj]
				src := c.Coeffs[i]
				if b != i {
					m := ctx.Basis.Mods[b]
					for t, v := range intt.Coeffs[i] {
						conv[t] = m.Reduce(v)
					}
					ctx.Tables[b].Forward(conv)
					src = conv
				}
				ctx.MulAddLazyRow2(src, d0.Coeffs[b], s0.Coeffs[b], acc0.Coeffs[jj],
					d1.Coeffs[b], s1.Coeffs[b], acc1.Coeffs[jj], b)
			}
		}
		t2 := time.Now()
		out0, out1 = ctx.FloorDropRowsPair(acc0, acc1, rowIdx, false, true)
		t3 := time.Now()
		stINTT = append(stINTT, ms(t1.Sub(t0)))
		stTiles = append(stTiles, ms(t2.Sub(t1)))
		stFloor = append(stFloor, ms(t3.Sub(t2)))
		return nil
	}
	if _, err := measure(layerBudget, replay); err != nil {
		return false, err
	}
	w0, w1 := one.KeySwitchPoly(c, swk)
	faithful := out0.Equal(w0) && out1.Equal(w1)
	xs, err := measure(layerBudget, func() error { one.KeySwitchPoly(c, swk); return nil })
	if err != nil {
		return false, err
	}
	whole = xs
	// Drop the warm-up sample measure recorded through the closure.
	stINTT, stTiles, stFloor = stINTT[1:], stTiles[1:], stFloor[1:]
	l.setMedian("ks.intt0.ms", "ms", stINTT, 1)
	l.setMedian("ks.tiles.ms", "ms", stTiles, 1)
	l.setMedian("ks.floor.ms", "ms", stFloor, 1)
	l.setMedian("ks.KeySwitchPoly_1w.ms", "ms", whole, 1)
	l.set("ks.residual.ms", "ms", median(whole)-median(stINTT)-median(stTiles)-median(stFloor), len(whole))

	// Reference: hwsim's share of module busy cycles per stage.
	if set, ok := coreSet(params); ok {
		if d, err := core.StandardDesign(core.BoardStratix10, set); err == nil {
			rep := hwsim.SimulateKeySwitchPipeline(hwsim.PipelineConfig{Arch: d.Arch, Set: set}, 16, false)
			var intt0, tiles, floor float64
			for name, u := range rep.Utilization {
				switch {
				case name == "INTT0":
					intt0 += u
				case len(name) >= 4 && (name[:4] == "NTT0" || name[:4] == "Dyad"):
					tiles += u
				default:
					floor += u
				}
			}
			total := intt0 + tiles + floor
			l.ref["ks.intt0.hwsim_busy_share"] = intt0 / total
			l.ref["ks.tiles.hwsim_busy_share"] = tiles / total
			l.ref["ks.floor.hwsim_busy_share"] = floor / total
		}
	}
	return faithful, nil
}

// measureKernels times single-residue NTT, INTT and dyadic products
// (Table 7's shapes) and a ciphertext-pair automorphism at the
// workload's N.
func (l *layers) measureKernels(tn *tenant, step int) error {
	params := tn.params
	ctx := params.RingQP
	tb := ctx.Tables[0]
	rng := rand.New(rand.NewSource(3))
	src := make([]uint64, ctx.N)
	for i := range src {
		src[i] = rng.Uint64() % tb.Mod.P
	}
	row := make([]uint64, ctx.N)
	timeRow := func(f func([]uint64)) ([]float64, error) {
		var xs []float64
		_, err := measure(layerBudget/2, func() error {
			copy(row, src)
			t := time.Now()
			f(row)
			xs = append(xs, float64(time.Since(t))/float64(time.Microsecond))
			return nil
		})
		return xs[1:], err
	}
	fwd, err := timeRow(tb.Forward)
	if err != nil {
		return err
	}
	l.setMedian("ntt.Forward.us", "us", fwd, 1)
	inv, err := timeRow(tb.Inverse)
	if err != nil {
		return err
	}
	l.setMedian("ntt.Inverse.us", "us", inv, 1)

	a, b, out := ctx.NewPoly(1), ctx.NewPoly(1), ctx.NewPoly(1)
	copy(a.Coeffs[0], src)
	for i := range b.Coeffs[0] {
		b.Coeffs[0][i] = rng.Uint64() % tb.Mod.P
	}
	bShoup := ctx.ShoupPoly(b)
	dy, err := measure(layerBudget/2, func() error { ctx.MulCoeffsLazy(a, b, bShoup, out); return nil })
	if err != nil {
		return err
	}
	l.setMedian("ring.MulCoeffsLazy.us", "us", dy, 1e3)

	ct := tn.cts[0]
	rows := ct.Polys[0].Rows()
	o0, o1 := ctx.NewPoly(rows), ctx.NewPoly(rows)
	table := ctx.AutomorphismNTTTable(ring.GaloisElement(step, ctx.N))
	au, err := measure(layerBudget/2, func() error {
		ctx.AutomorphismNTTPair(ct.Polys[0], ct.Polys[1], table, o0, o1)
		return nil
	})
	if err != nil {
		return err
	}
	l.setMedian("ring.AutomorphismNTTPair.us", "us", au, 1e3)
	return nil
}

// reference fills the computed columns beside the kernel and ckks
// metrics: the paper's Table 7/8 CPU ops/s, the core.Perf model's HEAX
// ops/s, and operations and bytes per call from the shapes.
func (l *layers) reference(params *heax.Params) {
	n := float64(params.N)
	logn := float64(bits.Len(uint(params.N)) - 1)
	rows := float64(params.MaxLevel() + 1)
	// Butterflies (one modular multiply each) per single-residue
	// transform, and its data: the row read and written plus the
	// twiddle and Shoup tables read once.
	l.ref["ntt.Forward.ops_per_call"] = n / 2 * logn
	l.ref["ntt.Forward.bytes_per_call"] = 4 * 8 * n
	l.ref["ntt.Inverse.ops_per_call"] = n / 2 * logn
	l.ref["ntt.Inverse.bytes_per_call"] = 4 * 8 * n
	// Dyadic: n modular multiplies; reads a, b and b's Shoup table,
	// writes out.
	l.ref["ring.MulCoeffsLazy.ops_per_call"] = n
	l.ref["ring.MulCoeffsLazy.bytes_per_call"] = 4 * 8 * n
	// Automorphism: a gather of both ciphertext components, no
	// arithmetic; reads the pair and the table, writes the pair.
	l.ref["ring.AutomorphismNTTPair.ops_per_call"] = 0
	l.ref["ring.AutomorphismNTTPair.bytes_per_call"] = 8*(4*rows*n) + 8*n
	// Key switch at the top level: L+1 INTTs, (L+1)² base-conversion
	// NTTs and the floor's 2 INTTs + 2(L+1) NTTs, in butterflies; plus
	// 2(L+1)(L+2)n MAC multiplies. Bytes: every key digit row read once
	// with its Shoup table.
	ntts := rows + rows*rows + 2 + 2*rows
	l.ref["ckks.KeySwitchPoly.ops_per_call"] = ntts*n/2*logn + 2*rows*(rows+1)*n
	l.ref["ckks.KeySwitchPoly.bytes_per_call"] = 8 * n * rows * 2 * (rows + 1) * 2

	set, ok := coreSet(params)
	if !ok {
		return
	}
	for _, r := range core.PaperLowLevel {
		if r.Board == core.BoardStratix10.Name && r.Set == set.Name {
			l.ref["ntt.Forward.paper_cpu_ops_s"] = r.NTTCPU
			l.ref["ntt.Forward.paper_heax_ops_s"] = r.NTTHEAX
			l.ref["ntt.Inverse.paper_cpu_ops_s"] = r.INTTCPU
			l.ref["ntt.Inverse.paper_heax_ops_s"] = r.INTTHEAX
			l.ref["ring.MulCoeffsLazy.paper_cpu_ops_s"] = r.DyadicCPU
			l.ref["ring.MulCoeffsLazy.paper_heax_ops_s"] = r.DyadicHEAX
		}
	}
	for _, r := range core.PaperHighLevel {
		if r.Board == core.BoardStratix10.Name && r.Set == set.Name {
			l.ref["ckks.KeySwitchPoly.paper_cpu_ops_s"] = r.KeySwitchCPU
			l.ref["ckks.KeySwitchPoly.paper_heax_ops_s"] = r.KeySwitchHEAX
			l.ref["ckks.MulRelinInto.paper_cpu_ops_s"] = r.MulRelinCPU
			l.ref["ckks.MulRelinInto.paper_heax_ops_s"] = r.MulRelinHEAX
		}
	}
	if d, err := core.StandardDesign(core.BoardStratix10, set); err == nil {
		perf := core.Perf{Design: d}
		l.ref["ntt.Forward.model_heax_ops_s"] = perf.NTTOps()
		l.ref["ntt.Inverse.model_heax_ops_s"] = perf.INTTOps()
		l.ref["ring.MulCoeffsLazy.model_heax_ops_s"] = perf.DyadicOps()
		l.ref["ckks.KeySwitchPoly.model_heax_ops_s"] = perf.KeySwitchOps()
		l.ref["ckks.MulRelinInto.model_heax_ops_s"] = perf.MulRelinOps()
	}
	// Measured rates beside the computed ones.
	for _, k := range []struct{ metric, key string }{
		{"ntt.Forward.us", "ntt.Forward"}, {"ntt.Inverse.us", "ntt.Inverse"},
		{"ring.MulCoeffsLazy.us", "ring.MulCoeffsLazy"},
	} {
		if v, ok := l.m[k.metric]; ok && v.Value > 0 {
			l.ref[k.key+".measured_ops_s"] = 1e6 / v.Value
		}
	}
	for _, k := range []string{"ckks.KeySwitchPoly", "ckks.MulRelinInto"} {
		if v, ok := l.m[k+".ms"]; ok && v.Value > 0 {
			l.ref[k+".measured_ops_s"] = 1e3 / v.Value
		}
	}
}

func coreSet(params *heax.Params) (core.ParamSet, bool) {
	for _, s := range core.ParamSets {
		if s.LogN == params.LogN && s.K == params.K() {
			return s, true
		}
	}
	return core.ParamSet{}, false
}

// calibrate times the strict (frozen) forward NTT on Set-C's first
// prime, in microseconds: a runner-drift reference recorded in every
// run.
func calibrate() (float64, int, error) {
	p, err := heax.NewParams(heax.SetC)
	if err != nil {
		return 0, 0, err
	}
	tb, err := ntt.NewTables(p.Q[0], p.N)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(5))
	src := make([]uint64, p.N)
	for i := range src {
		src[i] = rng.Uint64() % p.Q[0]
	}
	row := make([]uint64, p.N)
	var xs []float64
	for i := 0; i < 201; i++ {
		copy(row, src)
		t := time.Now()
		tb.ForwardStrict(row)
		if i > 0 {
			xs = append(xs, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	return median(xs), len(xs), nil
}

// printReference lists the computed columns, labelled as such.
func printReference(ref map[string]float64) {
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("reference columns (computed from the paper, the cycle model and kernel shapes; not measured, except *.measured_ops_s):")
	for _, k := range keys {
		fmt.Printf("  %-44s %14.6g\n", k, ref[k])
	}
}
