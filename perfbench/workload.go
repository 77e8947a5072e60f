package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"heax"
	"heax/circuits"
)

// workload is one traffic mix against one daemon configuration. The
// seed is the only input; the daemon only ever sees what it generates.
type workload struct {
	name      string
	set       heax.ParamSpec
	paramFlag string   // heax-serve -params
	extraArgs []string // further heax-serve flags
	tenants   int      // one connection each
	setsPer   int      // input sets per Run
	pool      int      // pre-encrypted input sets per tenant
	// rate, when nonzero, makes the workload an open loop: each tenant
	// sends requests on a seeded schedule at this many requests per
	// second, whether or not earlier ones have returned.
	rate float64
	// churn makes every request Compile a circuit drawn fresh from the
	// seed before running it.
	churn bool
	// bound is the largest distance from the target function a checked
	// slot may show.
	bound float64
	// model builds tenant's circuit number k (k = 0 is the set-up
	// circuit).
	model func(seed int64, tenant, k int) (*model, error)
	// input draws one raw input set.
	input func(rng *rand.Rand, slots int) []float64
}

// model is one circuit with its cleartext semantics.
type model struct {
	circ *heax.Circuit
	// pack lays a raw input out in slots.
	pack func(x []float64, slots int) ([]float64, error)
	// check compares an output's checked slots with cleartext. exact is
	// the largest distance from what the circuit computes (its own
	// cleartext evaluation: CKKS error alone), target the largest
	// distance from the function the circuit stands for, which the
	// workload's bound applies to.
	check func(x []float64, got []complex128) (exact, target float64, checked int)
	built time.Duration // client-side circuit construction time
}

const (
	lrFeatures = 8
	lrDegree   = 7
	lrBias     = 0.25
	lrWeightL1 = 3.5
	// lrBound is examples/lrserve's documented bound: the degree-7
	// Chebyshev sigmoid's 3.1e-2 sup-norm error plus CKKS noise.
	lrBound = 3.2e-2

	matDim = 64
	// matBound is the matvec check: a 64-term dot product of values
	// below 1 at scale 2^30 lands within ~1e-5 of cleartext; 2^-10
	// leaves room without admitting a wrong answer.
	matBound = 1.0 / 1024
)

// matvecRate is matvec-a's offered load in requests per second per
// tenant: two tenants × 4 sets × 10/s = 80 input sets per second,
// about half of what a 2-core Xeon serves of this plan.
const matvecRate = 10

var workloads = map[string]*workload{
	"lr-c": {
		name: "lr-c", set: heax.SetC, paramFlag: "C",
		tenants: 1, setsPer: 1, pool: 8,
		bound: lrBound, model: lrModel, input: lrInput,
	},
	"matvec-a": {
		name: "matvec-a", set: heax.SetA, paramFlag: "A",
		tenants: 2, setsPer: 4, pool: 32, rate: matvecRate,
		bound: matBound, model: matvecModel, input: matvecInput,
	},
	"churn-a": {
		name: "churn-a", set: heax.SetA, paramFlag: "A",
		// One cached plan: every fresh compile evicts the last one.
		extraArgs: []string{"-cache", "1"},
		tenants:   1, setsPer: 1, pool: 32, churn: true,
		bound: matBound, model: matvecModel, input: matvecInput,
	},
}

// rngFor derives an independent stream for one use of the seed.
func rngFor(seed int64, purpose string, a, b int) *rand.Rand {
	h := uint64(seed)
	for _, c := range purpose {
		h = splitmix(h ^ uint64(c))
	}
	h = splitmix(h ^ uint64(a))
	h = splitmix(h ^ uint64(b))
	return rand.New(rand.NewSource(int64(h >> 1)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lrModel is examples/lrserve's pipeline: BatchedDot over 8 seeded
// weights, AddConst, then the degree-7 Chebyshev sigmoid. The weights
// are scaled to a fixed L1 norm, so every seed's scores stay inside the
// sigmoid's [-8, 8] interval (|score| ≤ 3.5·2 + 0.25) and spread over
// the same share of it.
func lrModel(seed int64, tenant, k int) (*model, error) {
	start := time.Now()
	rng := rngFor(seed, "lr-weights", tenant, k)
	w := make([]float64, lrFeatures)
	l1 := 0.0
	for i := range w {
		w[i] = rng.Float64() - 0.5
		l1 += math.Abs(w[i])
	}
	for i := range w {
		w[i] *= lrWeightL1 / l1
	}
	dot, err := circuits.BatchedDot(w)
	if err != nil {
		return nil, err
	}
	c := heax.NewCircuit()
	scores, err := dot.Apply(c, c.Input("x"))
	if err != nil {
		return nil, err
	}
	sigmoid := circuits.Sigmoid(lrDegree)
	p, err := sigmoid.Apply(c, c.AddConst(scores, lrBias))
	if err != nil {
		return nil, err
	}
	c.Output("y", p)
	return &model{
		circ: c,
		pack: func(x []float64, slots int) ([]float64, error) {
			if len(x) != slots {
				return nil, fmt.Errorf("lr input has %d values for %d slots", len(x), slots)
			}
			return x, nil
		},
		check: func(x []float64, got []complex128) (exact, target float64, n int) {
			for s := 0; s+lrFeatures <= len(x); s += lrFeatures {
				score := lrBias
				for j, v := range x[s : s+lrFeatures] {
					score += w[j] * v
				}
				exact = math.Max(exact, math.Abs(real(got[s])-sigmoid.Eval(score)))
				target = math.Max(target, math.Abs(real(got[s])-1/(1+math.Exp(-score))))
				n++
			}
			return exact, target, n
		},
		built: time.Since(start),
	}, nil
}

// lrInput packs one sample of 8 features in [-2, 2) per 8-slot block,
// filling the slots (Set-C: 1024 samples in 8192 slots).
func lrInput(rng *rand.Rand, slots int) []float64 {
	x := make([]float64, slots)
	for i := range x {
		x[i] = rng.Float64()*4 - 2
	}
	return x
}

// matvecModel is a dense 64×64 matrix in [-0.5, 0.5) drawn from the
// seed, as a BSGS linear transform (circuits.FromRealMatrix).
func matvecModel(seed int64, tenant, k int) (*model, error) {
	start := time.Now()
	rng := rngFor(seed, "matrix", tenant, k)
	m := make([][]float64, matDim)
	for i := range m {
		m[i] = make([]float64, matDim)
		for j := range m[i] {
			m[i][j] = rng.Float64() - 0.5
		}
	}
	lt, err := circuits.FromRealMatrix(m)
	if err != nil {
		return nil, err
	}
	c := heax.NewCircuit()
	y, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		return nil, err
	}
	c.Output("y", y)
	return &model{
		circ: c,
		pack: func(x []float64, slots int) ([]float64, error) {
			rep, err := circuits.ReplicateReal(x, matDim, slots)
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(rep))
			for i, v := range rep {
				out[i] = real(v)
			}
			return out, nil
		},
		check: func(x []float64, got []complex128) (float64, float64, int) {
			want := make([]float64, matDim)
			for i := range want {
				for j, v := range x {
					want[i] += m[i][j] * v
				}
			}
			worst := 0.0
			for i, g := range got {
				worst = math.Max(worst, math.Abs(real(g)-want[i%matDim]))
			}
			return worst, worst, len(got)
		},
		built: time.Since(start),
	}, nil
}

// matvecInput draws a 64-vector in [-1, 1).
func matvecInput(rng *rand.Rand, _ int) []float64 {
	x := make([]float64, matDim)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// schedule returns the send times, relative to the window start, of
// one open-loop tenant: a jittered period whose mean is 1/rate, with a
// seeded phase, so two tenants never lock step and no burst exceeds
// two requests in one mean interval.
func schedule(seed int64, tenant int, rate float64, window time.Duration) []time.Duration {
	rng := rngFor(seed, "schedule", tenant, 0)
	period := float64(time.Second) / rate
	var out []time.Duration
	for t := rng.Float64() * period; t < float64(window); t += period * (0.5 + rng.Float64()) {
		out = append(out, time.Duration(t))
	}
	return out
}
