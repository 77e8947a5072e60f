package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"heax"
	"heax/serve"
)

// tenant is one client of the daemon: its own connection, keys,
// compiled plan and pre-encrypted inputs.
type tenant struct {
	idx    int
	name   string
	cl     *serve.Client
	params *heax.Params
	evk    *heax.EvaluationKeySet
	pk     *heax.PublicKey
	enc    *heax.Encoder
	dec    *heax.Decryptor
	model  *model
	plan   serve.PlanID
	xs     [][]float64
	cts    []*heax.Ciphertext

	// The first verified output of the timed window, kept for the
	// in-process oracle check after it.
	oracle *oracleSample
}

type oracleSample struct {
	model *model
	in    *heax.Ciphertext
	out   *heax.Ciphertext
}

// session is a daemon with its tenants registered and plans compiled.
type session struct {
	w       *workload
	seed    int64
	d       *daemon
	tenants []*tenant

	setup      time.Duration // daemon start to first verified request
	registerMs []float64
	compileMs  []float64
	keygen     time.Duration
	encrypt    time.Duration
}

// outcome tallies checked requests. Failures are counted by name.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  map[string]int
	worst     float64   // largest CKKS error (vs the circuit's cleartext) over checked slots
	checked   int       // slots checked
	bits      []float64 // per output: −log2 of its largest slot CKKS error
}

func (o *outcome) fail(kind string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.failures == nil {
		o.failures = make(map[string]int)
	}
	o.failures[kind]++
	o.failed++
}

// openSession starts a daemon and brings one workload up on it: keys,
// registration, compile, pre-encryption and one verified request.
func openSession(bin string, w *workload, seed int64, traced bool) (*session, error) {
	d, err := startDaemon(bin, w.paramFlag, traced, w.extraArgs)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, seed: seed, d: d}
	if err := s.bringUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) bringUp() error {
	for t := 0; t < s.w.tenants; t++ {
		tn, err := s.addTenant(t)
		if err != nil {
			return fmt.Errorf("tenant %d: %w", t, err)
		}
		s.tenants = append(s.tenants, tn)
	}
	var o outcome
	if _, err := s.request(s.tenants[0], 0, &o, false, nil); err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if o.failed > 0 {
		return fmt.Errorf("first request failed its check: %v", o.failures)
	}
	s.setup = time.Since(s.d.started)
	return nil
}

func (s *session) addTenant(t int) (*tenant, error) {
	cl, err := serve.Dial(s.d.addr, serve.WithCallTimeout(60*time.Second))
	if err != nil {
		return nil, err
	}
	tn := &tenant{idx: t, name: fmt.Sprintf("t%d", t), cl: cl, params: cl.Params()}
	if tn.model, err = s.w.model(s.seed, t, 0); err != nil {
		return tn, err
	}
	steps, err := tn.model.circ.RequiredRotations(tn.params)
	if err != nil {
		return tn, err
	}
	// Keys are a client's long-lived material, fixed per tenant; the
	// seed draws everything the daemon computes on. (Key noise moves
	// precision by about a bit from key to key, which would drown a
	// precision regression in seed-to-seed spread.)
	start := time.Now()
	kg := heax.NewKeyGenerator(tn.params, int64(1+t))
	sk := kg.GenSecretKey()
	tn.pk = kg.GenPublicKey(sk)
	tn.evk = heax.GenEvaluationKeys(kg, sk, steps, false)
	s.keygen += time.Since(start)
	tn.enc = heax.NewEncoder(tn.params)
	tn.dec = heax.NewDecryptor(tn.params, sk)

	start = time.Now()
	if err := cl.Register(tn.name, tn.evk); err != nil {
		return tn, fmt.Errorf("register: %w", err)
	}
	s.registerMs = append(s.registerMs, ms(time.Since(start)))
	start = time.Now()
	info, err := cl.Compile(tn.name, tn.model.circ)
	if err != nil {
		return tn, fmt.Errorf("compile: %w", err)
	}
	s.compileMs = append(s.compileMs, ms(time.Since(start)))
	tn.plan = info.ID

	start = time.Now()
	encryptor := heax.NewEncryptor(tn.params, tn.pk, s.seed*16+int64(t)+8)
	for j := 0; j < s.w.pool; j++ {
		x := s.w.input(rngFor(s.seed, "input", t, j), tn.params.Slots())
		ct, err := encryptSlots(tn, encryptor, tn.model, x)
		if err != nil {
			return tn, err
		}
		tn.xs = append(tn.xs, x)
		tn.cts = append(tn.cts, ct)
	}
	s.encrypt += time.Since(start)
	return tn, nil
}

func encryptSlots(tn *tenant, encryptor *heax.Encryptor, m *model, x []float64) (*heax.Ciphertext, error) {
	slots, err := m.pack(x, tn.params.Slots())
	if err != nil {
		return nil, err
	}
	pt, err := tn.enc.EncodeReal(slots, tn.params.MaxLevel(), tn.params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return encryptor.Encrypt(pt)
}

func (s *session) close() {
	for _, tn := range s.tenants {
		tn.cl.Close()
	}
	if err := s.d.stop(); err != nil {
		fmt.Printf("warning: %v\n", err)
	}
}

// reqTiming is what one request cost, as the client saw it.
type reqTiming struct {
	latency time.Duration // Compile (churn) + Run round trip
	compile time.Duration // churn only
	sets    int
}

// request sends tenant's request number k and checks every output.
// The returned error is a transport or server error (counted by the
// caller); a wrong output is counted in o. Churn requests compile a
// fresh circuit first; its client-side construction is not timed.
// Requests of the timed window (inWindow) keep the tenant's first
// verified output for the oracle check, and call afterRun, if set, as
// soon as the response is in.
func (s *session) request(tn *tenant, k int, o *outcome, inWindow bool, afterRun func()) (reqTiming, error) {
	m := tn.model
	if s.w.churn && k > 0 {
		var err error
		if m, err = s.w.model(s.seed, tn.idx, k); err != nil {
			return reqTiming{}, err
		}
	}
	idx := make([]int, s.w.setsPer)
	batches := make([]map[string]*heax.Ciphertext, s.w.setsPer)
	for i := range idx {
		idx[i] = (k*s.w.setsPer + i) % len(tn.cts)
		batches[i] = map[string]*heax.Ciphertext{"x": tn.cts[idx[i]]}
	}
	var rt reqTiming
	start := time.Now()
	plan := tn.plan
	if s.w.churn && k > 0 {
		info, err := tn.cl.Compile(tn.name, m.circ)
		if err != nil {
			return rt, fmt.Errorf("compile: %w", err)
		}
		rt.compile = time.Since(start)
		plan = info.ID
	}
	got, err := tn.cl.Run(tn.name, plan, batches)
	rt.latency = time.Since(start)
	if err != nil {
		return rt, fmt.Errorf("run: %w", err)
	}
	if afterRun != nil {
		afterRun()
	}
	rt.sets = len(got)
	if len(got) != len(batches) {
		o.fail("missing outputs")
	}
	for i, out := range got {
		ct := out["y"]
		exact, target, n, err := s.check(tn, m, tn.xs[idx[i]], ct)
		o.mu.Lock()
		o.checked += n
		if err == nil {
			o.worst = math.Max(o.worst, exact)
			o.bits = append(o.bits, -math.Log2(exact))
		}
		o.mu.Unlock()
		switch {
		case err != nil:
			o.fail("undecryptable output")
		case !(target <= s.w.bound):
			o.fail("output off cleartext")
		case tn.oracle == nil && inWindow:
			tn.oracle = &oracleSample{model: m, in: tn.cts[idx[i]], out: ct}
		}
	}
	return rt, nil
}

func (s *session) check(tn *tenant, m *model, x []float64, ct *heax.Ciphertext) (exact, target float64, n int, err error) {
	if ct == nil {
		return 0, 0, 0, fmt.Errorf("missing output")
	}
	pt, err := tn.dec.Decrypt(ct)
	if err != nil {
		return 0, 0, 0, err
	}
	exact, target, n = m.check(x, tn.enc.Decode(pt))
	return exact, target, n, nil
}

// window is the outcome of one timed window.
type window struct {
	latMs     []float64 // per request, from send (closed loop) or due time (open loop)
	lateMs    []float64 // open loop: how late each request left its schedule
	compileMs []float64 // churn: the Compile part of each request
	sets      int
	wall      time.Duration
	cpu       float64 // daemon CPU seconds spent in the window
	rssMB     float64 // daemon VmHWM at the end of the window
	o         outcome
	// Traced windows only: the daemon's run histogram over the window.
	runSec, runCount float64
	scrape           series // last scrape
}

// runWindow drives the workload for dur and waits for every request
// sent to finish. Closed-loop tenants send their next request once the
// previous one is checked; open-loop tenants send on their schedule.
func (s *session) runWindow(dur time.Duration, traced bool) (*window, error) {
	w := &window{}
	var track *runTracker
	httpc := &http.Client{Timeout: 10 * time.Second}
	scrape := func() error {
		ser, err := s.d.scrape(httpc)
		if err != nil {
			return err
		}
		track.observe(ser)
		w.scrape = ser
		return nil
	}
	var scrapeErr error
	var scrapeMu sync.Mutex
	var afterRun func()
	if traced {
		track = newRunTracker()
		if err := scrape(); err != nil {
			return nil, err
		}
		if s.w.churn {
			// A churned plan's run histogram goes with the plan when the
			// next compile evicts it, so read it right after its run.
			afterRun = func() {
				scrapeMu.Lock()
				defer scrapeMu.Unlock()
				if err := scrape(); err != nil && scrapeErr == nil {
					scrapeErr = err
				}
			}
		}
	}
	sum0, cnt0 := track.totals()
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	record := func(lat, late time.Duration, rt reqTiming) {
		mu.Lock()
		defer mu.Unlock()
		w.latMs = append(w.latMs, ms(lat))
		if s.w.rate > 0 {
			w.lateMs = append(w.lateMs, ms(late))
		}
		if s.w.churn {
			w.compileMs = append(w.compileMs, ms(rt.compile))
		}
		w.sets += rt.sets
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, tn := range s.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := func(k int, due time.Time) {
				w.o.mu.Lock()
				w.o.attempted++
				w.o.mu.Unlock()
				sent := time.Now()
				rt, err := s.request(tn, k, &w.o, true, afterRun)
				if err != nil {
					w.o.fail(failureKind(err))
					return
				}
				record(sent.Sub(due)+rt.latency, sent.Sub(due), rt)
			}
			if s.w.rate > 0 {
				for k, at := range schedule(s.seed, tn.idx, s.w.rate, dur) {
					due := start.Add(at)
					time.Sleep(time.Until(due))
					send(k+1, due)
				}
				return
			}
			for k := 1; time.Now().Before(deadline); k++ {
				send(k, time.Now())
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	if w.rssMB, err = s.d.peakRSSMB(); err != nil {
		return nil, err
	}
	if traced {
		if err := errors.Join(scrapeErr, scrape()); err != nil {
			return nil, err
		}
		sum1, cnt1 := track.totals()
		w.runSec, w.runCount = sum1-sum0, cnt1-cnt0
	}
	return w, nil
}

// failureKind names a request error for the failure tally.
func failureKind(err error) string {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return "refused: overloaded"
	case errors.Is(err, serve.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return "refused: deadline"
	case strings.HasPrefix(err.Error(), "compile"):
		return "compile error"
	default:
		return "run error"
	}
}

// runTracker accumulates heax_serve_run_seconds across scrapes. The
// daemon drops a plan's series when it evicts the plan, so the last
// value seen for each series is kept.
type runTracker struct {
	sum, count map[string]float64
}

func newRunTracker() *runTracker {
	return &runTracker{sum: map[string]float64{}, count: map[string]float64{}}
}

func (r *runTracker) observe(s series) {
	for k, v := range s {
		switch {
		case strings.HasPrefix(k, "heax_serve_run_seconds_sum{"):
			r.sum[k] = v
		case strings.HasPrefix(k, "heax_serve_run_seconds_count{"):
			r.count[k] = v
		}
	}
}

func (r *runTracker) totals() (sum, count float64) {
	if r == nil {
		return 0, 0
	}
	for _, v := range r.sum {
		sum += v
	}
	for _, v := range r.count {
		count += v
	}
	return sum, count
}

// checkOracle compares each tenant's first verified wire output with an
// in-process Plan.RunBatch on the same keys and input: they must be
// bit-identical.
func (s *session) checkOracle(o *outcome) error {
	for _, tn := range s.tenants {
		if tn.oracle == nil {
			o.fail(fmt.Sprintf("no verified output from tenant %s for the oracle", tn.name))
			continue
		}
		plan, err := tn.oracle.model.circ.Compile(tn.params, tn.evk)
		if err != nil {
			return fmt.Errorf("oracle compile: %w", err)
		}
		want, err := plan.RunBatch([]map[string]*heax.Ciphertext{{"x": tn.oracle.in}})
		if err != nil {
			return fmt.Errorf("oracle run: %w", err)
		}
		if !ctEqual(tn.oracle.out, want[0]["y"]) {
			o.fail(fmt.Sprintf("tenant %s: wire output differs from the in-process oracle", tn.name))
		}
	}
	return nil
}

func ctEqual(a, b *heax.Ciphertext) bool {
	if a == nil || b == nil || a.Scale != b.Scale || a.Level != b.Level || len(a.Polys) != len(b.Polys) {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
