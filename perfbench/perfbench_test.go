package main

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"heax"
	"heax/serve"
)

func TestPercentileWithSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0, 1, 9},
		{0.5, 5.5, 5},
		{0.9, 9.1, 1},
		{1, 10, 0},
	} {
		got, beyond := percentile(xs, c.q)
		if math.Abs(got-c.want) > 1e-12 || beyond != c.beyond {
			t.Errorf("percentile(q=%v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
	if v, n := percentile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile of no samples = %v, %d; want NaN, 0", v, n)
	}
}

// Spreads are defined with Python's statistics.quantiles(xs, n=4); the
// expected values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	const rate = 10
	window := 20 * time.Second
	a := schedule(7, 0, rate, window)
	b := schedule(7, 0, rate, window)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("send %d: %v vs %v for the same seed", i, a[i], b[i])
		}
	}
	if other := schedule(8, 0, rate, window); len(other) > 0 && other[0] == a[0] {
		t.Errorf("seeds 7 and 8 gave the same first send time")
	}
	if other := schedule(7, 1, rate, window); len(other) > 0 && other[0] == a[0] {
		t.Errorf("tenants 0 and 1 gave the same first send time")
	}
	period := time.Second / rate
	for i := 1; i < len(a); i++ {
		if gap := a[i] - a[i-1]; gap < period/2 || gap > 3*period/2 {
			t.Errorf("gap %d is %v, outside [%v, %v]", i, gap, period/2, 3*period/2)
		}
	}
	if got := float64(len(a)) / window.Seconds(); math.Abs(got-rate) > 0.1*rate {
		t.Errorf("offered rate %.2f/s, want %d/s within 10%%", got, rate)
	}
}

func circuitJSON(t *testing.T, w *workload, seed int64, tenant, k int) []byte {
	t.Helper()
	m, err := w.model(seed, tenant, k)
	if err != nil {
		t.Fatal(err)
	}
	js, err := m.circ.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

func TestWorkloadCircuitsDeterministic(t *testing.T) {
	for name, w := range workloads {
		a, b := circuitJSON(t, w, 3, 0, 1), circuitJSON(t, w, 3, 0, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed built different circuit JSON", name)
		}
		if bytes.Equal(a, circuitJSON(t, w, 4, 0, 1)) {
			t.Errorf("%s: seeds 3 and 4 built the same circuit", name)
		}
		x1 := w.input(rngFor(3, "input", 0, 0), 1<<(w.set.LogN-1))
		x2 := w.input(rngFor(3, "input", 0, 0), 1<<(w.set.LogN-1))
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("%s: the same seed drew different inputs", name)
			}
		}
	}
	churn := workloads["churn-a"]
	if bytes.Equal(circuitJSON(t, churn, 3, 0, 1), circuitJSON(t, churn, 3, 0, 2)) {
		t.Errorf("churn-a: requests 1 and 2 built the same matrix")
	}
}

// The daemon keys its plan cache on the circuit JSON, so the same seed
// must reach the same plan id and another seed a different one.
func TestWorkloadPlanIDDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles on an in-process server")
	}
	params, err := heax.NewParams(heax.SetA)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(params)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	cl, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	w := workloads["matvec-a"]
	m, err := w.model(3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := m.circ.RequiredRotations(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	if err := cl.Register("t", heax.GenEvaluationKeys(kg, sk, steps, false)); err != nil {
		t.Fatal(err)
	}
	id := func(seed int64, k int) serve.PlanID {
		m, err := w.model(seed, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		info, err := cl.Compile("t", m.circ)
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	if a, b := id(3, 0), id(3, 0); a != b {
		t.Errorf("the same seed compiled to plan ids %v and %v", a, b)
	}
	if id(3, 0) == id(4, 0) {
		t.Errorf("seeds 3 and 4 compiled to the same plan id")
	}
}

func testSpec() *benchSpec {
	return &benchSpec{
		EndToEnd: []metricSpec{{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "plan.run_ms", Unit: "ms", Better: "lower"}},
	}
}

func TestReadRecordsValidation(t *testing.T) {
	spec := testSpec()
	good := `{"workload":"lr-c","trace":false,"metrics":{"req_p50_ms":{"value":1,"unit":"ms","n":3}}}`
	if recs, err := readRecords(strings.NewReader(good+"\n"+good+"\n"), spec); err != nil || len(recs) != 2 {
		t.Fatalf("valid file: %d records, %v", len(recs), err)
	}
	for name, text := range map[string]string{
		// A literal backslash-n between two fields, as a hand-edited
		// result file once carried: not JSON.
		"literal newline escape": `{"workload":"lr-c",\n "metrics":{"req_p50_ms":{"value":1,"unit":"ms"}}}`,
		"missing metric":         `{"workload":"lr-c","trace":false,"metrics":{"req_p90_ms":{"value":1,"unit":"ms"}}}`,
		"missing per-layer":      `{"workload":"lr-c","trace":true,"metrics":{"req_p50_ms":{"value":1,"unit":"ms"}}}`,
		"unknown field":          `{"workload":"lr-c","extra":1,"metrics":{"req_p50_ms":{"value":1,"unit":"ms"}}}`,
		"no workload":            `{"metrics":{"req_p50_ms":{"value":1,"unit":"ms"}}}`,
		"empty":                  ``,
	} {
		if _, err := readRecords(strings.NewReader(text), spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	_, err := readRecords(strings.NewReader(`{"workload":"lr-c","metrics":{}}`), spec)
	if err == nil || !strings.Contains(err.Error(), "req_p50_ms") {
		t.Errorf("missing metric error does not name it: %v", err)
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "req_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		cur  []float64
		want string
	}{
		{scaled(1), "same"},
		{scaled(1.2), "worse"},
		{scaled(0.8), "better"},
		{[]float64{50, 150, 60, 140, 100, 100, 70, 130, 80, 120}, "unresolved"},
	} {
		if got := verdict(m, base, c.cur); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.cur[:3], got, c.want)
		}
	}
	higher := metricSpec{Name: "sets_per_s", Better: "higher", Bound: 0.1}
	if got := verdict(higher, base, scaled(1.2)); got != "better" {
		t.Errorf("higher-is-better verdict = %s, want better", got)
	}
}

func TestSummaryLineKeys(t *testing.T) {
	spec := testSpec()
	r := &record{Correct: true, Attempted: 3, Metrics: map[string]metricValue{
		"req_p50_ms": {Value: 1.5, Unit: "ms", N: 3},
		"extra":      {Value: 2, Unit: "ms", N: 1},
	}}
	line, err := r.summaryLine(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"req_p50_ms":{"value":1.5,"unit":"ms"}}}`
	if string(line) != want {
		t.Errorf("summary line\n got %s\nwant %s", line, want)
	}
	delete(r.Metrics, "req_p50_ms")
	if _, err := r.summaryLine(spec); err == nil {
		t.Errorf("summary line without a named metric was accepted")
	}
}

// A plan's run histogram disappears when the daemon evicts the plan;
// the tracker must keep what it last saw.
func TestRunTrackerSurvivesEviction(t *testing.T) {
	scrape := func(text string) series {
		s, err := parseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tr := newRunTracker()
	tr.observe(scrape(`# TYPE heax_serve_run_seconds histogram
heax_serve_run_seconds_sum{tenant="t0",plan="aa"} 0.5
heax_serve_run_seconds_count{tenant="t0",plan="aa"} 2
heax_serve_plan_cache_misses_total 1
`))
	tr.observe(scrape(`heax_serve_run_seconds_sum{tenant="t0",plan="bb"} 0.25
heax_serve_run_seconds_count{tenant="t0",plan="bb"} 1
heax_serve_plan_cache_misses_total 2
`))
	if sum, count := tr.totals(); sum != 0.75 || count != 3 {
		t.Errorf("totals = %v, %v; want 0.75, 3", sum, count)
	}
	s := scrape("a{x=\"1\"} 2\na{x=\"2\"} 3\nab 10\n")
	if got := s.family("a"); got != 5 {
		t.Errorf("family(a) = %v, want 5", got)
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%s names %d workloads, the benchmark has %d", specFile, len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("%s names workload %q the benchmark lacks", specFile, w.Name)
		}
	}
	for _, k := range heax.StepKinds() {
		found := false
		for _, m := range spec.PerLayer {
			found = found || m.Name == "plan.step."+k+".ms"
		}
		if !found {
			t.Errorf("%s lacks plan.step.%s.ms", specFile, k)
		}
	}
}
