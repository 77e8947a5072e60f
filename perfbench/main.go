// Command perfbench is the repository's benchmark of record. It builds
// cmd/heax-serve from source, starts it on loopback, drives one
// workload against it over the wire from pre-encrypted inputs, checks
// every output against cleartext and one per tenant against an
// in-process Plan.RunBatch oracle, and reports the end-to-end metrics
// BENCHMARK.json names (--trace 0) or the per-layer split (--trace 1).
//
// Run it from the repository root through the wrapper, which builds
// this program with its build cache under .bench_build:
//
//	bash perfbench/run.sh --workload lr-c --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload lr-c --seed 1 --trace 1 --out runs.jsonl
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//	bash perfbench/run.sh validate runs.jsonl
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. --out appends the full
// record (machine, sample counts, failures by name, reference columns)
// to a JSON Lines file that compare and validate read.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"heax"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareCmd(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "validate":
		err = validateCmd(os.Args[2:])
	default:
		err = runCmd(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.jsonl NEW.jsonl")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	old, err := readRecordFile(args[0], spec)
	if err != nil {
		return err
	}
	cur, err := readRecordFile(args[1], spec)
	if err != nil {
		return err
	}
	compare(os.Stdout, spec, old, cur)
	return nil
}

func validateCmd(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: perfbench validate FILE.jsonl...")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	for _, path := range args {
		recs, err := readRecordFile(path, spec)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d valid records\n", path, len(recs))
	}
	return nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed all inputs are drawn from")
	seconds := fs.Int("seconds", 0, "timed window in seconds (0: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	out := fs.String("out", "", "append the run's full record to this JSON Lines file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok || !spec.hasWorkload(*name) {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	mach, err := machine(*seed)
	if err != nil {
		return err
	}
	bin, err := buildDaemon()
	if err != nil {
		return err
	}
	fmt.Printf("machine: %s\n", mach)
	fmt.Printf("workload: %s (%d s window, trace %d)\n", w.name, *seconds, *trace)

	rec := &record{
		Workload: w.name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		Machine: mach, Metrics: map[string]metricValue{},
	}
	calib, n, err := calibrate()
	if err != nil {
		return err
	}
	rec.Metrics["calib.ntt_strict_us"] = metricValue{Value: calib, Unit: "us", N: n}

	dur := time.Duration(*seconds) * time.Second
	if rec.Trace {
		err = runTraced(rec, bin, w, *seed, dur)
	} else {
		err = runEndToEnd(rec, bin, w, *seed, dur)
	}
	if err != nil {
		return err
	}
	report(rec)
	line, err := rec.summaryLine(spec)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}

// setups is how many daemon set-ups an end-to-end run times; setup_s is
// their median, which one slow process start cannot move.
const setups = 3

// runEndToEnd times the set-ups, then drives the last one for the
// window with tracing off.
func runEndToEnd(rec *record, bin string, w *workload, seed int64, dur time.Duration) error {
	var setupS []float64
	var s *session
	for i := 0; i < setups; i++ {
		si, err := openSession(bin, w, seed, false)
		if err != nil {
			return err
		}
		setupS = append(setupS, si.setup.Seconds())
		if i < setups-1 {
			si.close()
		} else {
			s = si
		}
	}
	win, err := s.runWindow(dur, false)
	if err == nil {
		err = s.checkOracle(&win.o)
	}
	s.close()
	if err != nil {
		return err
	}
	fmt.Printf("set-up: keygen %.0f ms, register %.0f ms, compile %.0f ms, encrypt %d sets %.0f ms (last set-up)\n",
		ms(s.keygen), median(s.registerMs), median(s.compileMs), w.pool*w.tenants, ms(s.encrypt))
	endToEnd(rec, w, win)
	rec.Metrics["setup_s"] = metricValue{Value: median(setupS), Unit: "s", N: len(setupS)}
	return nil
}

// endToEnd turns a window into the end-to-end metrics and the outcome.
func endToEnd(rec *record, w *workload, win *window) {
	p50, _ := percentile(win.latMs, 0.5)
	p90, beyond := percentile(win.latMs, 0.9)
	n := len(win.latMs)
	sets := float64(max(win.sets, 1))
	m := rec.Metrics
	m["req_p50_ms"] = metricValue{p50, "ms", n}
	m["req_p90_ms"] = metricValue{p90, "ms", n}
	m["sets_per_s"] = metricValue{float64(win.sets) / win.wall.Seconds(), "1/s", win.sets}
	m["server_cpu_ms_per_set"] = metricValue{win.cpu * 1e3 / sets, "ms", win.sets}
	m["server_rss_peak_mb"] = metricValue{win.rssMB, "MB", 1}
	attempted := max(win.o.attempted, 1)
	failedFrac := float64(win.o.failed) / float64(attempted)
	m["failed_frac"] = metricValue{failedFrac, "frac", attempted}
	m["ok_frac"] = metricValue{1 - failedFrac, "frac", attempted}
	// Per output, the precision of its worst slot; the gated metric is
	// the median over outputs, beside the single worst slot of the run.
	m["precision_bits"] = metricValue{median(win.o.bits), "bits", len(win.o.bits)}
	m["precision_min_bits"] = metricValue{-math.Log2(win.o.worst), "bits", win.o.checked}
	if len(win.lateMs) > 0 {
		late50, _ := percentile(win.lateMs, 0.5)
		lateMax, _ := percentile(win.lateMs, 1)
		fmt.Printf("open loop: %d requests at %.3g/s per tenant; generator lateness p50 %.2f ms, max %.2f ms\n",
			len(win.lateMs), w.rate, late50, lateMax)
	}
	fmt.Printf("latency: %d requests, p90 has %d samples beyond it\n", n, beyond)
	rec.Attempted = win.o.attempted
	rec.Failed = win.o.failed
	rec.Failures = win.o.failures
	rec.Correct = win.o.failed == 0 && win.o.attempted > 0
}

// runTraced measures the per-layer split: half the window untraced and
// half traced (their ratio is the tracing cost), the daemon's own
// histograms over the traced half, then the in-process layers with the
// same keys, circuit and inputs.
func runTraced(rec *record, bin string, w *workload, seed int64, dur time.Duration) error {
	s0, err := openSession(bin, w, seed, false)
	if err != nil {
		return err
	}
	base, err := s0.runWindow(dur/2, false)
	s0.close()
	if err != nil {
		return err
	}
	s, err := openSession(bin, w, seed, true)
	if err != nil {
		return err
	}
	win, err := s.runWindow(dur/2, true)
	if err == nil {
		err = s.checkOracle(&win.o)
	}
	s.close()
	if err != nil {
		return err
	}
	o := &win.o
	o.attempted += base.o.attempted
	o.failed += base.o.failed
	for k, v := range base.o.failures {
		if o.failures == nil {
			o.failures = map[string]int{}
		}
		o.failures[k] += v
	}

	l := &layers{m: rec.Metrics, ref: map[string]float64{}}
	tn := s.tenants[0]
	steps, err := tn.model.circ.RequiredRotations(tn.params)
	if err != nil {
		return err
	}
	if len(steps) == 0 {
		return fmt.Errorf("workload %s needs no rotation keys to time rotations with", w.name)
	}

	// serve: the daemon's run histogram against what the client saw. A
	// request's sets run side by side up to the admission window
	// (GOMAXPROCS); a churn request's Compile is its own metric.
	runMs := 1e3 * win.runSec / math.Max(win.runCount, 1)
	parallel := float64(min(w.setsPer, runtime.GOMAXPROCS(0)))
	perReqRun := runMs * float64(w.setsPer) / parallel
	overhead := mean(win.latMs) - perReqRun
	if w.churn {
		overhead -= mean(win.compileMs)
	}
	codec, err := codecMs(tn, w.setsPer)
	if err != nil {
		return err
	}
	n := len(win.latMs)
	l.set("serve.server_run_ms", "ms", runMs, int(win.runCount))
	l.set("serve.overhead_ms", "ms", overhead, n)
	l.set("serve.codec_ms", "ms", codec, 1)
	l.set("serve.residual_ms", "ms", overhead-codec, n)
	compiles := append(append([]float64(nil), s0.compileMs...), s.compileMs...)
	if w.churn {
		compiles = win.compileMs
	}
	l.setMedian("serve.compile_ms", "ms", compiles, 1)
	l.setMedian("serve.register_ms", "ms", append(append([]float64(nil), s0.registerMs...), s.registerMs...), 1)
	l.set("serve.cache_misses", "count", win.scrape.family("heax_serve_plan_cache_misses_total"), 1)
	l.set("serve.cache_evictions", "count", win.scrape.family("heax_serve_plan_cache_evictions_total"), 1)
	l.set("serve.shed", "count", win.scrape.family("heax_serve_runs_shed_total"), 1)
	traced50, baseP50 := median(win.latMs), median(base.latMs)
	l.set("trace_overhead_frac", "frac", traced50/baseP50-1, n+len(base.latMs))
	fmt.Printf("traced window: p50 %.2f ms over %d requests; untraced window: p50 %.2f ms over %d requests\n",
		traced50, n, baseP50, len(base.latMs))

	if err := l.measurePlan(tn); err != nil {
		return fmt.Errorf("plan layer: %w", err)
	}
	if err := l.measureCircuits(w, seed); err != nil {
		return fmt.Errorf("circuits layer: %w", err)
	}
	if err := l.measureCKKS(tn, steps); err != nil {
		return fmt.Errorf("ckks layer: %w", err)
	}
	faithful, err := l.measureKeySwitch(tn)
	if err != nil {
		return fmt.Errorf("key-switch stages: %w", err)
	}
	if !faithful {
		o.fail("key-switch stage replay differs from KeySwitchPoly")
	}
	if err := l.measureKernels(tn, steps[0]); err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	l.reference(tn.params)
	rec.Reference = l.ref
	rec.Attempted, rec.Failed, rec.Failures = o.attempted, o.failed, o.failures
	rec.Correct = o.failed == 0 && o.attempted > 0
	return nil
}

// codecMs is the wire codec work of one request: the client encodes
// and the server decodes every input set, the server encodes and the
// client decodes every output, timed in process on the real shapes.
func codecMs(tn *tenant, setsPer int) (float64, error) {
	if tn.oracle == nil {
		return 0, errors.New("no verified output to time the codec on")
	}
	var total float64
	for _, ct := range []*heax.Ciphertext{tn.cts[0], tn.oracle.out} {
		batch := map[string]*heax.Ciphertext{"x": ct}
		var buf bytes.Buffer
		writes, err := measure(layerBudget/4, func() error {
			buf.Reset()
			return heax.WriteCiphertextBatch(&buf, batch)
		})
		if err != nil {
			return 0, err
		}
		encoded := bytes.Clone(buf.Bytes())
		reads, err := measure(layerBudget/4, func() error {
			_, err := heax.ReadCiphertextBatch(bytes.NewReader(encoded), tn.params)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += median(writes) + median(reads)
	}
	return total * float64(setsPer), nil
}

// report prints every metric of the run by name, with unit and sample
// count, and the failures by name.
func report(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, k := range names {
		v := rec.Metrics[k]
		fmt.Printf("%-34s %14.6g %-6s %8d\n", k, v.Value, v.Unit, v.N)
	}
	fmt.Printf("attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	for k, v := range rec.Failures {
		fmt.Printf("FAILED %s: %d\n", k, v)
	}
	if len(rec.Reference) > 0 {
		printReference(rec.Reference)
	}
}
