package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// metricValue is one reported metric with the number of samples its
// value summarizes (a median over n requests, a count, ...).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// record is one benchmark run. A result file is JSON Lines: one record
// per line, appended by --out, so a truncated run never invalidates the
// runs before it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Machine   machineRecord          `json:"machine"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  map[string]int         `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Reference holds computed (not measured) columns: the paper's CPU
	// and HEAX ops/s, the cycle model, and per-call operation and byte
	// counts.
	Reference map[string]float64 `json:"reference,omitempty"`
}

// summaryLine is the last line of standard output: exactly the keys the
// benchmark contract names.
func (r *record) summaryLine(spec *benchSpec) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	for _, m := range spec.metrics(r.Trace) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", m.Name, v.Value)
		}
		metrics[m.Name] = val{v.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func appendRecord(path string, r *record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords parses and validates a result file: every line must be a
// JSON record carrying every metric the spec names for its trace mode.
func readRecords(r io.Reader, spec *benchSpec) ([]*record, error) {
	var out []*record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		rec := new(record)
		dec := json.NewDecoder(bytes.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("line %d: trailing data after the record", line)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("line %d: record names no workload", line)
		}
		for _, m := range spec.metrics(rec.Trace) {
			if _, ok := rec.Metrics[m.Name]; !ok {
				return nil, fmt.Errorf("line %d: %s run lacks metric %s", line, rec.Workload, m.Name)
			}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no records")
	}
	return out, nil
}

func readRecordFile(path string, spec *benchSpec) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := readRecords(f, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// verdict compares two samples of one end-to-end metric. It is
// "unresolved" when either side's interquartile spread exceeds the
// metric's bound; otherwise "worse" when the new median is worse by
// more than the bound, "better" when it is better by more than the
// larger spread, and "same" in between.
func verdict(m metricSpec, old, cur []float64) string {
	so, sc := spread(old), spread(cur)
	if so > m.Bound || sc > m.Bound {
		return "unresolved"
	}
	mo, mc := median(old), median(cur)
	if mo == 0 {
		if mc == 0 {
			return "same"
		}
		return "unresolved"
	}
	change := (mc - mo) / math.Abs(mo) // > 0: the metric rose
	if m.Better == "lower" {
		change = -change
	} // now > 0 means better
	switch {
	case change < -m.Bound:
		return "worse"
	case change > math.Max(so, sc):
		return "better"
	default:
		return "same"
	}
}

// compare prints one row per workload × end-to-end metric.
func compare(w io.Writer, spec *benchSpec, old, cur []*record) {
	group := func(recs []*record) map[string][]*record {
		g := make(map[string][]*record)
		for _, r := range recs {
			if !r.Trace {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	og, cg := group(old), group(cur)
	var names []string
	for name := range og {
		if _, ok := cg[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %-22s %6s %26s %26s %7s  %s\n",
		"workload", "metric", "unit", "old median [q1,q3] n", "new median [q1,q3] n", "bound", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			ov, cv := values(og[name], m.Name), values(cg[name], m.Name)
			fmt.Fprintf(w, "%-10s %-22s %6s %26s %26s %6.0f%%  %s\n",
				name, m.Name, m.Unit, describe(ov), describe(cv), 100*m.Bound, verdict(m, ov, cv))
		}
	}
	for name := range og {
		if _, ok := cg[name]; !ok {
			fmt.Fprintf(w, "%-10s only in the old file\n", name)
		}
	}
	for name := range cg {
		if _, ok := og[name]; !ok {
			fmt.Fprintf(w, "%-10s only in the new file\n", name)
		}
	}
}

func values(recs []*record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s,%s] %d", short(median(xs)), short(q1), short(q3), len(xs))
}

func short(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
