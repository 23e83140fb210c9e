package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

var tinySizes = map[string]sizes{
	"bigclass": {classes: 4, members: 12, loners: 40, rate: 20, writeRate: 20, seqReps: 1, parReps: 1, logWrites: 6},
	"chains":   {groups: 2, perType: 40, rate: 20, writeRate: 20, seqReps: 1, parReps: 1, logWrites: 6},
	"ingest":   {people: 200, batch: 8, rate: 20, writeRate: 20, seqReps: 1, parReps: 1, logWrites: 6},
}

// TestSmoke runs every workload at a tiny size through the whole phase
// script and its checks, traced, and one workload untraced, and checks
// that each run is correct and reports every metric.
func TestSmoke(t *testing.T) {
	cases := []struct {
		name  string
		trace bool
	}{
		{"bigclass", true}, {"chains", true}, {"ingest", true}, {"ingest", false},
	}
	for _, c := range cases {
		var out, log bytes.Buffer
		if err := execute(&out, &log, c.name, 7, tinySizes[c.name], 0.3, c.trace, t.TempDir()); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", c.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", c.name, res.Correct, res.Attempted, res.Failed, log.String())
		}
		var rep struct {
			Report struct {
				E2E map[string]float64 `json:"e2e"`
			} `json:"report"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
			t.Fatalf("%s: report line: %v", c.name, err)
		}
		values := make(map[string]float64)
		for name, v := range res.Metrics {
			values[name] = v.Value
		}
		for name, v := range rep.Report.E2E {
			values[name] = v
		}
		want := endToEnd
		if c.trace {
			want = append(append([]metricDef(nil), perLayer...), endToEnd...)
		}
		for _, d := range want {
			if _, ok := values[d.name]; !ok {
				t.Errorf("%s: metric %s missing", c.name, d.name)
			}
		}
		for _, d := range endToEnd {
			if v, ok := values[d.name]; ok && !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", c.name, d.name, v)
			}
		}
		if c.trace && !(values["disk_mb"] > values["wal.snapshot_mb"]) {
			t.Errorf("%s: crash image of %v MB holds no log beyond the %v MB snapshot, so the restarts replay nothing", c.name, values["disk_mb"], values["wal.snapshot_mb"])
		}
	}
}

// TestOraclesCatchAWrongModel checks that the checks can fail: with one
// planted duplicate missing from the model, the run must report
// failures.
func TestOraclesCatchAWrongModel(t *testing.T) {
	w, err := newWorkload("chains", 3, tinySizes["chains"])
	if err != nil {
		t.Fatal(err)
	}
	for e := range w.model {
		delete(w.model, e)
		break
	}
	b := newBench(w, 0.2, false, t.TempDir())
	if err := b.run(); err != nil {
		t.Fatal(err)
	}
	if len(b.failures) == 0 {
		t.Fatal("a model missing a planted duplicate passed every check")
	}
}
