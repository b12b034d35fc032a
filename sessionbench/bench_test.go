package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tinyRun runs one workload at tinyScale for a fraction of a second.
func tinyRun(t *testing.T, workload string, trace bool) (*report, []sessionLog, *inputs) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.4, trace: trace, sc: tinyScale, workdir: t.TempDir(), clients: 2}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var logs []sessionLog
	for _, c := range rep.clients {
		logs = append(logs, c.st.logs...)
	}
	in, err := makeInputs(workload, cfg.seed, cfg.sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep, logs, in
}

// TestWorkloadsTiny runs every workload untraced and traced, oracle
// included, and checks the result line carries exactly the metrics the
// spec lists.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, logs, _ := tinyRun(t, w.Name, trace)
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d checks=%v failures=%v",
					w.Name, trace, rep.correct, rep.failed, rep.checks, rep.failures)
			}
			if len(logs) == 0 {
				t.Fatalf("%s: no sessions recorded for the oracle", w.Name)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) || !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %s", w.Name, trace, lines[len(lines)-1])
			}
			if trace && w.Name == "ingest-sharded" {
				for _, name := range []string{"wal.fsync_ms", "ingest_vectors_per_s", "ack_p99_ms"} {
					if _, ok := rep.vals[name]; !ok {
						t.Errorf("ingest-sharded envelope lacks %s", name)
					}
				}
			}
		}
	}
}

// TestOracleCatchesPlantedMismatch plants a one-ulp distance change and,
// separately, a swapped pair of ids in a recorded page; the exact-output
// oracle must reject each.
func TestOracleCatchesPlantedMismatch(t *testing.T) {
	_, logs, in := tinyRun(t, "paper", false)
	if err := verifyExact(logs, in.feats, tinyScale.K, nil); err != nil {
		t.Fatalf("unmodified recording rejected: %v", err)
	}
	clone := func() []sessionLog {
		out := make([]sessionLog, len(logs))
		for i, lg := range logs {
			out[i] = lg
			out[i].pages = make([][]hit, len(lg.pages))
			for r, p := range lg.pages {
				out[i].pages[r] = append([]hit(nil), p...)
			}
		}
		return out
	}

	ulp := clone()
	p := ulp[0].pages[3]
	p[7].Dist = math.Nextafter(p[7].Dist, math.Inf(1))
	if err := verifyExact(ulp, in.feats, tinyScale.K, nil); err == nil {
		t.Error("oracle accepted a page with a one-ulp distance change")
	}

	swapped := clone()
	p = swapped[0].pages[2]
	p[4].ID, p[5].ID = p[5].ID, p[4].ID
	if err := verifyExact(swapped, in.feats, tinyScale.K, nil); err == nil {
		t.Error("oracle accepted a page with two ids swapped")
	}
}

// TestPageShapeCheck covers the per-page check every workload makes
// during the run.
func TestPageShapeCheck(t *testing.T) {
	ok := []hit{{1, 0.5}, {3, 0.5}, {2, 0.7}}
	if err := checkPageShape(ok, 3); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	for name, page := range map[string][]hit{
		"short":     ok[:2],
		"tie order": {{3, 0.5}, {1, 0.5}, {2, 0.7}},
		"unsorted":  {{1, 0.5}, {2, 0.7}, {3, 0.6}},
		"duplicate": {{1, 0.5}, {1, 0.5}, {2, 0.7}},
	} {
		if checkPageShape(page, 3) == nil {
			t.Errorf("%s page accepted", name)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the committed BENCHMARK.json equal
// to the metric and workload tables the benchmark reports from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the spec; regenerate it with --spec:\n%s", want)
	}
}
