package main

import (
	"encoding/json"
	"fmt"
)

// metricDef describes one reported metric: its unit and direction, the
// regression bound for end-to-end metrics (share of the parent's
// median), and how it is measured.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
	Desc   string
}

// workloadDef is one traffic mix: its name and why it is in the
// benchmark.
type workloadDef struct {
	Name string
	Why  string
}

// runSeconds is how long one run measures by default.
const runSeconds = 20

var workloads = []workloadDef{
	{"paper", "the paper's workload: 30k generated images, 3-d color and 4-d texture; HTTP, sessions and the feedback model dominate"},
	{"highdim", "dim-32 Gaussian mixture of 32,800 vectors, larger than CPU cache; tree traversal and distance kernels dominate"},
	{"ingest-sharded", "durable 4-shard set: one client writes batches of 16 (5 ms think time) while the others run paper sessions; WAL, re-split, scatter/merge"},
}

// endToEnd are the metrics a user of the serving stack sees, reported by
// the untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "inputs in memory to listening server: index build, durable open and seed checkpoint; median of 5 set-ups"},
	{"heap_mb", "MB", "lower", 0.1, "live heap added by set-up, after a GC; median of 5 set-ups"},
	{"sessions_per_s", "1/s", "higher", 0.25, "feedback sessions completed per second by the closed-loop session clients"},
	{"session_p50_ms", "ms", "lower", 0.25, "median session time: create, 6 result pages with 5 feedback rounds between, delete"},
	{"session_p95_ms", "ms", "lower", 0.25, "95th percentile session time"},
	{"results_p50_ms", "ms", "lower", 0.25, "median GET results?k=100 latency seen by the client"},
	{"results_p99_ms", "ms", "lower", 0.25, "99th percentile results latency"},
	{"feedback_p50_ms", "ms", "lower", 0.25, "median POST feedback latency seen by the client"},
	{"feedback_p99_ms", "ms", "lower", 0.25, "99th percentile feedback latency"},
	{"precision_at_100", "ratio", "higher", 0.15, "mean final-round precision over the fixed script prefix (same-category share of the 100 results)"},
}

// perLayer are the metrics of single layers, reported by the traced run
// of every workload. Workload-specific layers (WAL, ingest) are printed
// in the envelope only; see ingestMetrics.
var perLayer = []metricDef{
	{"server.transport_ms", "ms", "lower", 0, "client request span minus the server root span, mean per request"},
	{"server.self_ms", "ms", "lower", 0, "server root span minus its stage children, mean per request"},
	{"server.encode_ms", "ms", "lower", 0, "encode stage, mean per request"},
	{"server.queue_ms", "ms", "lower", 0, "admission queue stage, mean per request"},
	{"server.lock_ms", "ms", "lower", 0, "session lock stage, mean per request"},
	{"server.shed", "count", "lower", 0, "requests shed with 429 during the traced blocks"},
	{"server.allocs_per_request", "count", "lower", 0, "heap allocations per results or feedback request through the server handler, in process"},
	{"core.feedback_ms", "ms", "lower", 0, "Query.Feedback time per round on the replayed script prefix"},
	{"core.metric_build_ms", "ms", "lower", 0, "Query.Metric time per round on the replayed script prefix"},
	{"core.clusters_final", "count", "lower", 0, "query clusters after the last feedback round, mean per replayed session"},
	{"core.merges_per_round", "count", "lower", 0, "accepted plus forced cluster merges per feedback round of the replay"},
	{"index.search_ms", "ms", "lower", 0, "search stage, mean per results request"},
	{"index.evals_per_search", "count", "lower", 0, "distance evaluations per search, registry delta"},
	{"index.leaves_per_search", "count", "lower", 0, "leaves visited per search, registry delta"},
	{"index.prune_ratio", "ratio", "higher", 0, "leaves pruned over leaves pruned or visited, registry delta"},
	{"index.cache_seed_share", "ratio", "higher", 0, "leaves seeded from the session refinement cache over leaves visited"},
	{"baseline.flat_scan_ms", "ms", "lower", 0, "index.LinearScan.KNN time per search on the replayed script prefix"},
	{"index.vs_flat_ratio", "ratio", "lower", 0, "index.search_ms over baseline.flat_scan_ms"},
	{"distance.ns_per_eval", "ns", "lower", 0, "batch kernel time per evaluation over the whole collection with the replayed metrics"},
	{"distance.abandon_ratio", "ratio", "higher", 0, "abandoned over batched evaluations, registry delta"},
	{"distance.kernel_share", "ratio", "lower", 0, "evals per search times ns per eval over index.search_ms"},
	{"shard.merge_ms", "ms", "lower", 0, "merge stage per search of the script prefix on an in-process 4-shard set of the same vectors"},
	{"shard.fanout_ms", "ms", "lower", 0, "search stage minus the slowest shard leg, same in-process 4-shard probe"},
	{"shard.evals_ratio", "ratio", "lower", 0, "distance evaluations at 4 shards over unsharded, same script prefix"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0, "GC CPU over total CPU of the process during the untraced blocks"},
	{"runtime.alloc_kb_per_session", "KB", "lower", 0, "process heap allocation per completed session during the untraced blocks"},
	{"obs.trace_overhead_ratio", "ratio", "lower", 0, "mean session time with span export over without"},
	{"ledger.unattributed_share", "ratio", "lower", 0, "session time covered by neither a request span nor a client work span"},
}

// ingestMetrics apply to the ingest-sharded workload only (failed_ratio
// to every workload, where it is 0). They are printed in the envelope
// (end-to-end from the untraced run, layers from the traced run)
// because the result line carries only metrics that every workload
// measures and that are never 0.
var ingestMetrics = []metricDef{
	{"ingest_vectors_per_s", "1/s", "higher", 0, "vectors acknowledged per second by the writer client"},
	{"ack_p50_ms", "ms", "lower", 0, "median POST /v1/vectors latency (batch of 16) seen by the writer"},
	{"ack_p99_ms", "ms", "lower", 0, "99th percentile write acknowledgement latency"},
	{"failed_ratio", "ratio", "lower", 0, "transport errors, 429, 5xx, 206 and 404 on a live session over requests attempted"},
	{"wal.fsync_ms", "ms", "lower", 0, "WAL fsync time, registry histogram mean"},
	{"wal.vectors_per_fsync", "count", "higher", 0, "vectors ingested per WAL fsync, summed over shards"},
	{"wal.bytes_per_vector", "B", "lower", 0, "WAL bytes per vector ingested"},
	{"wal.rotations", "count", "lower", 0, "WAL snapshot rotations during the traced blocks"},
	{"ingest.server_ack_ms", "ms", "lower", 0, "server root span of POST /v1/vectors, mean"},
	{"index.resplits", "count", "lower", 0, "leaf re-splits during the traced blocks"},
	{"index.resplit_ms", "ms", "lower", 0, "re-split time per ingest batch, registry delta"},
}

// specJSON renders BENCHMARK.json from the tables above; the committed
// file must equal it (see TestBenchmarkJSONMatchesSpec).
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "sessionbench/run.sh"},
		Paths:      []string{"sessionbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render spec: %w", err)
	}
	return append(b, '\n'), nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
