package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/stat"
)

// measured is one metric value with its definition and sample count.
type measured struct {
	metricDef
	Value float64 `json:"value"`
	N     int     `json:"samples"`
}

// report accumulates one run's metrics, checks and ledger.
type report struct {
	cfg       config
	params    map[string]any
	vals      map[string]measured
	checks    map[string]string
	correct   bool
	attempted int
	failed    int
	failures  []string
	clients   []*client
	ledger    []routeLedger
	// clientWork is the share of session time the client spent between
	// requests decoding pages, marking and encoding feedback.
	clientWork float64
}

func newReport(cfg config, in *inputs) *report {
	return &report{cfg: cfg, params: in.params, vals: map[string]measured{}, checks: map[string]string{}, correct: true}
}

func defOf(name string) metricDef {
	for _, table := range [][]metricDef{endToEnd, perLayer, ingestMetrics} {
		for _, d := range table {
			if d.Name == name {
				return d
			}
		}
	}
	panic("sessionbench: undefined metric " + name)
}

func (r *report) add(name string, v float64, n int) {
	r.vals[name] = measured{metricDef: defOf(name), Value: v, N: n}
}

func (r *report) check(name string, err error) {
	if err != nil {
		r.correct = false
		r.checks[name] = err.Error()
		return
	}
	r.checks[name] = "ok"
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat.Quantile(s, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// subWindow is the length of the slices a timed block is cut into.
// Throughput and medians are medians over the slices, so a burst of
// interference from outside the benchmark moves a few slices, not the
// reported value; tail percentiles pool every sample of the run.
const subWindow = time.Second

// windowed summarizes timed samples.
type windowed struct {
	all  []float64 // every sample, ms
	p50  float64   // median over sub-windows of the sub-window median
	rate float64   // median over sub-windows of samples per second
}

func summarize(samples []sample, blocks []block) windowed {
	var w windowed
	var meds, rates []float64
	for _, b := range blocks {
		n := max(1, int(b.dur/subWindow))
		width := b.dur / time.Duration(n)
		buckets := make([][]float64, n)
		for _, s := range samples {
			off := s.end.Sub(b.start)
			if off < 0 || off >= time.Duration(n)*width {
				continue
			}
			i := int(off / width)
			buckets[i] = append(buckets[i], s.ms)
			w.all = append(w.all, s.ms)
		}
		for _, bk := range buckets {
			rates = append(rates, float64(len(bk))/width.Seconds())
			if len(bk) > 0 {
				meds = append(meds, median(bk))
			}
		}
	}
	w.p50, w.rate = median(meds), median(rates)
	return w
}

// untraced returns the blocks that ran without span export: the
// end-to-end metrics of a traced run come from those alone.
func untraced(blocks []block) []block {
	var out []block
	for _, b := range blocks {
		if !b.traced {
			out = append(out, b)
		}
	}
	return out
}

// collect turns the clients' timed samples into the end-to-end metrics.
func (r *report) collect(cs []*client, blocks []block) {
	r.clients = cs
	blocks = untraced(blocks)
	var lat [numKinds][]sample
	var sessions []sample
	var precisions []float64
	bad := 0
	for _, c := range cs {
		for k := range lat {
			lat[k] = append(lat[k], c.st.lat[k]...)
		}
		sessions = append(sessions, c.st.sessions...)
		precisions = append(precisions, c.st.precisions...)
		r.attempted += c.st.attempted
		r.failed += c.st.failed
		bad += c.st.badPages
		for _, f := range c.st.failures {
			r.failures = append(r.failures, fmt.Sprintf("client %d: %s", c.idx, f))
		}
	}
	if bad > 0 {
		r.check("page_shape", fmt.Errorf("%d result pages were not k long, sorted by (dist, id) and duplicate-free", bad))
	} else {
		r.check("page_shape", nil)
	}
	sess := summarize(sessions, blocks)
	res := summarize(lat[kResults], blocks)
	fb := summarize(lat[kFeedback], blocks)
	r.add("sessions_per_s", sess.rate, len(sess.all))
	r.add("session_p50_ms", sess.p50, len(sess.all))
	r.add("session_p95_ms", quantile(sess.all, 0.95), len(sess.all))
	r.add("results_p50_ms", res.p50, len(res.all))
	r.add("results_p99_ms", quantile(res.all, 0.99), len(res.all))
	r.add("feedback_p50_ms", fb.p50, len(fb.all))
	r.add("feedback_p99_ms", quantile(fb.all, 0.99), len(fb.all))
	r.add("precision_at_100", mean(precisions), len(precisions))
	if r.attempted > 0 {
		r.add("failed_ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	}
}

// collectIngest adds the writer's end-to-end metrics.
func (r *report) collectIngest(wr *writer, blocks []block) {
	acks := summarize(wr.c.st.lat[kIngest], untraced(blocks))
	r.add("ingest_vectors_per_s", acks.rate*ingestBatch, len(acks.all))
	r.add("ack_p50_ms", acks.p50, len(acks.all))
	r.add("ack_p99_ms", quantile(acks.all, 0.99), len(acks.all))
}

// layers computes the per-layer metrics of a traced run.
func (r *report) layers(ctx context.Context, sys *system, in *inputs, logs []sessionLog, blocks []block, lt *layerTimes) error {
	// Ledger: client spans joined with the server spans they caused.
	var spans []reqSpan
	var sess []sessSpan
	for _, c := range r.clients {
		spans = append(spans, c.st.reqSpans...)
		sess = append(sess, c.st.sessSpans...)
	}
	for k := 0; k < numKinds; k++ {
		if l := ledgerOf(sys.sink, kindNames[k], spans, k); l.Requests+l.Unjoined > 0 {
			r.ledger = append(r.ledger, l)
		}
	}
	all := ledgerOf(sys.sink, "session requests", spans, kCreate, kResults, kFeedback, kDelete)
	r.ledger = append(r.ledger, all)
	if all.Requests == 0 || all.Unjoined > 0 {
		return fmt.Errorf("%d of %d traced session requests have no server span", all.Unjoined, all.Requests+all.Unjoined)
	}
	results := ledgerOf(sys.sink, kindNames[kResults], spans, kResults)
	r.add("server.transport_ms", all.TransportMS, all.Requests)
	r.add("server.self_ms", all.SelfMS, all.Requests)
	r.add("server.encode_ms", all.StagesMS["encode"], all.Requests)
	r.add("server.queue_ms", all.StagesMS["queue"], all.Requests)
	r.add("server.lock_ms", all.StagesMS["lock"], all.Requests)
	r.add("index.search_ms", results.StagesMS["search"], results.Requests)
	var sessMS, gapMS, workMS float64
	for _, s := range sess {
		sessMS += s.ms
		workMS += s.workMS
		gapMS += s.ms - s.reqMS - s.workMS
	}
	if sessMS > 0 {
		r.add("ledger.unattributed_share", gapMS/sessMS, len(sess))
		r.clientWork = workMS / sessMS
	}
	if wl := ledgerOf(sys.sink, kindNames[kIngest], spans, kIngest); wl.Requests > 0 {
		r.add("ingest.server_ack_ms", wl.ServerMS, wl.Requests)
	}

	// Registry deltas over the traced blocks, runtime counters over the
	// untraced ones, and session time in each.
	delta := map[string]float64{}
	var gcCPU, totalCPU, allocB float64
	var plainMS, tracedMS []float64
	plainSessions := 0
	for _, b := range blocks {
		for i, c := range r.clients {
			if i >= len(b.before.sessions) {
				break
			}
			for _, s := range c.st.sessions[b.before.sessions[i]:b.after.sessions[i]] {
				if b.traced {
					tracedMS = append(tracedMS, s.ms)
				} else {
					plainMS = append(plainMS, s.ms)
					plainSessions++
				}
			}
		}
		if b.traced {
			for k, v := range b.after.reg {
				delta[k] += v - b.before.reg[k]
			}
			continue
		}
		gcCPU += b.after.gcCPU - b.before.gcCPU
		totalCPU += b.after.totalCPU - b.before.totalCPU
		allocB += b.after.allocB - b.before.allocB
	}
	searches := delta["server.searches"]
	r.add("server.shed", delta["server.shed"], int(delta["server.requests"]))
	evals := sumSuffix(delta, "index.distance_evals")
	visited := sumSuffix(delta, "index.leaves_visited")
	pruned := sumSuffix(delta, "index.leaves_pruned")
	batched := sumSuffix(delta, "index.batched_evals")
	if searches > 0 {
		r.add("index.evals_per_search", evals/searches, int(searches))
		r.add("index.leaves_per_search", visited/searches, int(searches))
	}
	if visited+pruned > 0 {
		r.add("index.prune_ratio", pruned/(visited+pruned), int(searches))
		r.add("index.cache_seed_share", sumSuffix(delta, "index.cache_seed_leaves")/visited, int(searches))
	}
	if batched > 0 {
		r.add("distance.abandon_ratio", sumSuffix(delta, "index.abandoned_evals")/batched, int(batched))
	}
	if totalCPU > 0 {
		r.add("runtime.gc_cpu_fraction", gcCPU/totalCPU, plainSessions)
	}
	if plainSessions > 0 {
		r.add("runtime.alloc_kb_per_session", allocB/1024/float64(plainSessions), plainSessions)
	}
	if len(plainMS) > 0 && len(tracedMS) > 0 {
		r.add("obs.trace_overhead_ratio", mean(tracedMS)/mean(plainMS), len(tracedMS))
	}
	if in.stream != nil {
		vecs := sumSuffix(delta, "shard.ingested")
		fsyncs := sumSuffix(delta, "wal.fsyncs")
		if n := sumSuffix(delta, "wal.fsync_seconds.count"); n > 0 {
			r.add("wal.fsync_ms", 1e3*sumSuffix(delta, "wal.fsync_seconds.sum")/n, int(n))
		}
		if fsyncs > 0 {
			r.add("wal.vectors_per_fsync", vecs/fsyncs, int(fsyncs))
		}
		if vecs > 0 {
			r.add("wal.bytes_per_vector", sumSuffix(delta, "wal.bytes")/vecs, int(vecs))
		}
		r.add("wal.rotations", sumSuffix(delta, "wal.rotations"), 0)
		r.add("index.resplits", sumSuffix(delta, "index.resplits"), int(delta["shard.batches"]))
		if b := delta["shard.batches"]; b > 0 {
			r.add("index.resplit_ms", sumSuffix(delta, "search.resplit_ns")/1e6/b, int(b))
		}
	}

	// Direct timings of the layer functions on the replayed prefix.
	r.add("core.feedback_ms", mean(lt.feedbackMS), len(lt.feedbackMS))
	r.add("core.metric_build_ms", mean(lt.metricMS), len(lt.metricMS))
	r.add("core.clusters_final", mean(lt.clustersFinal), len(lt.clustersFinal))
	if lt.rounds > 0 {
		r.add("core.merges_per_round", float64(lt.merges)/float64(lt.rounds), lt.rounds)
	}
	flat := mean(lt.flatMS)
	r.add("baseline.flat_scan_ms", flat, len(lt.flatMS))
	ns := mean(lt.nsPerEval)
	r.add("distance.ns_per_eval", ns, len(lt.nsPerEval))
	search := results.StagesMS["search"]
	if flat > 0 {
		r.add("index.vs_flat_ratio", search/flat, results.Requests)
	}
	if search > 0 && searches > 0 {
		r.add("distance.kernel_share", evals/searches*ns/1e6/search, int(searches))
	}

	merge, fanout, ratio, err := shardProbe(ctx, in.feats[0], logs, r.cfg)
	if err != nil {
		return err
	}
	r.add("shard.merge_ms", merge, r.cfg.sc.ShardProbe*6)
	r.add("shard.fanout_ms", fanout, r.cfg.sc.ShardProbe*6)
	r.add("shard.evals_ratio", ratio, r.cfg.sc.ShardProbe*6)
	return nil
}

// box identifies where the numbers came from.
func box() map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "vcs_commit": commit,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// print writes the envelope line and then, as the last line, the result
// object: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
func (r *report) print(w io.Writer) error {
	wl, _ := findWorkload(r.cfg.workload)
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	all := make([]measured, 0, len(names))
	for _, n := range names {
		all = append(all, r.vals[n])
	}
	table := endToEnd
	if r.cfg.trace {
		table = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, map[string]val{}}
	for _, d := range table {
		m, ok := r.vals[d.Name]
		if !ok {
			out.Correct = false
			r.checks["missing_"+d.Name] = "not measured"
			continue
		}
		out.Metrics[d.Name] = val{m.Value, d.Unit}
	}
	result, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	env := map[string]any{
		"schema":   "sessionbench/1",
		"box":      box(),
		"seed":     r.cfg.seed,
		"seconds":  r.cfg.seconds,
		"traced":   r.cfg.trace,
		"clients":  r.cfg.clients,
		"workload": map[string]any{"name": wl.Name, "why": wl.Why, "params": r.params},
		"checks":   r.checks,
		"failures": r.failures,
		"metrics":  all,
	}
	if r.cfg.trace {
		env["ledger"] = map[string]any{"per_request": r.ledger, "client_work_share_of_session": r.clientWork}
	}
	line, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("encode envelope: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return err
	}

	_, err = fmt.Fprintf(w, "%s\n", result)
	return err
}
