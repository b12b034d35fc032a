package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	qcluster "repro"
	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/shard"
)

// layerTimes collects the direct timings of public layer functions made
// while the oracle replays the script prefix (traced runs only).
type layerTimes struct {
	feedbackMS, metricMS, flatMS []float64
	nsPerEval                    []float64
	clustersFinal                []float64
	merges, rounds               int
}

// linearScan builds the exhaustive reference searcher over vecs.
func linearScan(vecs [][]float64) (*index.LinearScan, *index.Store, error) {
	lv := make([]linalg.Vector, len(vecs))
	for i, v := range vecs {
		lv[i] = v
	}
	st, err := index.NewStore(lv)
	if err != nil {
		return nil, nil, fmt.Errorf("reference store: %w", err)
	}
	return index.NewLinearScan(st), st, nil
}

// comparePage is the exact-output check: the page the server returned
// must equal the reference top-k in length, id order and distance bits.
func comparePage(got []hit, want []index.Result, k int) error {
	if len(got) != k || len(want) != k {
		return fmt.Errorf("page has %d results, reference %d, want %d", len(got), len(want), k)
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d: got id %d dist %v (bits %x), reference id %d dist %v (bits %x)",
				i, got[i].ID, got[i].Dist, math.Float64bits(got[i].Dist),
				want[i].ID, want[i].Dist, math.Float64bits(want[i].Dist))
		}
	}
	return nil
}

// replay rebuilds one recorded session's query model in process, round
// by round, and hands each round's metric to visit. The marks must be
// the ones the simulated user derives from the recorded pages.
func replay(lg sessionLog, f *feature, vecOf func(int) []float64, lt *layerTimes, visit func(round int, m distance.Metric) error) error {
	if len(lg.pages) != 6 || len(lg.marks) != 5 {
		return fmt.Errorf("session recorded %d pages and %d mark sets, want 6 and 5", len(lg.pages), len(lg.marks))
	}
	var opt qcluster.Options
	var sink *obs.MemorySink
	if lt != nil {
		sink = &obs.MemorySink{}
		opt.Sink = sink
	}
	q := qcluster.NewQuery(opt)
	m := qcluster.EuclideanMetric(vecOf(lg.example))
	for r := 0; r <= 5; r++ {
		if err := visit(r, m); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if r == 5 {
			break
		}
		marks := marksFor(f, lg.example, lg.pages[r])
		if fmt.Sprint(marks) != fmt.Sprint(lg.marks[r]) {
			return fmt.Errorf("round %d: marks sent %v differ from the oracle's %v", r, lg.marks[r], marks)
		}
		pts := make([]qcluster.Point, len(marks))
		for i, mk := range marks {
			pts[i] = qcluster.Point{ID: mk.ID, Vec: vecOf(mk.ID), Score: mk.Score}
		}
		t0 := time.Now()
		if err := q.Feedback(pts); err != nil {
			return fmt.Errorf("round %d: feedback: %w", r, err)
		}
		t1 := time.Now()
		m = q.Metric()
		if lt != nil {
			lt.feedbackMS = append(lt.feedbackMS, ms(t1.Sub(t0)))
			lt.metricMS = append(lt.metricMS, ms(time.Since(t1)))
		}
	}
	if lt != nil {
		lt.clustersFinal = append(lt.clustersFinal, float64(q.NumQueryPoints()))
		for _, e := range sink.Events() {
			switch {
			case e.Name == "merge.done":
				a, _ := e.Field("accepted").(int)
				f, _ := e.Field("forced").(int)
				lt.merges += a + f
			case e.Span == "feedback.round" && e.Name == "end":
				lt.rounds++
			}
		}
	}
	return nil
}

// timeKernel times the batch kernel of m over the whole store.
func timeKernel(m distance.Metric, st *index.Store, lt *layerTimes) {
	bm, ok := m.(distance.BatchMetric)
	if !ok || lt == nil {
		return
	}
	out := make([]float64, st.Len())
	t0 := time.Now()
	bm.EvalBatch(st.Flat(), st.Dim(), math.Inf(1), out)
	lt.nsPerEval = append(lt.nsPerEval, float64(time.Since(t0).Nanoseconds())/float64(st.Len()))
}

// kernelSessions is how many replayed sessions also time the kernel;
// on ingest-sharded, where the final collection can be many times the
// seed, ingestTimedSessions also bounds the timed flat scans.
const (
	kernelSessions      = 20
	ingestTimedSessions = 5
)

// verifyExact is the oracle of the paper and highdim workloads: every
// recorded page must equal index.LinearScan under the replayed query's
// metric, bit for bit.
func verifyExact(logs []sessionLog, feats []*feature, k int, lt *layerTimes) error {
	if len(logs) == 0 {
		return fmt.Errorf("no recorded sessions to check")
	}
	type ref struct {
		scan *index.LinearScan
		st   *index.Store
	}
	refs := make([]ref, len(feats))
	for i, f := range feats {
		scan, st, err := linearScan(f.vecs)
		if err != nil {
			return err
		}
		refs[i] = ref{scan, st}
	}
	for n, lg := range logs {
		f, rf := feats[lg.feat], refs[lg.feat]
		vecOf := func(id int) []float64 { return f.vecs[id] }
		err := replay(lg, f, vecOf, lt, func(r int, m distance.Metric) error {
			t0 := time.Now()
			want, _ := rf.scan.KNN(m, k)
			if lt != nil {
				lt.flatMS = append(lt.flatMS, ms(time.Since(t0)))
				if n < kernelSessions {
					timeKernel(m, rf.st, lt)
				}
			}
			return comparePage(lg.pages[r], want, k)
		})
		if err != nil {
			return fmt.Errorf("client %d session %d (example %d, %s): %w", lg.client, lg.index, lg.example, f.name, err)
		}
	}
	return nil
}

// verifyIngest checks ingest-sharded, where which writes a read sees
// depends on timing: every recorded distance must be the replayed
// metric on the vector stored at that id; every acknowledged vector
// must be stored bit for bit, also after the durable set is reopened;
// and probe queries on the final state must equal LinearScan.
func verifyIngest(ctx context.Context, sys *system, in *inputs, wr *writer, logs []sessionLog, cfg config, lt *layerTimes) error {
	f := in.feats[0]
	total := wr.base + wr.sent
	final := make([][]float64, total)
	copy(final, f.vecs)
	for j := 0; j < wr.sent; j++ {
		final[wr.base+j] = in.stream.vector(j)
	}
	if got := sys.set.Len(); got != total {
		return fmt.Errorf("set holds %d vectors, want %d seeded plus %d acknowledged", got, wr.base, wr.sent)
	}
	if err := sameVectors(sys.set, final); err != nil {
		return err
	}

	scan, st, err := linearScan(final)
	if err != nil {
		return err
	}
	vecOf := func(id int) []float64 { return final[id] }
	for n, lg := range logs {
		err := replay(lg, f, vecOf, lt, func(r int, m distance.Metric) error {
			for i, h := range lg.pages[r] {
				if h.ID < 0 || h.ID >= total {
					return fmt.Errorf("rank %d: id %d was never acknowledged", i, h.ID)
				}
				if d := m.Eval(final[h.ID]); math.Float64bits(d) != math.Float64bits(h.Dist) {
					return fmt.Errorf("rank %d: id %d has dist %v, the metric on its stored vector gives %v", i, h.ID, h.Dist, d)
				}
			}
			if lt != nil && n < ingestTimedSessions {
				t0 := time.Now()
				scan.KNN(m, cfg.sc.K)
				lt.flatMS = append(lt.flatMS, ms(time.Since(t0)))
				if n < ingestTimedSessions {
					timeKernel(m, st, lt)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("client %d session %d (example %d): %w", lg.client, lg.index, lg.example, err)
		}
	}

	// Probe queries over HTTP on the final state.
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	url := sys.url(0, false) + "/v1/search"
	for p := 0; p < cfg.sc.Probes; p++ {
		v := final[p*total/cfg.sc.Probes]
		body, err := json.Marshal(map[string]any{"vector": v, "k": cfg.sc.K})
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("probe request: %w", err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return fmt.Errorf("probe %d: %w", p, err)
		}
		var page struct {
			Results []hit `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return fmt.Errorf("probe %d: status %d, decode error %v", p, resp.StatusCode, err)
		}
		want, _ := scan.KNN(qcluster.EuclideanMetric(v), cfg.sc.K)
		if err := comparePage(page.Results, want, cfg.sc.K); err != nil {
			return fmt.Errorf("probe %d on the final state: %w", p, err)
		}
	}

	// No acknowledged write may be lost across a close and reopen.
	sys.stopServers()
	if err := sys.set.Close(); err != nil {
		return fmt.Errorf("close durable set: %w", err)
	}
	sys.set = nil
	reopened, err := shard.Open(sys.dir, numShards, qcluster.DurableOptions{})
	if err != nil {
		return fmt.Errorf("reopen durable set: %w", err)
	}
	defer reopened.Close()
	if got := reopened.Len(); got != total {
		return fmt.Errorf("reopened set holds %d vectors, want %d", got, total)
	}
	if err := sameVectors(reopened, final); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}

func sameVectors(set *shard.Set, want [][]float64) error {
	for id, v := range want {
		got, ok := set.VectorOK(id)
		if !ok || !bitsEqual(got, v) {
			return fmt.Errorf("id %d holds %v, want %v", id, got, v)
		}
	}
	return nil
}

// shardProbe replays the first sessions of the script prefix in process
// on an unsharded database and on a 4-shard set of the same vectors. It
// gives the shard layer's merge and fan-out cost and its extra distance
// evaluations on every workload, and checks that both return the same
// pages.
func shardProbe(ctx context.Context, f *feature, logs []sessionLog, cfg config) (mergeMS, fanoutMS, evalsRatio float64, err error) {
	db, err := qcluster.NewDatabase(f.vecs)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("probe database: %w", err)
	}
	set, err := shard.New(f.vecs, numShards, qcluster.IndexOptions{})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("probe shard set: %w", err)
	}
	evals := func(s obs.Snapshot) float64 {
		m := map[string]float64{}
		flattenInto(m, s)
		return sumSuffix(m, "index.distance_evals")
	}
	tracer := obs.NewTracer(obs.TracerOptions{SlowThreshold: time.Hour})
	var dbEvals, setEvals float64
	searches := 0
	for n, lg := range logs {
		if n >= cfg.sc.ShardProbe {
			break
		}
		ex := f.vecs[lg.example]
		s1, s2 := db.NewSession(ex, qcluster.Options{}), set.NewSession(ex, qcluster.Options{})
		for r := 0; r <= 5; r++ {
			e0 := evals(db.Metrics())
			r1, err := s1.ResultsContext(ctx, cfg.sc.K)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("probe search: %w", err)
			}
			dbEvals += evals(db.Metrics()) - e0
			p := tracer.Start("probe", "", time.Now())
			e0 = evals(set.Metrics())
			r2, err := s2.ResultsContext(obs.ContextWithProfile(ctx, p), cfg.sc.K)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("probe sharded search: %w", err)
			}
			setEvals += evals(set.Metrics()) - e0
			slowest := time.Duration(0)
			for _, sc := range p.Shards() {
				slowest = max(slowest, sc.Duration)
			}
			mergeMS += ms(p.StageDuration(obs.StageMerge))
			fanoutMS += ms(p.StageDuration(obs.StageSearch) - slowest)
			tracer.Finish(p, time.Now())
			searches++
			page := make([]hit, len(r1))
			for i := range r1 {
				page[i] = hit{r1[i].ID, r1[i].Dist}
				if r1[i].ID != r2[i].ID || math.Float64bits(r1[i].Dist) != math.Float64bits(r2[i].Dist) {
					return 0, 0, 0, fmt.Errorf("4-shard probe differs from unsharded at rank %d", i)
				}
			}
			if r == 5 {
				break
			}
			var pts []qcluster.Point
			for _, mk := range marksFor(f, lg.example, page) {
				pts = append(pts, qcluster.Point{ID: mk.ID, Vec: f.vecs[mk.ID], Score: mk.Score})
			}
			if err := s1.MarkRelevant(pts); err != nil {
				return 0, 0, 0, fmt.Errorf("probe feedback: %w", err)
			}
			if err := s2.MarkRelevant(pts); err != nil {
				return 0, 0, 0, fmt.Errorf("probe sharded feedback: %w", err)
			}
		}
	}
	if searches == 0 || dbEvals == 0 {
		return 0, 0, 0, fmt.Errorf("shard probe ran no searches")
	}
	return mergeMS / float64(searches), fanoutMS / float64(searches), setEvals / dbEvals, nil
}

// allocProbe drives recorded sessions through the untraced server's
// handler in process and counts heap allocations per results and
// feedback request. Nothing else runs while it counts.
func allocProbe(sys *system, f *feature, logs []sessionLog, cfg config) (perRequest float64, requests int, err error) {
	h := sys.plain[0].Handler()
	do := func(method, url string, body []byte) (*httptest.ResponseRecorder, uint64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&ms1)
		return rec, ms1.Mallocs - ms0.Mallocs
	}
	var allocs uint64
	for n, lg := range logs {
		if n >= cfg.sc.AllocProbe {
			break
		}
		if lg.feat != 0 {
			continue
		}
		rec, _ := do(http.MethodPost, "/v1/sessions", []byte(`{"example_id":`+strconv.Itoa(lg.example)+`}`))
		var created struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != http.StatusCreated {
			return 0, 0, fmt.Errorf("alloc probe: create status %d", rec.Code)
		}
		path := "/v1/sessions/" + created.SessionID
		for r := 0; r <= 5; r++ {
			rec, a := do(http.MethodGet, path+"/results?k="+strconv.Itoa(cfg.sc.K), nil)
			if rec.Code != http.StatusOK {
				return 0, 0, fmt.Errorf("alloc probe: results status %d", rec.Code)
			}
			allocs += a
			requests++
			if r == 5 {
				break
			}
			var page struct {
				Results []hit `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				return 0, 0, fmt.Errorf("alloc probe: %w", err)
			}
			body, err := json.Marshal(map[string]any{"points": marksFor(f, lg.example, page.Results)})
			if err != nil {
				return 0, 0, fmt.Errorf("alloc probe: %w", err)
			}
			rec, a = do(http.MethodPost, path+"/feedback", body)
			if rec.Code != http.StatusOK {
				return 0, 0, fmt.Errorf("alloc probe: feedback status %d", rec.Code)
			}
			allocs += a
			requests++
		}
		do(http.MethodDelete, path, nil)
	}
	if requests == 0 {
		return 0, 0, fmt.Errorf("alloc probe ran no requests")
	}
	return float64(allocs) / float64(requests), requests, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
