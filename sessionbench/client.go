package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// hit is one result row as the server returned it.
type hit struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// mark is one relevance judgement sent as feedback.
type mark struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// Request kinds, each with its own latency series.
const (
	kCreate = iota
	kResults
	kFeedback
	kDelete
	kIngest
	numKinds
)

var kindNames = [numKinds]string{"session.create", "session.results", "session.feedback", "session.delete", "vectors.add"}

// sessionLog is the recorded output of one session of the script
// prefix: the example, every result page and every set of marks sent.
type sessionLog struct {
	client, index int
	feat          int
	example       int
	pages         [][]hit
	marks         [][]mark
}

// reqSpan and sessSpan are the benchmark's own spans around each
// request and each session of a traced block. A request span's id is
// the parent id the client sends in its traceparent, which is how the
// ledger joins it to the server's root span.
type reqSpan struct {
	id   string
	kind int
	ms   float64
}

type sessSpan struct {
	ms     float64 // whole session
	reqMS  float64 // sum of its request spans
	workMS float64 // sum of its client work spans: decoding, marking, encoding
}

// sample is one timed operation: when it ended and how long it took.
type sample struct {
	end time.Time
	ms  float64
}

// clientStats is what one client measured in the timed windows.
type clientStats struct {
	lat        [numKinds][]sample
	sessions   []sample
	attempted  int
	failed     int
	badPages   int
	failures   []string
	logs       []sessionLog
	reqSpans   []reqSpan
	sessSpans  []sessSpan
	precisions []float64
}

func (st *clientStats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop user with one HTTP connection.
type client struct {
	idx    int
	hc     *http.Client
	k      int
	feat   int // feature (and server) index this client queries
	main   *script
	warm   *script
	done   int // main-script sessions started
	prefix int // main-script sessions to record for the oracle
	st     clientStats
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// window is one phase of a run: the server to talk to, when to stop
// starting work, and whether latencies and spans are recorded.
type window struct {
	base     string
	deadline time.Time
	timed    bool
	traced   bool
	warmup   bool
}

// call performs one request and returns its status and body. A
// transport error is reported as status 0.
func (c *client) call(ctx context.Context, method, url string, body []byte, tp string) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, []byte(err.Error())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, out
}

// timedCall wraps call with the client-side span: latency recording
// inside a timed window and, when traced, a traceparent whose parent id
// is this request span's id.
func (c *client) timedCall(ctx context.Context, w window, trace obs.TraceID, kind int, method, url string, body []byte) (int, []byte, float64) {
	var tp, spanID string
	if w.traced {
		sc := obs.SpanContext{TraceID: trace, SpanID: obs.NewSpanID(), Sampled: true}
		tp, spanID = sc.Traceparent(), sc.SpanID.String()
	}
	c.st.attempted++
	start := time.Now()
	status, out := c.call(ctx, method, url, body, tp)
	end := time.Now()
	ms := float64(end.Sub(start)) / 1e6
	if w.timed && end.Before(w.deadline) {
		c.st.lat[kind] = append(c.st.lat[kind], sample{end, ms})
		if w.traced {
			c.st.reqSpans = append(c.st.reqSpans, reqSpan{id: spanID, kind: kind, ms: ms})
		}
	}
	return status, out, ms
}

// runSessions runs the client's sessions back to back until the window
// deadline; the session in progress at the deadline is finished but not
// counted.
func (c *client) runSessions(ctx context.Context, w window, feats []*feature) {
	for time.Now().Before(w.deadline) && ctx.Err() == nil {
		c.session(ctx, w, feats)
	}
}

// session runs one feedback session: create, six result pages with five
// feedback rounds between them, delete.
func (c *client) session(ctx context.Context, w window, feats []*feature) {
	f := feats[c.feat]
	var example int
	record := false
	if w.warmup {
		example = c.warm.next()
	} else {
		example = c.main.next()
		record = c.done < c.prefix
		c.done++
	}
	var trace obs.TraceID
	if w.traced {
		trace = obs.NewTraceID()
	}
	start := time.Now()
	var sp sessSpan
	log := sessionLog{client: c.idx, index: c.done - 1, feat: c.feat, example: example}
	ok := c.sessionBody(ctx, w, trace, f, example, &log, &sp)
	end := time.Now()
	if !ok {
		return
	}
	if record {
		c.st.logs = append(c.st.logs, log)
	}
	if w.timed && end.Before(w.deadline) {
		ms := float64(end.Sub(start)) / 1e6
		c.st.sessions = append(c.st.sessions, sample{end, ms})
		if w.traced {
			sp.ms = ms
			c.st.sessSpans = append(c.st.sessSpans, sp)
		}
	}
}

func (c *client) sessionBody(ctx context.Context, w window, trace obs.TraceID, f *feature, example int, log *sessionLog, sp *sessSpan) bool {
	body := []byte(`{"example_id":` + strconv.Itoa(example) + `}`)
	status, out, ms := c.timedCall(ctx, w, trace, kCreate, http.MethodPost, w.base+"/v1/sessions", body)
	sp.reqMS += ms
	if status != http.StatusCreated {
		c.st.fail("create session: status %d: %.200s", status, out)
		return false
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(out, &created); err != nil || created.SessionID == "" {
		c.st.fail("create session: bad body %.200s", out)
		return false
	}
	sessURL := w.base + "/v1/sessions/" + created.SessionID
	resultsURL := sessURL + "/results?k=" + strconv.Itoa(c.k)
	ok := true
	for round := 0; round <= 5 && ok; round++ {
		status, out, ms = c.timedCall(ctx, w, trace, kResults, http.MethodGet, resultsURL, nil)
		sp.reqMS += ms
		work := time.Now()
		var page struct {
			Results []hit `json:"results"`
		}
		if status != http.StatusOK {
			c.st.fail("results round %d: status %d: %.200s", round, status, out)
			ok = false
			break
		}
		if err := json.Unmarshal(out, &page); err != nil {
			c.st.fail("results round %d: bad body: %v", round, err)
			ok = false
			break
		}
		if err := checkPageShape(page.Results, c.k); err != nil {
			c.st.badPages++
			c.st.fail("results round %d: %v", round, err)
			ok = false
			break
		}
		log.pages = append(log.pages, page.Results)
		if round == 5 {
			if !w.warmup && log.index < c.prefix {
				c.st.precisions = append(c.st.precisions, precision(f, example, page.Results, c.k))
			}
			break
		}
		marks := marksFor(f, example, page.Results)
		log.marks = append(log.marks, marks)
		fb, err := json.Marshal(struct {
			Points []mark `json:"points"`
		}{marks})
		if err != nil {
			c.st.fail("encode feedback: %v", err)
			ok = false
			break
		}
		sp.workMS += float64(time.Since(work)) / 1e6
		status, out, ms = c.timedCall(ctx, w, trace, kFeedback, http.MethodPost, sessURL+"/feedback", fb)
		sp.reqMS += ms
		if status != http.StatusOK {
			c.st.fail("feedback round %d: status %d: %.200s", round, status, out)
			ok = false
		}
	}
	status, out, ms = c.timedCall(ctx, w, trace, kDelete, http.MethodDelete, sessURL, nil)
	sp.reqMS += ms
	if status != http.StatusNoContent {
		c.st.fail("delete session: status %d: %.200s", status, out)
		ok = false
	}
	return ok
}

// checkPageShape is the check every page passes on every workload: k
// results, sorted by (dist, id), no id twice.
func checkPageShape(page []hit, k int) error {
	if len(page) != k {
		return fmt.Errorf("page has %d results, want %d", len(page), k)
	}
	seen := make(map[int]bool, len(page))
	for i, h := range page {
		if seen[h.ID] {
			return fmt.Errorf("id %d appears twice", h.ID)
		}
		seen[h.ID] = true
		if i > 0 {
			p := page[i-1]
			if h.Dist < p.Dist || (h.Dist == p.Dist && h.ID < p.ID) {
				return fmt.Errorf("results %d and %d are out of (dist, id) order", i-1, i)
			}
		}
	}
	return nil
}

// writerThink is the writer's pause between an acknowledgement and its
// next batch. Without it the writer runs as fast as the disk acks: where
// fsync is cheap it grows the collection 15-20× during a run, and how
// far it grows follows the shared disk's speed, which moved results_p50
// by ±10% between runs. With it the collection grows about 2.5× and
// the runs agree within 5%.
const writerThink = 5 * time.Millisecond

// writer is the ingest-sharded write client: a closed loop, with think
// time, of POST /v1/vectors batches drawn in order from the ingest
// stream.
type writer struct {
	c      *client
	stream *ingestStream
	base   int // global id of stream vector 0
	sent   int // stream vectors acknowledged
	stop   bool
}

// runBatches writes batches until the window deadline. The assigned ids
// must be exactly the next ones in the stream: a single writer owns the
// id sequence.
func (wr *writer) runBatches(ctx context.Context, w window) {
	c := wr.c
	for !wr.stop && time.Now().Before(w.deadline) && ctx.Err() == nil {
		if wr.sent+ingestBatch > len(wr.stream.src) {
			wr.stop = true
			c.st.fail("ingest stream exhausted after %d vectors", wr.sent)
			return
		}
		batch := make([][]float64, ingestBatch)
		for j := range batch {
			batch[j] = wr.stream.vector(wr.sent + j)
		}
		body, err := json.Marshal(struct {
			Vectors [][]float64 `json:"vectors"`
		}{batch})
		if err != nil {
			c.st.fail("encode batch: %v", err)
			wr.stop = true
			return
		}
		var trace obs.TraceID
		if w.traced {
			trace = obs.NewTraceID()
		}
		status, out, _ := c.timedCall(ctx, w, trace, kIngest, http.MethodPost, w.base+"/v1/vectors", body)
		if status == http.StatusTooManyRequests {
			// Shed by admission control before the handler ran, so the
			// batch was not applied: count the failure and send the same
			// batch again, as a user would.
			c.st.fail("ingest: status %d: %.200s", status, out)
			time.Sleep(min(writerThink, time.Until(w.deadline)))
			continue
		}
		if status != http.StatusOK {
			c.st.fail("ingest: status %d: %.200s", status, out)
			wr.stop = true
			return
		}
		var ack struct {
			IDs []int `json:"ids"`
		}
		if err := json.Unmarshal(out, &ack); err != nil || len(ack.IDs) != ingestBatch {
			c.st.fail("ingest: bad ack %.200s", out)
			wr.stop = true
			return
		}
		for j, id := range ack.IDs {
			if id != wr.base+wr.sent+j {
				c.st.fail("ingest: vector %d acked as id %d, want %d", wr.sent+j, id, wr.base+wr.sent+j)
				wr.stop = true
				return
			}
		}
		wr.sent += ingestBatch
		time.Sleep(min(writerThink, time.Until(w.deadline)))
	}
}
