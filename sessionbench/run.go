package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	qcluster "repro"
	"repro/internal/server"
	"repro/internal/shard"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	workdir  string // directory for the durable set's files
	clients  int
}

// numShards is the ingest-sharded set's shard count.
const numShards = 4

// system is the serving stack under test: the backends and one
// listening server per feature, plus, in a traced run, a second server
// per feature over the same backend that exports every span.
type system struct {
	set    *shard.Set
	dir    string
	plain  []*server.Server
	traced []*server.Server
	sink   *spanSink
}

// setUp builds the index (or opens the durable set) and starts the
// servers. It is what setup_s times.
func setUp(cfg config, in *inputs) (_ *system, err error) {
	sys := &system{}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if cfg.trace {
		sys.sink = newSpanSink()
	}
	start := func(be func(opt server.Options) (*server.Server, error)) error {
		s, err := be(server.Options{})
		if err != nil {
			return err
		}
		sys.plain = append(sys.plain, s)
		if cfg.trace {
			t, err := be(server.Options{TraceSink: sys.sink, TraceSampleRate: 1})
			if err != nil {
				return err
			}
			sys.traced = append(sys.traced, t)
		}
		return nil
	}
	if in.stream != nil {
		if sys.dir, err = os.MkdirTemp(cfg.workdir, "ingest-"); err != nil {
			return nil, fmt.Errorf("durable dir: %w", err)
		}
		if sys.set, err = shard.Open(sys.dir, numShards, qcluster.DurableOptions{Seed: in.feats[0].vecs}); err != nil {
			return nil, fmt.Errorf("open durable set: %w", err)
		}
		err = start(func(opt server.Options) (*server.Server, error) {
			return server.StartSharded("127.0.0.1:0", sys.set, opt)
		})
		return sys, err
	}
	for _, f := range in.feats {
		db, err := qcluster.NewDatabase(f.vecs)
		if err != nil {
			return nil, fmt.Errorf("index %s: %w", f.name, err)
		}
		if err := start(func(opt server.Options) (*server.Server, error) {
			return server.Start("127.0.0.1:0", db, opt)
		}); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// stopServers drains every server.
func (s *system) stopServers() {
	for _, srv := range append(s.plain, s.traced...) {
		srv.Close()
	}
	s.plain, s.traced = nil, nil
}

// close stops the servers, closes the durable set and removes its
// directory.
func (s *system) close() {
	s.stopServers()
	if s.set != nil {
		s.set.Close()
		s.set = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

func (s *system) url(feat int, traced bool) string {
	if traced {
		return "http://" + s.traced[feat].Addr()
	}
	return "http://" + s.plain[feat].Addr()
}

// run executes one benchmark run and returns its report.
func run(ctx context.Context, cfg config) (*report, error) {
	in, err := makeInputs(cfg.workload, cfg.seed, cfg.sc)
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, in)

	// Set-up, repeated so that setup_s and heap_mb are medians.
	setups := 5
	if cfg.trace {
		setups = 1
	}
	var sys *system
	var setupS, heapMB []float64
	for i := 0; i < setups; i++ {
		base := liveHeap()
		t0 := time.Now()
		s, err := setUp(cfg, in)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapMB = append(heapMB, float64(int64(liveHeap())-int64(base))/(1<<20))
		if i < setups-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	rep.add("setup_s", median(setupS), len(setupS))
	rep.add("heap_mb", median(heapMB), len(heapMB))

	// Clients: a closed loop of one per CPU, at least two. On
	// ingest-sharded client 0 is the writer.
	var sessClients []*client
	var wr *writer
	for i := 0; i < cfg.clients; i++ {
		c := &client{
			idx: i, hc: newHTTPClient(), k: cfg.sc.K,
			feat: i % len(in.feats),
			main: newScript(cfg.seed, uint64(100+i), len(in.feats[0].vecs)),
			warm: newScript(cfg.seed, uint64(200+i), len(in.feats[0].vecs)),
			prefix: map[string]int{
				"paper": cfg.sc.PaperPrefix, "highdim": cfg.sc.HighPrefix, "ingest-sharded": cfg.sc.IngestPrefix,
			}[cfg.workload],
		}
		if in.stream != nil && i == 0 {
			c.feat = 0
			wr = &writer{c: c, stream: in.stream, base: len(in.feats[0].vecs)}
			continue
		}
		sessClients = append(sessClients, c)
	}
	all := append(append([]*client(nil), sessClients...), writerClient(wr)...)
	defer func() {
		for _, c := range all {
			c.hc.CloseIdleConnections()
		}
	}()

	phase := func(w window) {
		var wg sync.WaitGroup
		for _, c := range sessClients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				cw := w
				cw.base = sys.url(c.feat, w.traced)
				c.runSessions(ctx, cw, in.feats)
			}(c)
		}
		if wr != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cw := w
				cw.base = sys.url(0, w.traced)
				wr.runBatches(ctx, cw)
			}()
		}
		wg.Wait()
	}

	phase(window{deadline: time.Now().Add(seconds(cfg.sc.WarmupSeconds)), warmup: true})
	runtime.GC()

	var blocks []block
	if !cfg.trace {
		blocks = []block{{dur: seconds(cfg.seconds)}}
	} else {
		// Untraced and traced blocks alternate so that drift over the
		// run does not masquerade as tracing overhead.
		q := seconds(cfg.seconds / 4)
		blocks = []block{{dur: q}, {dur: q, traced: true}, {dur: q}, {dur: q, traced: true}}
	}
	for i := range blocks {
		b := &blocks[i]
		b.before = b.snap(sys, sessClients)
		b.start = time.Now()
		phase(window{deadline: b.start.Add(b.dur), timed: true, traced: b.traced})
		b.after = b.snap(sys, sessClients)
	}

	// Finish the script prefix (untimed) so the oracle sees all of it.
	var wg sync.WaitGroup
	for _, c := range sessClients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			w := window{base: sys.url(c.feat, false), deadline: time.Now().Add(time.Hour)}
			for c.done < c.prefix && ctx.Err() == nil && c.st.failed == 0 {
				c.session(ctx, w, in.feats)
			}
		}(c)
	}
	wg.Wait()

	rep.collect(all, blocks)
	if wr != nil {
		rep.collectIngest(wr, blocks)
	}

	var logs []sessionLog
	for _, c := range sessClients {
		logs = append(logs, c.st.logs...)
	}
	var lt *layerTimes
	if cfg.trace {
		lt = &layerTimes{}
		perRequest, n, err := allocProbe(sys, in.feats[0], logs, cfg)
		rep.check("alloc_probe", err)
		rep.add("server.allocs_per_request", perRequest, n)
	}
	if wr == nil {
		rep.check("oracle", verifyExact(logs, in.feats, cfg.sc.K, lt))
	} else {
		rep.check("ingest", verifyIngest(ctx, sys, in, wr, logs, cfg, lt))
	}
	if cfg.trace {
		rep.check("layers", rep.layers(ctx, sys, in, logs, blocks, lt))
	}
	return rep, nil
}

func writerClient(wr *writer) []*client {
	if wr == nil {
		return nil
	}
	return []*client{wr.c}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// liveHeap is the heap still in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// block is one timed window of a run with the counters read around it.
type block struct {
	start         time.Time
	dur           time.Duration
	traced        bool
	before, after blockSnap
}

// blockSnap is the state read at a block boundary: the traced servers'
// registries, the runtime's CPU and allocation counters, and how many
// sessions each client had completed.
type blockSnap struct {
	reg      map[string]float64
	gcCPU    float64
	totalCPU float64
	allocB   float64
	sessions []int
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func (b *block) snap(sys *system, cs []*client) blockSnap {
	s := blockSnap{reg: map[string]float64{}}
	if b.traced {
		for _, srv := range sys.traced {
			flattenInto(s.reg, srv.Metrics())
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	value := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		}
		return 0
	}
	s.gcCPU, s.totalCPU, s.allocB = value(0), value(1), value(2)
	for _, c := range cs {
		s.sessions = append(s.sessions, len(c.st.sessions))
	}
	return s
}
