package main

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/obs"
)

// serverSpan is one exported server request: its root span and the
// stage children the serving layer hangs under it.
type serverSpan struct {
	parent   string // the client request span that sent it
	rootMS   float64
	stages   [len(obs.StageNames)]float64
	shardMax float64 // slowest per-shard search leg
}

// spanSink is the traced servers' in-memory span sink. It folds each
// exported span tree into one serverSpan as it arrives, keyed by the
// client span that caused it, instead of keeping every event: a traced
// block exports tens of thousands of requests.
type spanSink struct {
	mu      sync.Mutex
	pending map[string]*serverSpan // by root span id
	done    map[string]*serverSpan // by client request span id
}

func newSpanSink() *spanSink {
	return &spanSink{pending: map[string]*serverSpan{}, done: map[string]*serverSpan{}}
}

// Emit implements obs.Sink. Only request span trees are folded; the
// feedback events relayed into the request trace are dropped.
func (s *spanSink) Emit(e obs.Event) {
	if !strings.HasPrefix(e.Span, "request.") || (e.Name != "start" && e.Name != "end") {
		return
	}
	var span, parent string
	var elapsed float64
	root := false
	for _, f := range e.Fields {
		switch f.Key {
		case "span_id":
			span, _ = f.Value.(string)
		case "parent_span_id":
			parent, _ = f.Value.(string)
		case "elapsed_ms":
			elapsed, _ = f.Value.(float64)
		case "root":
			root, _ = f.Value.(bool)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case root && e.Name == "start":
		s.pending[span] = &serverSpan{parent: parent}
	case root && e.Name == "end":
		sp := s.pending[span]
		if sp == nil {
			return
		}
		delete(s.pending, span)
		sp.rootMS = elapsed
		if sp.parent != "" {
			s.done[sp.parent] = sp
		}
	case e.Name == "end":
		sp := s.pending[parent]
		if sp == nil {
			return
		}
		child := e.Span[strings.LastIndexByte(e.Span, '.')+1:]
		if child == "shard" {
			sp.shardMax = max(sp.shardMax, elapsed)
			return
		}
		for i, name := range obs.StageNames {
			if name == child {
				sp.stages[i] += elapsed
			}
		}
	}
}

// lookup returns the server span a client request span caused.
func (s *spanSink) lookup(clientSpan string) *serverSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[clientSpan]
}

// routeLedger is the mean time per request of one route, split into the
// layers the spans attribute it to.
type routeLedger struct {
	Route       string             `json:"route"`
	Requests    int                `json:"requests"`
	Unjoined    int                `json:"unjoined"`
	ClientMS    float64            `json:"client_ms"`
	TransportMS float64            `json:"transport_ms"`
	ServerMS    float64            `json:"server_root_ms"`
	SelfMS      float64            `json:"server_self_ms"`
	StagesMS    map[string]float64 `json:"stages_ms"`
	ShardMaxMS  float64            `json:"slowest_shard_ms,omitempty"`
}

// ledgerOf joins the client request spans of the given kinds with the
// server spans they caused and averages each layer per request.
func ledgerOf(sink *spanSink, route string, spans []reqSpan, kinds ...int) routeLedger {
	l := routeLedger{Route: route, StagesMS: map[string]float64{}}
	for _, rs := range spans {
		if !slices.Contains(kinds, rs.kind) {
			continue
		}
		sp := sink.lookup(rs.id)
		if sp == nil {
			l.Unjoined++
			continue
		}
		l.Requests++
		l.ClientMS += rs.ms
		l.TransportMS += rs.ms - sp.rootMS
		l.ServerMS += sp.rootMS
		self := sp.rootMS
		for i, name := range obs.StageNames {
			l.StagesMS[name] += sp.stages[i]
			self -= sp.stages[i]
		}
		l.SelfMS += self
		l.ShardMaxMS += sp.shardMax
	}
	if n := float64(l.Requests); n > 0 {
		l.ClientMS /= n
		l.TransportMS /= n
		l.ServerMS /= n
		l.SelfMS /= n
		l.ShardMaxMS /= n
		for k := range l.StagesMS {
			l.StagesMS[k] /= n
		}
	}
	return l
}

// flattenInto adds a registry snapshot's counters and histogram sums
// and counts to m, summing names that several registries share.
func flattenInto(m map[string]float64, s obs.Snapshot) {
	for k, v := range s.Counters {
		m[k] += float64(v)
	}
	for k, h := range s.Histograms {
		m[k+".sum"] += h.Sum
		m[k+".count"] += float64(h.Count)
	}
}

// sumSuffix totals the entries named name in any registry, including
// the per-shard copies a sharded set re-keys as "shard<i>.<name>".
func sumSuffix(m map[string]float64, name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || strings.HasSuffix(k, "."+name) {
			t += v
		}
	}
	return t
}
