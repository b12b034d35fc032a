package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dataset"
	"repro/internal/imagegen"
	"repro/internal/rf"
)

// scale sizes every generated input. fullScale is what the benchmark
// runs; the self-test uses tinyScale.
type scale struct {
	PaperCats, PaperPerCat, ImageSize int
	HighCats, HighPerCat, HighDim     int
	// Prefix is how many sessions per client the oracle replays and
	// precision_at_100 averages over: PaperPrefix on paper, HighPrefix
	// on highdim, which completes fewer sessions per run, IngestPrefix
	// for the single reader of ingest-sharded.
	PaperPrefix, HighPrefix, IngestPrefix int
	// Probes is the number of final-state probe queries on
	// ingest-sharded; ShardProbe the sessions replayed on the in-process
	// 4-shard set; AllocProbe the sessions driven through the handler
	// for allocation counting.
	Probes, ShardProbe, AllocProbe int
	// MaxIngest caps the vectors the writer may send in one run.
	MaxIngest int
	// WarmupSeconds runs before measuring; each session and results
	// request uses K results.
	WarmupSeconds float64
	K             int
}

var fullScale = scale{
	PaperCats: 300, PaperPerCat: 100, ImageSize: 32,
	HighCats: 328, HighPerCat: 100, HighDim: 32,
	PaperPrefix: 600, HighPrefix: 150, IngestPrefix: 1000,
	Probes: 20, ShardProbe: 6, AllocProbe: 4,
	MaxIngest:     400_000,
	WarmupSeconds: 1.5,
	K:             100,
}

var tinyScale = scale{
	PaperCats: 12, PaperPerCat: 25, ImageSize: 16,
	HighCats: 16, HighPerCat: 25, HighDim: 32,
	PaperPrefix: 3, HighPrefix: 2, IngestPrefix: 3,
	Probes: 3, ShardProbe: 2, AllocProbe: 1,
	MaxIngest:     20_000,
	WarmupSeconds: 0.1,
	K:             20,
}

// feature is one searchable vector space: its vectors, category
// labels and the simulated user that marks results.
type feature struct {
	name   string
	vecs   [][]float64 // initial collection, id order
	labels []int       // id -> category; covers ingested ids too
	oracle *rf.Oracle
}

func newFeature(name string, vecs [][]float64, labels, themes []int) *feature {
	return &feature{name: name, vecs: vecs, labels: labels, oracle: rf.NewOracle(labels, themes)}
}

// inputs is everything a run holds in memory before set-up.
type inputs struct {
	feats  []*feature
	stream *ingestStream // ingest-sharded only
	params map[string]any
}

// collectionSeed fixes the collections: like the paper's one Corel
// test set, every run searches the same images (seed 2003, as cmd/qgen
// builds by default) and the same mixture. The run's seed draws what
// varies between users: the session scripts and the ingest stream.
// Varying the collection too moves precision_at_100 by ±7% between
// seeds, more than any change it is meant to catch.
const collectionSeed = 2003

// makeInputs generates the workload's inputs. The program under test
// only ever receives the vectors.
func makeInputs(workload string, seed uint64, sc scale) (*inputs, error) {
	switch workload {
	case "paper", "ingest-sharded":
		ds, err := dataset.Build(dataset.Config{Collection: imagegen.CollectionConfig{
			Seed:              collectionSeed,
			NumCategories:     sc.PaperCats,
			ImagesPerCategory: sc.PaperPerCat,
			ImageSize:         sc.ImageSize,
			BimodalFrac:       0.3,
		}})
		if err != nil {
			return nil, fmt.Errorf("build collection: %w", err)
		}
		themes := make([]int, len(ds.Col.Categories))
		for i, c := range ds.Col.Categories {
			themes[i] = c.Theme
		}
		labels := ds.Col.Labels()
		params := map[string]any{
			"categories": sc.PaperCats, "images_per_category": sc.PaperPerCat,
			"image_px": sc.ImageSize, "bimodal_frac": 0.3, "collection_seed": collectionSeed,
			"k": sc.K, "feedback_rounds": 5,
		}
		if workload == "paper" {
			params["features"] = "color 3-d, texture 4-d, one unsharded in-memory server each; client i uses feature i mod 2"
			return &inputs{
				feats: []*feature{
					newFeature("color", plain(ds.Color), labels, themes),
					newFeature("texture", plain(ds.Texture), labels, themes),
				},
				params: params,
			}, nil
		}
		color := plain(ds.Color)
		st := newIngestStream(seed, color, labels, sc.MaxIngest)
		params["features"] = "color 3-d on a durable 4-shard set; client 0 writes, the others run sessions"
		params["shards"] = 4
		params["ingest_batch"] = ingestBatch
		params["writer_think_ms"] = writerThink.Milliseconds()
		return &inputs{
			feats:  []*feature{newFeature("color", color, st.labels, themes)},
			stream: st,
			params: params,
		}, nil
	case "highdim":
		vecs, labels, themes := gaussianMixture(collectionSeed, sc.HighCats, sc.HighPerCat, sc.HighDim)
		return &inputs{
			feats: []*feature{newFeature("mixture", vecs, labels, themes)},
			params: map[string]any{
				"categories": sc.HighCats, "per_category": sc.HighPerCat, "dim": sc.HighDim,
				"bimodal": "every other category", "themes": "4 categories each", "collection_seed": collectionSeed,
				"k": sc.K, "feedback_rounds": 5, "server": "one unsharded in-memory server",
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func plain[T ~[]float64](vs []T) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// gaussianMixture draws cats×perCat dim-d vectors: category centers
// scattered around one center per theme of four categories, every
// other category split into two modes. The spreads overlap categories
// enough that a plain k=100 search finds ~60% of its category and the
// tree prunes under 10% of its leaves.
func gaussianMixture(seed uint64, cats, perCat, dim int) (vecs [][]float64, labels, themes []int) {
	rng := rand.New(rand.NewPCG(seed, 0x4d49585455524531))
	gauss := func(center []float64, sd float64) []float64 {
		v := make([]float64, dim)
		for d := range v {
			v[d] = center[d] + sd*rng.NormFloat64()
		}
		return v
	}
	origin := make([]float64, dim)
	themes = make([]int, cats)
	var themeCenter []float64
	for c := 0; c < cats; c++ {
		themes[c] = c / 4
		if c%4 == 0 {
			themeCenter = gauss(origin, 1.5)
		}
		center := gauss(themeCenter, 0.6)
		modes := [][]float64{center}
		if c%2 == 1 {
			modes = [][]float64{gauss(center, 0.5), gauss(center, 0.5)}
		}
		for i := 0; i < perCat; i++ {
			vecs = append(vecs, gauss(modes[i%len(modes)], 1))
			labels = append(labels, c)
		}
	}
	return vecs, labels, themes
}

// ingestBatch is the number of vectors per POST /v1/vectors.
const ingestBatch = 16

// ingestStream is the writer's deterministic input: vector j is a small
// perturbation of collection vector src[j] and carries its category.
// A single writer sends batches in order, so the j-th vector sent gets
// global id base+j; labels covers those ids up front, which lets the
// oracle mark an ingested result without sharing state with the writer.
type ingestStream struct {
	seed   uint64
	base   [][]float64
	src    []int
	sd     float64
	labels []int
}

func newIngestStream(seed uint64, base [][]float64, labels []int, max int) *ingestStream {
	rng := rand.New(rand.NewPCG(seed, 0x494e474553543031))
	st := &ingestStream{seed: seed, base: base, src: make([]int, max), sd: 0.01}
	st.labels = make([]int, len(base)+max)
	copy(st.labels, labels)
	for j := range st.src {
		st.src[j] = rng.IntN(len(base))
		st.labels[len(base)+j] = labels[st.src[j]]
	}
	return st
}

// vector returns stream vector j; the same j always gives the same bits.
func (st *ingestStream) vector(j int) []float64 {
	rng := rand.New(rand.NewPCG(st.seed^uint64(j), 0x564543544f523031))
	b := st.base[st.src[j]]
	v := make([]float64, len(b))
	for d := range v {
		v[d] = b[d] + st.sd*rng.NormFloat64()
	}
	return v
}

// script is one client's endless, seeded sequence of session examples.
type script struct {
	rng *rand.Rand
	n   int
}

func newScript(seed uint64, stream uint64, n int) *script {
	return &script{rng: rand.New(rand.NewPCG(seed, stream)), n: n}
}

func (s *script) next() int { return s.rng.IntN(s.n) }

// marksFor is the simulated user's judgement of one result page: every
// result the oracle scores above zero, in page order. A page without a
// relevant result re-marks the example itself, which the query model
// has already absorbed, so the round is a no-op rather than an empty
// (rejected) feedback request.
func marksFor(f *feature, example int, page []hit) []mark {
	cat := f.labels[example]
	var out []mark
	for _, h := range page {
		if s := f.oracle.Score(cat, h.ID); s > 0 {
			out = append(out, mark{ID: h.ID, Score: s})
		}
	}
	if len(out) == 0 {
		out = append(out, mark{ID: example, Score: f.oracle.Score(cat, example)})
	}
	return out
}

// precision is the same-category share of a page.
func precision(f *feature, example int, page []hit, k int) float64 {
	cat := f.labels[example]
	n := 0
	for _, h := range page {
		if f.oracle.Relevant(cat, h.ID) {
			n++
		}
	}
	return float64(n) / float64(k)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
