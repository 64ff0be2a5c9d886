package main

import "fmt"

// metricDef names one reported figure. BENCHMARK.json lists the same
// names and units; catalog_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the figures an analyst or operator sees, reported by
// the untraced run (--trace 0) of every workload.
var endToEnd = []metricDef{
	// Start until the first round (serve-exact) or the first segment
	// (live) can be served; the median of several set-ups.
	{"setup_s", "s"},
	// Round latencies timed from when the round was due.
	{"query_ms_p50", "ms"},
	{"feedback_ms_p50", "ms"},
	// Top-20 precision after the fifth round (§6, the paper's measure).
	{"final_accuracy", "fraction"},
	// The resident set during the load, median of 20 ms samples.
	{"rss_mb_p50", "MB"},
}

// perLayer are the figures of the traced run (--trace 1). Each names
// the layer it times; README.md says which end-to-end figure it should
// move on which workload. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"videodb.load_s", "s"},
	{"index.build_s", "s"},
	{"retrieval.heuristic_ms", "ms"},
	{"retrieval.rank_ms", "ms"},
	{"mil.train_ms", "ms"},
	{"mil.score_ms", "ms"},
	{"kernel.cache_hit_ratio", "fraction"},
	{"index.probe_ms", "ms"},
	{"index.dist_evals_per_round", "count"},
	{"retrieval.candidates_per_round", "count"},
	{"server.encode_ms", "ms"},
	{"server.response_kb", "KiB"},
	{"server.overhead_ms", "ms"},
	{"server.live_retries_per_round", "count"},
	{"render.frame_ms", "ms"},
	{"segment.background_ms", "ms"},
	{"segment.frame_ms", "ms"},
	{"track.frame_ms", "ms"},
	{"window.extract_ms", "ms"},
	{"core.segment_s", "s"},
	{"core.overlap", "ratio"},
	{"ingestd.queue_wait_s", "s"},
	{"index.apply_ms", "ms"},
	{"index.apply_inserted", "count"},
	{"index.compactions", "count"},
	{"ingestd.snapshot_ms", "ms"},
	{"ingestd.backpressure", "count"},
	{"ingestd.shed", "count"},
	{"go.heap_peak_mb", "MB"},
	{"go.gc_cpu_fraction", "fraction"},
	{"loadgen.late_ms_p90", "ms"},
	// The traced run's own end-to-end figures: their distance from the
	// untraced run's is the tracing overhead.
	{"trace.query_ms_p50", "ms"},
	{"trace.feedback_ms_p50", "ms"},
	// The feedback rounds' p90 is reported here, not gated: on live it
	// sits where rounds that ran alone meet rounds that ran beside the
	// vision pipeline, and read 4.9–29 ms over seven runs.
	{"trace.feedback_ms_p90", "ms"},
	// Freshness on live: from a segment's due time to the return of the
	// ApplyLive call that makes its windows live, median over the feed.
	// Not gated: serve-exact ingests no segments and could only repeat
	// its set-up here, and live's moved by up to 24% of its median
	// between seeds when the host was unsteady.
	{"trace.queryable_s_p50", "s"},
	{"trace.spans", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's figures by name.
type metrics map[string]metric

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// set records a catalogued figure; an unknown name is a bug.
func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: uncatalogued metric %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// only returns the figures of defs, zero-filling any a workload does
// not exercise, so every run reports the full catalogue.
func (m metrics) only(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			v = metric{Unit: d.unit}
		}
		out[d.name] = v
	}
	return out
}
