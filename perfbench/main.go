// Command perfbench is the repository's benchmark. It builds its own
// seeded inputs, drives the real query server over HTTP, the ingest
// daemon and the vision pipeline from outside, checks their outputs,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve-exact --seed 1 --seconds 50 --trace 0
//
// Workloads: serve-exact and live (README.md says why each exists, what
// each layer figure should move, and what was left out). With --trace 0
// the result carries the end-to-end figures; with --trace 1 a separate
// run records spans around the calls into each layer's public
// functions and reports the per-layer figures. A failed correctness
// check makes the command exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"milvideo/internal/server"
)

// env is one run's settings.
type env struct {
	seed    int64
	seconds int
	tr      *tracer // nil unless --trace 1
	outDir  string
	// slots bounds requests in flight and the server's re-rank workers:
	// one per core.
	slots int
}

// outcome is what a workload measured and checked.
type outcome struct {
	m                        metrics
	attempted, failed        int
	sessions, sessionsFail   int
	segments, segmentsFailed int
	// serviceMeanMs is the load's mean request-to-reply time.
	serviceMeanMs float64
	problems      []string
	notes         []string
	// omit names figures measured by a probe that no longer matches
	// the program.
	omit []string
}

func newOutcome() *outcome { return &outcome{m: make(metrics)} }

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// addRounds counts a load's rounds and sessions.
func (o *outcome) addRounds(st *roundStats) {
	o.attempted += st.attempted
	o.failed += st.failed
	o.sessions += st.sessions
	o.sessionsFail += st.sessionsFailed
	o.serviceMeanMs = mean(st.serviceMs)
	o.note("query rounds: %d, p10/25/50/75/90 %s ms; feedback rounds: %d, %s ms",
		len(st.queryMs), fmtList(quantiles(st.queryMs)), len(st.feedbackMs), fmtList(quantiles(st.feedbackMs)))
	if len(st.serviceMs) > 0 {
		o.note("rounds: %d served; slot wait p50 %.2f ms max %.1f ms; service p50 %.2f ms; generator late p50 %.3f ms",
			len(st.serviceMs), median(st.waitMs), maxOf(st.waitMs), median(st.serviceMs), median(st.lateMs))
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// setupFigures sets setup_s from the run's set-up samples.
func (o *outcome) setupFigures(setupS []float64) {
	o.m.set("setup_s", median(setupS))
	o.note("set-ups: %s s", fmtList(setupS))
}

// roundFigures sets the round latencies: end-to-end untraced, under
// trace.* in the traced run.
func (o *outcome) roundFigures(st *roundStats, e *env) error {
	if e.tr == nil {
		return st.roundMetrics(o.m)
	}
	o.m.set("trace.query_ms_p50", median(st.queryMs))
	o.m.set("trace.feedback_ms_p50", median(st.feedbackMs))
	p90, err := st.feedbackP90()
	if err != nil {
		return err
	}
	o.m.set("trace.feedback_ms_p90", p90)
	late, err := st.lateP90()
	if err != nil {
		return err
	}
	o.m.set("loadgen.late_ms_p90", late)
	return nil
}

// serverStats takes the program's own counters from /v1/stats.
func (o *outcome) serverStats(s *server.StatsResponse) {
	o.m.set("kernel.cache_hit_ratio", s.KernelCache.HitRatio)
	if p := s.Index.PrunedRounds; p > 0 {
		o.m.set("index.dist_evals_per_round", float64(s.Index.DistEvals)/float64(p))
		o.m.set("retrieval.candidates_per_round", float64(s.Index.CandidatesRanked)/float64(p))
	}
	// What a request costs beyond ranking: HTTP, JSON both ways and the
	// wait for a re-rank slot, as the load's mean request time less the
	// server's own mean rank time.
	if s.RerankLatency.Count > 0 {
		o.m.set("server.overhead_ms", max(0, o.serviceMeanMs-s.RerankLatency.MeanMs))
	}
	if s.Live != nil && s.Live.Rounds > 0 {
		o.m.set("server.live_retries_per_round", float64(s.Live.Retries)/float64(s.Live.Rounds))
	}
	o.note("server: rounds_served %d rejected %d timed_out %d kernel_cache_hit_ratio %.3f pruned_rounds %d full_rounds %d",
		s.RoundsServed, s.RequestsRejected, s.Degraded.RoundsTimedOut, s.KernelCache.HitRatio,
		s.Index.PrunedRounds, s.Index.FullRounds)
}

// addReplay folds in the identity check and the replay's figures.
func (o *outcome) addReplay(rp *replayer) {
	o.attempted += rp.rounds
	o.failed += rp.mismatches
	if rp.mismatches > 0 {
		o.problem("%d of %d replayed rounds ranked differently over HTTP than retrieval.RankRound", rp.mismatches, rp.rounds)
	}
	if rp.tr == nil {
		return
	}
	o.m.set("server.encode_ms", median(rp.encodeMs))
	o.m.set("server.response_kb", median(rp.responseKB))
	if rp.probeDiverged > 0 {
		o.note("mil probe ranked %d rounds differently from the program's engine: mil.train_ms and mil.score_ms not reported", rp.probeDiverged)
		o.omit = append(o.omit, "mil.train_ms", "mil.score_ms")
	}
}

// spanMetrics maps span names to per-layer figures: each is the median
// over the run's spans of that name, of their self time (their own
// duration less their children's) or their total.
var spanMetrics = []struct {
	span, metric string
	self         bool
	perMs        float64 // figure units per millisecond
}{
	{"videodb.load", "videodb.load_s", false, 1e-3},
	{"index.build", "index.build_s", false, 1e-3},
	{"retrieval.heuristic", "retrieval.heuristic_ms", false, 1},
	{"retrieval.rank", "retrieval.rank_ms", false, 1},
	{"mil.train", "mil.train_ms", true, 1},
	{"mil.score", "mil.score_ms", true, 1},
	{"index.probe", "index.probe_ms", true, 1},
	{"render.frame", "render.frame_ms", true, 1},
	{"segment.background", "segment.background_ms", true, 1},
	{"segment.frame", "segment.frame_ms", true, 1},
	{"track.frame", "track.frame_ms", true, 1},
	{"window.extract", "window.extract_ms", true, 1},
	{"core.segment", "core.segment_s", false, 1e-3},
	{"ingestd.snapshot", "ingestd.snapshot_ms", false, 1},
}

// traceFigures sets the span-derived per-layer figures and core.overlap.
func (o *outcome) traceFigures(tr *tracer) {
	layers := tr.layers()
	for _, sm := range spanMetrics {
		lt := layers[sm.span]
		if lt == nil {
			continue
		}
		v := lt.TotalMedianMs
		if sm.self {
			v = lt.SelfMedianMs
		}
		o.m.set(sm.metric, v*sm.perMs)
	}
	// Overlap: the stage-by-stage replay's summed stage time over the
	// streaming pipeline's wall time for the same segments.
	if seg := layers["core.segment"]; seg != nil {
		var stages float64
		for _, name := range []string{"render.frame", "segment.background", "segment.frame", "track.frame", "window.extract"} {
			if lt := layers[name]; lt != nil {
				stages += sum(lt.TotalMs)
			}
		}
		if total := sum(seg.TotalMs); total > 0 {
			o.m.set("core.overlap", stages/total)
		}
	}
	o.m.set("trace.spans", float64(len(tr.spans)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", serveExactName+" or "+liveName)
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 50, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer figures")
	outDir := flag.String("out", ".bench_build/out", "directory for snapshots, traces and per-seed records")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	e := &env{seed: seed, seconds: seconds, outDir: outDir, slots: runtime.NumCPU()}
	if trace == 1 {
		e.tr = newTracer()
	}
	var runner func(context.Context, *env) (*outcome, error)
	switch workload {
	case serveExactName:
		runner = runServeExact
	case liveName:
		runner = runLive
	default:
		return fmt.Errorf("unknown --workload %q (%s, %s)", workload, serveExactName, liveName)
	}

	host := newHostRecord()
	host.calibrate(0)
	start := time.Now()
	out, err := runner(context.Background(), e)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	elapsed := time.Since(start)
	host.calibrate(1)

	defs := endToEnd
	if e.tr != nil {
		out.traceFigures(e.tr)
		for _, name := range out.omit {
			delete(out.m, name)
		}
		defs = perLayer
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
		if err := e.tr.write(path); err != nil {
			return err
		}
		out.note("trace: %d spans written to %s", len(e.tr.spans), path)
	}
	for _, d := range endToEnd {
		if _, ok := out.m[d.name]; !ok && e.tr == nil {
			return fmt.Errorf("%s: end-to-end figure %s was not measured", workload, d.name)
		}
	}

	// Human-readable account on standard error; the host record and
	// the result on standard output, the result last.
	fmt.Fprintf(os.Stderr, "%s seed %d: %.1f s; %d/%d sessions failed, %d/%d segments failed, %d/%d operations failed\n",
		workload, seed, elapsed.Seconds(), out.sessionsFail, out.sessions, out.segmentsFailed, out.segments, out.failed, out.attempted)
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED: "+p)
	}
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.m.only(defs),
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %s", workload, strings.Join(out.problems, "; "))
	}
	return nil
}
