package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"milvideo/internal/core"
	"milvideo/internal/frame"
	"milvideo/internal/index"
	"milvideo/internal/ingestd"
	"milvideo/internal/render"
	"milvideo/internal/segment"
	"milvideo/internal/server"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

const (
	liveName = "live"
	liveFeed = "live"
	// liveFrames is a feed segment's length.
	liveFrames = 100
	// liveInterval paces the feed: one 100-frame segment per 2.5 s, 40
	// frames/s, is about 10–15% of the daemon's flat-out 270–430
	// frames/s (the prefill's rate, higher while the host's second core
	// is there) on a 2-core x86 host. The daemon runs two pipeline
	// workers; while both hold a proc, a round waits for the Go
	// scheduler to preempt one, up to tens of ms against the round's
	// 2–3 ms. At one segment per 1.5 s (about 25%) enough rounds did
	// that the round medians moved by 14–18% of themselves over five
	// seeds, and at one per 1.0 s (about 37%) the query median sat at
	// the knee where those rounds begin; at 2.5 s they moved by 6%.
	liveInterval = 2500 * time.Millisecond
	// liveSessionRate is the analyst's session arrival rate (per
	// second). One analyst looping sessions back to back over the full
	// 96-window feed completed 67–87 sessions/s (5 s in each of two
	// runs, on a 2-core x86 host); 5/s is about 6–7% of that, so the
	// vision pipeline does most of the work and serving little, and a
	// 50 s run still has 250 sessions, 1,000 feedback rounds.
	liveSessionRate = 5.0
	liveRetain      = 16
	liveSnapEvery   = 2 * time.Second
	// liveCandidates is the VP-tree candidate set; the retained feed
	// holds 96 VSs, so rounds with feedback are pruned once it has more
	// than 64.
	liveCandidates = 64
	// liveSetups is how many times a run sets up; setup_s is their
	// median.
	liveSetups = 11
	// livePrefill is how many segments the feed takes flat out before
	// the measured load starts: the retention window. A round's cost
	// follows the feed's size, from about 0.3 ms over the first
	// segment's windows to about 2.8 ms over the full 96, and when the
	// load started on a one-segment feed the feedback median sat where
	// the filling feed's cheap rounds met the full feed's dear ones.
	// From a full feed the load is steady: each paced segment evicts
	// the oldest.
	livePrefill = liveRetain
	// liveReplays is how many feed segments the traced run replays
	// stage by stage.
	liveReplays = 4
)

// schedSource delivers the seeded SimSource feed: segments below
// prefill as soon as the daemon asks, then, on a fixed open-loop
// schedule, segment n ≥ prefill at start + (n−prefill)·liveInterval
// once begin is closed. It records each segment's due time, so
// queryable time is charged from when the segment arrived at the
// camera, not from when the daemon got to it.
type schedSource struct {
	gen     ingestd.SimSource
	limit   int
	prefill int
	created time.Time
	begin   chan struct{} // closed once start is set
	start   time.Time

	mu     sync.Mutex
	due    []time.Time
	scenes map[int]*sim.Scene // segments the traced run replays
	keep   map[int]bool
}

func (s *schedSource) Next(ctx context.Context) (*sim.Scene, error) {
	s.mu.Lock()
	n := len(s.due)
	s.mu.Unlock()
	if n >= s.limit {
		return nil, io.EOF
	}
	due := time.Now()
	if n >= s.prefill {
		select {
		case <-s.begin:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		due = s.start.Add(time.Duration(n-s.prefill) * liveInterval)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
	scene, err := s.gen.Next(ctx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.due = append(s.due, due)
	if s.keep[n] {
		s.scenes[n] = scene
	}
	s.mu.Unlock()
	return scene, nil
}

func (s *schedSource) dueTimes() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.due...)
}

// applied is one ApplyLive call as the benchmark saw it.
type applied struct {
	seq      int
	done     time.Time
	dur      time.Duration
	vss      int // VSs the committed segment carried
	outcome  ingestd.ApplyOutcome
	applyErr error
}

// applyProbe sits between the daemon and the server's ApplyLive and
// stamps when each segment's windows became live.
type applyProbe struct {
	srv *server.Server
	db  *videodb.DB
	tr  *tracer

	mu      sync.Mutex
	applies []applied
	first   chan struct{} // closed after the first apply
	prefill int
	filled  chan struct{} // closed after apply number prefill
}

func (p *applyProbe) ApplyLive(clip string, vss []window.VS, gen uint64) (ingestd.ApplyOutcome, error) {
	id := p.tr.begin("index.apply", "ingest", 0)
	start := time.Now()
	out, err := p.srv.ApplyLive(clip, vss, gen)
	done := time.Now()
	p.tr.end(id)
	// The committer is one goroutine and calls ApplyLive right after a
	// commit, so the newest segment record is the one being applied.
	seq, segVSs := newestSegment(p.db)
	p.mu.Lock()
	p.applies = append(p.applies, applied{seq: seq, done: done, dur: done.Sub(start), vss: segVSs, outcome: out, applyErr: err})
	if len(p.applies) == 1 {
		close(p.first)
	}
	if len(p.applies) == p.prefill {
		close(p.filled)
	}
	p.mu.Unlock()
	return out, err
}

func (p *applyProbe) DropClips(names []string) int { return p.srv.DropClips(names) }

func (p *applyProbe) records() []applied {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]applied(nil), p.applies...)
}

// newestSegment returns the highest segment sequence number in the
// catalog and that segment's VS count (-1 when there is none).
func newestSegment(db *videodb.DB) (int, int) {
	best := -1
	for _, name := range db.Names() {
		if rest, ok := strings.CutPrefix(name, liveFeed+"-seg-"); ok {
			if n, err := strconv.Atoi(rest); err == nil && n > best {
				best = n
			}
		}
	}
	if best < 0 {
		return -1, 0
	}
	rec, err := db.Clip(fmt.Sprintf("%s-seg-%06d", liveFeed, best))
	if err != nil {
		return best, 0
	}
	return best, len(rec.VSs)
}

// liveStack is one set-up of the live workload: an empty catalog, the
// ingest daemon over the scheduled feed, and the server as its
// Applier.
type liveStack struct {
	db     *videodb.DB
	src    *schedSource
	daemon *ingestd.Daemon
	srv    *server.Server
	front  *httpFront
	probe  *applyProbe
}

func (l *liveStack) close() {
	l.daemon.Stop()
	l.front.close()
	l.srv.Close()
}

// setUpLive starts a stack whose feed holds limit segments, the first
// prefill of them unpaced, and waits until the first is queryable.
func setUpLive(ctx context.Context, e *env, limit, prefill int, keep map[int]bool) (*liveStack, time.Duration, error) {
	start := time.Now()
	snap := liveSnapPath(e)
	// A snapshot left by an earlier set-up would be recovered; every
	// set-up starts from an empty feed.
	if err := os.Remove(snap); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	db := videodb.New()
	src := &schedSource{
		gen:     ingestd.SimSource{Seed: corpusSeed, Frames: liveFrames},
		created: time.Now(),
		limit:   limit,
		prefill: prefill,
		begin:   make(chan struct{}),
		scenes:  make(map[int]*sim.Scene),
		keep:    keep,
	}
	daemon, err := ingestd.New(ingestd.Config{
		DB:             db,
		Source:         src,
		FeedClip:       liveFeed,
		RetainSegments: liveRetain,
		SnapshotPath:   snap,
		SnapshotEvery:  liveSnapEvery,
	})
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(server.Config{
		DB:                db,
		Ingest:            daemon,
		DefaultIndex:      "vptree",
		DefaultCandidates: liveCandidates,
		RerankWorkers:     e.slots,
	})
	if err != nil {
		return nil, 0, err
	}
	front, err := serveHTTP(srv.Handler(), e.slots)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	probe := &applyProbe{srv: srv, db: db, tr: e.tr, first: make(chan struct{}),
		prefill: prefill, filled: make(chan struct{})}
	l := &liveStack{db: db, src: src, daemon: daemon, srv: srv, front: front, probe: probe}
	if err := daemon.Start(ctx, probe); err != nil {
		front.close()
		srv.Close()
		return nil, 0, err
	}
	select {
	case <-probe.first:
	case <-time.After(30 * time.Second):
		l.close()
		return nil, 0, errors.New("first segment never became queryable")
	}
	return l, time.Since(start), nil
}

// liveSnapPath is where the daemon writes its snapshots.
func liveSnapPath(e *env) string {
	return filepath.Join(e.outDir, fmt.Sprintf("live-%d.snap", e.seed))
}

// liveRecord is what a run found in the drained feed. The feed's
// content is fixed (corpusSeed), so every run of one build, whatever
// its --seed, must find the same.
type liveRecord struct {
	FeedVSs       int     `json:"feed_vss"`
	Incidents     int     `json:"incidents"`
	FinalAccuracy float64 `json:"final_accuracy"`
}

func runLive(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	// segments are the paced ones, numbered livePrefill onwards.
	segments := int(time.Duration(e.seconds) * time.Second / liveInterval)
	keep := make(map[int]bool)
	if e.tr != nil {
		for _, i := range rand.New(rand.NewSource(e.seed)).Perm(segments)[:liveReplays] {
			keep[livePrefill+i] = true
		}
	}

	// One set-up serves the load; the others run half before it and
	// half after the load (see spreadSetups), and each must find the
	// same first segment.
	defer os.Remove(liveSnapPath(e)) // after the last daemon stops
	firstVSs := -1
	sameFirst := func(i int, vss int) {
		if firstVSs < 0 {
			firstVSs = vss
		} else if vss != firstVSs {
			out.problem("set-up %d's first segment has %d VSs, set-up 0's had %d", i, vss, firstVSs)
		}
	}
	extra := func(i int) (func(), error) {
		other, _, err := setUpLive(ctx, e, 1, 1, nil)
		if err != nil {
			return nil, err
		}
		sameFirst(i, other.probe.records()[0].vss)
		return other.close, nil
	}
	setupS, err := spreadSetups(nil, liveSetups/2, extra)
	if err != nil {
		return nil, err
	}
	freshHeap()
	l, took, err := setUpLive(ctx, e, livePrefill+segments, livePrefill, keep)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer l.close()
	setupS = append(setupS, took.Seconds())
	sameFirst(len(setupS)-1, l.probe.records()[0].vss)
	select {
	case <-l.probe.filled:
	case <-time.After(2 * time.Minute):
		return nil, fmt.Errorf("the feed took more than 2 min to fill %d segments", livePrefill)
	}
	fill := time.Since(l.src.created)
	out.note("prefill: %d segments in %.2f s, %.0f frames/s flat out", livePrefill, fill.Seconds(),
		float64(livePrefill*liveFrames)/fill.Seconds())
	filled, err := l.front.client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	a := &analyst{client: l.front.client, slots: make(inflight, e.slots), clip: liveFeed, rounds: protocolRounds}
	n := int(math.Round(liveSessionRate * float64(e.seconds)))
	arrivals := poissonArrivals(e.seed, liveSessionRate, n)
	sessions := make([]sessionRecord, n)
	rt := startRuntimeSampler()
	start := time.Now()
	l.src.start = start
	close(l.src.begin)
	openLoop(ctx, start, arrivals, func(i int, due time.Time) {
		judge, err := feedJudge(l.db)
		if err != nil {
			sessions[i] = sessionRecord{precision: -1, rounds: []roundRecord{{err: err}}}
			return
		}
		sessions[i] = a.session(ctx, due, judge)
		dropRankings(&sessions[i])
	})
	l.daemon.Wait()
	rt.finish(out.m)

	var st roundStats
	for _, sr := range sessions {
		st.add(sr, protocolRounds)
	}
	out.addRounds(&st)
	if err := out.roundFigures(&st, e); err != nil {
		return nil, err
	}

	// Freshness: every scheduled segment must have become queryable.
	due := l.src.dueTimes()
	applies := l.probe.records()
	appliedAt := make(map[int]applied, len(applies))
	var applyMs, inserted []float64
	compactions := 0
	for _, ap := range applies {
		appliedAt[ap.seq] = ap
		applyMs = append(applyMs, ms(ap.dur))
		inserted = append(inserted, float64(ap.outcome.Inserted))
		compactions += ap.outcome.Rebuilds
		if ap.applyErr != nil {
			out.problem("apply of segment %d: %v", ap.seq, ap.applyErr)
		}
	}
	var queryable []float64
	out.segments = livePrefill + segments
	for seq := 0; seq < out.segments; seq++ {
		ap, ok := appliedAt[seq]
		if !ok || seq >= len(due) {
			out.segmentsFailed++
			continue
		}
		if seq >= livePrefill {
			queryable = append(queryable, ap.done.Sub(due[seq]).Seconds())
		}
	}
	out.attempted += out.segments
	out.failed += out.segmentsFailed
	if len(queryable) == 0 {
		return nil, errors.New("no segment became queryable")
	}
	out.m.set("trace.queryable_s_p50", median(queryable))
	out.note("queryable: p50 %.3f s over %d paced segments", median(queryable), len(queryable))
	out.m.set("index.apply_ms", median(applyMs))
	out.m.set("index.apply_inserted", median(inserted))
	out.m.set("index.compactions", float64(compactions))

	stats, err := l.front.client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out.serverStats(stats)
	if ing := stats.Ingest; ing != nil {
		// The prefill queues segments on purpose; count the paced load's.
		var before uint64
		if filled.Ingest != nil {
			before = filled.Ingest.BackpressureWaits
		}
		out.m.set("ingestd.backpressure", float64(ing.BackpressureWaits-before))
		out.m.set("ingestd.shed", float64(ing.Shed))
		out.note("ingest: arrived %d committed %d shed %d process_failures %d empty %d commits_dropped %d apply_errors %d snapshots %d",
			ing.Arrived, ing.Committed, ing.Shed, ing.ProcessFailures, ing.EmptySegments,
			ing.CommitsDropped, ing.ApplyErrors, ing.Snapshots)
	}

	// Quality: ground-truth oracle sessions over the drained feed,
	// ranked exactly so the figure repeats run after run.
	feed, err := l.db.Clip(liveFeed)
	if err != nil {
		return nil, err
	}
	acc, oracle, err := oracleSessions(ctx, l, feed)
	if err != nil {
		return nil, err
	}
	out.m.set("final_accuracy", acc)
	out.attempted += len(oracle) * protocolRounds
	rp := &replayer{tr: e.tr, db: feed.VSs, topK: protocolTopK}
	for i, sr := range oracle {
		if err := rp.session(i, sr); err != nil {
			return nil, err
		}
	}
	out.addReplay(rp)
	rec := liveRecord{FeedVSs: len(feed.VSs), Incidents: len(feed.Incidents), FinalAccuracy: acc}
	if path, err := liveRecordPath(e.outDir, segments); err != nil {
		return nil, err
	} else if err := checkLiveRecord(path, rec); err != nil {
		out.problem("%v", err)
	}
	out.note("final feed: %d VSs, %d incidents, %d oracle sessions", rec.FeedVSs, rec.Incidents, len(oracle))

	setupS, err = spreadSetups(setupS, liveSetups, extra)
	if err != nil {
		return nil, err
	}
	out.setupFigures(setupS)

	if e.tr != nil {
		if err := timeIndex(e, feed, oracle); err != nil {
			return nil, err
		}
		wait, err := replaySegments(e, l, appliedAt, due)
		if err != nil {
			return nil, err
		}
		out.m.set("ingestd.queue_wait_s", wait)
		if err := timeSnapshots(e, l.db); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// feedJudge judges entries by the feed's ground-truth incident log as
// the catalog holds it now: a window is relevant when any incident
// overlaps it. Judged for accidents alone, most sessions over the
// 96-window feed found no relevant window, so their feedback rounds
// fell back to the heuristic (about 0.3 ms) while the rest trained the
// learner (about 1.2 ms), and the feedback median sat between the two
// clusters, moving by a quarter of itself from seed to seed.
func feedJudge(db *videodb.DB) (server.Judge, error) {
	rec, err := db.Clip(liveFeed)
	if err != nil {
		return nil, err
	}
	return server.JudgeFromRecord(rec, func(sim.IncidentType) bool { return true })
}

// oracleSessions runs one exact-ranked session per query target — all
// accidents, then each incident type present in the feed — and returns
// their mean final precision. A target with fewer than top-k relevant
// windows in the feed is scored out of the windows it has, so the
// figure measures ranking rather than how many incidents the feed
// holds; on a catalog with top-k or more it is plain precision.
func oracleSessions(ctx context.Context, l *liveStack, feed *videodb.ClipRecord) (float64, []sessionRecord, error) {
	targets := []func(sim.IncidentType) bool{func(t sim.IncidentType) bool { return t.IsAccident() }}
	seen := make(map[sim.IncidentType]bool)
	var types []sim.IncidentType
	for _, inc := range feed.Incidents {
		if !seen[inc.Type] {
			seen[inc.Type] = true
			types = append(types, inc.Type)
		}
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		targets = append(targets, func(u sim.IncidentType) bool { return u == t })
	}
	a := &analyst{client: l.front.client, slots: make(inflight, 1), clip: liveFeed, index: "exact", rounds: protocolRounds}
	var precision []float64
	var out []sessionRecord
	for _, pred := range targets {
		judge, err := server.JudgeFromRecord(feed, pred)
		if err != nil {
			return 0, nil, err
		}
		relevant := server.RelevantVSCount(feed, judge)
		if relevant == 0 {
			continue // the incidents overlap no window enough to see
		}
		sr := a.session(ctx, time.Now(), judge)
		out = append(out, sr)
		if sr.failed() {
			return 0, nil, fmt.Errorf("oracle session failed: %v", firstErr(sr))
		}
		precision = append(precision, float64(sr.relevant)/float64(min(protocolTopK, relevant)))
	}
	return mean(precision), out, nil
}

// liveRecordPath names the record of this build and feed length
// (segments, set by --seconds): it carries a hash of the running
// binary, so a run is only ever compared with runs of the same code,
// never with another commit's in the same checkout.
func liveRecordPath(dir string, segments int) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("live-%x-%d.json", h.Sum(nil)[:8], segments)), nil
}

// checkLiveRecord compares this run's final feed with the first run of
// this build in the checkout, recording it when there is none.
func checkLiveRecord(path string, rec liveRecord) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		blob, err = json.Marshal(rec)
		if err != nil {
			return err
		}
		return os.WriteFile(path, blob, 0o644)
	}
	if err != nil {
		return err
	}
	var first liveRecord
	if err := json.Unmarshal(blob, &first); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if first != rec {
		return fmt.Errorf("final feed %+v differs from the first run of this build, %+v", rec, first)
	}
	return nil
}

// replaySegments runs the traced run's sampled segments again through
// core.ProcessSceneStream and then stage by stage through the public
// functions it calls, and checks both against what the daemon
// committed. Segments are a pure function of (corpusSeed, n). It returns
// the median time the replayed segments waited in the daemon beyond
// their own processing and apply.
func replaySegments(e *env, l *liveStack, appliedAt map[int]applied, due []time.Time) (float64, error) {
	cfg := core.DefaultConfig()
	var waits []float64
	for seq, scene := range l.src.scenes {
		req := fmt.Sprintf("seg%d", seq)
		id := e.tr.begin("core.segment", req, 0)
		clip, err := core.ProcessSceneStream(scene, cfg)
		e.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("replay segment %d: %w", seq, err)
		}
		wall := e.tr.duration(id) / 1000
		clip.Video.Recycle()
		vss, err := stageByStage(e.tr, req, scene, cfg)
		if err != nil {
			return 0, fmt.Errorf("replay segment %d by stage: %w", seq, err)
		}
		ap := appliedAt[seq]
		if len(clip.VSs) != ap.vss || vss != ap.vss {
			return 0, fmt.Errorf("segment %d: daemon committed %d VSs, replay found %d and %d by stage",
				seq, ap.vss, len(clip.VSs), vss)
		}
		waits = append(waits, math.Max(0, ap.done.Sub(due[seq]).Seconds()-wall-ap.dur.Seconds()))
	}
	return median(waits), nil
}

// stageByStage renders, segments, tracks and windows one scene with a
// span around each public call, returning the VS count.
func stageByStage(tr *tracer, req string, scene *sim.Scene, cfg core.Config) (int, error) {
	bg := render.Background(scene, cfg.Render)
	rng := rand.New(rand.NewSource(cfg.Render.Seed))
	v := &frame.Video{FPS: scene.FPS, Name: scene.Name}
	for i := range scene.Frames {
		id := tr.begin("render.frame", req, 0)
		f, err := render.Frame(scene, bg, i, rng, cfg.Render)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		v.Frames = append(v.Frames, f)
	}
	defer v.Recycle()
	id := tr.begin("segment.background", req, 0)
	ex, err := segment.NewExtractor(v, cfg.Segment)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	tk := track.NewTracker(cfg.Track)
	for i, f := range v.Frames {
		id := tr.begin("segment.frame", req, 0)
		segs, err := ex.Segments(f)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("track.frame", req, 0)
		err = tk.Update(i, segs)
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	tracks := tk.Flush()
	id = tr.begin("window.extract", req, 0)
	vss, err := window.Extract(tracks, cfg.Model, v.Len(), cfg.Window)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	return len(vss), nil
}

// timeIndex builds the VP-tree the live sessions probe, over the
// drained feed, and probes it as retrieval.CandidateEngine does in each
// feedback round of the oracle sessions: with every TS of every window
// labelled relevant so far, for liveCandidates candidates.
func timeIndex(e *env, feed *videodb.ClipRecord, oracle []sessionRecord) error {
	id := e.tr.begin("index.build", "index", 0)
	bi, err := index.Build(feed.VSs, index.KindVPTree, index.Options{})
	e.tr.end(id)
	if err != nil {
		return err
	}
	for sid, sr := range oracle {
		relevant := make(map[int]bool)
		for r, rr := range sr.rounds {
			for _, l := range rr.labels {
				relevant[l.VS] = l.Relevant
			}
			var probes [][]float64
			for _, vs := range feed.VSs {
				if relevant[vs.Index] {
					for _, ts := range vs.TSs {
						probes = append(probes, ts.Flat())
					}
				}
			}
			if len(probes) == 0 {
				continue
			}
			id := e.tr.begin("index.probe", fmt.Sprintf("o%d/r%d", sid, r), 0)
			bi.Candidates(probes, liveCandidates)
			e.tr.end(id)
		}
	}
	return nil
}

// timeSnapshots times the write the daemon's snapshot ticker makes,
// over the drained catalog.
func timeSnapshots(e *env, db *videodb.DB) error {
	path := filepath.Join(e.outDir, fmt.Sprintf("live-%d-probe.snap", e.seed))
	for i := 0; i < 3; i++ {
		id := e.tr.begin("ingestd.snapshot", "snapshot", 0)
		err := db.SaveFile(path)
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	return os.Remove(path)
}
