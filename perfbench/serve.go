package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"milvideo/internal/server"
	"milvideo/internal/videodb"
)

// The serve-exact workload: the 4,800-VS demo catalog, loaded from a
// videodb snapshot and ranked exactly by the MIL engine, serving one
// analyst who loops sessions back to back: a closed loop, about 6
// sessions/s on a 2-core x86 host. Open-loop Poisson sessions at a
// quarter of that rate were too noisy to gate: a round that arrived
// during another shared the core with it and took about twice as long,
// the share of such rounds rose and fell with the host's speed, and
// over ten 50 s runs the round medians' quartile spread reached half
// the median. In a closed loop no round waits for another; over five
// seeds the spreads were 0.06 (query) and 0.08 (feedback).
const (
	serveExactName = "serve-exact"
	// serveScale multiplies the 48-VS demo mix (server.ScaledDemoRecord).
	serveScale = 100
	// serveChecked is how many of a run's first sessions the checked
	// sessions are drawn from; a run that completes fewer fails.
	serveChecked = 20
	// serveSetups is how many times a run sets up from the snapshot;
	// setup_s is their median.
	serveSetups = 21
)

// corpusSeed fixes the content every workload serves or ingests: the
// demo catalog and the tunnel feed. --seed drives the load instead —
// arrival schedules, which sessions are checked, which segments are
// traced — so a figure's spread across seeds is the system's and the
// host's, not the corpus's. (Drawing the feed from --seed moved live's
// final_accuracy between 0.53 and 0.77 across three seeds.)
const corpusSeed = 1

const (
	protocolRounds = 5  // a query round and four feedback rounds (§6)
	protocolTopK   = 20 // results judged per round
	// warmSessions run closed-loop after set-up and before the
	// measured schedule, and are not reported.
	warmSessions = 2
	// checkedSessions are replayed in process after the load: their
	// HTTP rankings must equal retrieval.RankRound's, and in the traced
	// run they give the learner layers' times.
	checkedSessions = 4
)

// served is one set-up: a catalog loaded from the snapshot, a server
// over it and its HTTP front.
type served struct {
	db    *videodb.DB
	srv   *server.Server
	front *httpFront
}

func (s *served) close() {
	s.front.close()
	s.srv.Close()
}

// setUpServe loads the snapshot, builds the server and serves a
// warm-up query.
func setUpServe(ctx context.Context, e *env, snap string, rep int) (*served, error) {
	id := e.tr.begin("videodb.load", fmt.Sprintf("setup%d", rep), 0)
	db, err := videodb.LoadFile(snap)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DB: db, RerankWorkers: e.slots})
	if err != nil {
		return nil, err
	}
	front, err := serveHTTP(srv.Handler(), e.slots)
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{db: db, srv: srv, front: front}
	resp, err := front.client.Query(ctx, server.QueryRequest{Clip: server.DemoClip})
	if err == nil {
		err = front.client.Delete(ctx, resp.Session)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return s, nil
}

func runServeExact(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	rec, err := server.ScaledDemoRecord(corpusSeed, serveScale)
	if err != nil {
		return nil, err
	}
	judge, err := server.JudgeFromRecord(rec, nil)
	if err != nil {
		return nil, err
	}
	snap := filepath.Join(e.outDir, fmt.Sprintf("%s-%d.snap", serveExactName, e.seed))
	db := videodb.New()
	if err := db.Add(rec); err != nil {
		return nil, err
	}
	if err := db.SaveFile(snap); err != nil {
		return nil, err
	}
	defer os.Remove(snap)
	db, rec = nil, nil

	// One set-up serves the load; the others run half before it and
	// half after the load (see spreadSetups).
	extra := func(i int) (func(), error) {
		other, err := setUpServe(ctx, e, snap, i)
		if err != nil {
			return nil, err
		}
		return other.close, nil
	}
	setupS, err := spreadSetups(nil, serveSetups/2, extra)
	if err != nil {
		return nil, err
	}
	freshHeap()
	start := time.Now()
	s, err := setUpServe(ctx, e, snap, len(setupS))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS = append(setupS, time.Since(start).Seconds())
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	// Return set-up's scratch pages before the load rather than leave
	// them to the background scavenger.
	debug.FreeOSMemory()
	a := &analyst{client: s.front.client, slots: make(inflight, e.slots), clip: server.DemoClip, rounds: protocolRounds}
	for i := 0; i < warmSessions; i++ {
		if ws := a.session(ctx, time.Now(), judge); ws.failed() {
			return nil, fmt.Errorf("warm-up session failed: %v", firstErr(ws))
		}
	}

	// One analyst loops sessions back to back for the run (see
	// README.md, Inputs and load): a closed loop, each round due at the
	// previous reply.
	keep := pick(e.seed, serveChecked, checkedSessions)
	var sessions []sessionRecord
	rt := startRuntimeSampler()
	for end := time.Now().Add(time.Duration(e.seconds) * time.Second); time.Now().Before(end); {
		i := len(sessions)
		sessions = append(sessions, a.session(ctx, time.Now(), judge))
		if i >= serveChecked || !keep[i] {
			dropRankings(&sessions[i])
		}
	}
	if len(sessions) < serveChecked {
		return nil, fmt.Errorf("%d sessions in %d s, need %d", len(sessions), e.seconds, serveChecked)
	}
	rt.finish(out.m)

	var st roundStats
	var precision []float64
	for _, sr := range sessions {
		st.add(sr, protocolRounds)
		if !sr.failed() {
			precision = append(precision, sr.precision)
		}
	}
	out.addRounds(&st)
	if err := out.roundFigures(&st, e); err != nil {
		return nil, err
	}
	if len(precision) == 0 {
		return nil, fmt.Errorf("no session completed: %v", firstErr(sessions[0]))
	}
	acc := mean(precision)
	out.m.set("final_accuracy", acc)
	if acc != 1 {
		out.problem("final_accuracy %.4f on the synthetic catalog, want 1", acc)
	}
	stats, err := s.front.client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out.serverStats(stats)
	catalog, err := s.db.Clip(server.DemoClip)
	if err != nil {
		return nil, err
	}
	s.close()
	s = nil

	setupS, err = spreadSetups(setupS, serveSetups, extra)
	if err != nil {
		return nil, err
	}
	out.setupFigures(setupS)

	rp := &replayer{tr: e.tr, db: catalog.VSs, topK: protocolTopK}
	for i, sr := range sessions {
		if i < serveChecked && keep[i] && !sr.failed() {
			if err := rp.session(i, sr); err != nil {
				return nil, err
			}
		}
	}
	out.addReplay(rp)
	return out, nil
}

// freshHeap collects the heap and returns its free pages to the OS
// before a set-up, as a freshly started process would have it. Left to
// the background scavenger, a 30 ms serve-exact set-up took either
// about 27 ms, reusing pages the last set-up freed, or about 46 ms,
// faulting in pages the scavenger had returned, at random from one
// set-up to the next.
func freshHeap() { debug.FreeOSMemory() }

// setupGap separates the set-ups spreadSetups times.
const setupGap = 200 * time.Millisecond

// spreadSetups times set-ups len(first)..total-1 with setUp, which
// returns a teardown, and appends them to first. The host slows in
// spells of a fraction of a second to ten seconds or so; back to back,
// ten 30 ms set-ups all fell into one spell, and the eleven set-ups of
// one live run, about 9 s, often did. So a run times half its set-ups
// before the one that serves the load and half after the load, a
// whole load apart, each setupGap after the last, and one spell moves
// some samples, not the median.
func spreadSetups(first []float64, total int, setUp func(i int) (func(), error)) ([]float64, error) {
	out := first
	for i := len(first); i < total; i++ {
		time.Sleep(setupGap)
		freshHeap()
		start := time.Now()
		teardown, err := setUp(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out = append(out, time.Since(start).Seconds())
		teardown()
	}
	return out, nil
}

// pick marks k of n sessions, chosen by seed, for the identity check.
func pick(seed int64, n, k int) []bool {
	keep := make([]bool, n)
	for _, i := range rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)[:min(k, n)] {
		keep[i] = true
	}
	return keep
}

// dropRankings frees the full rankings of a session that is not
// replayed; only the checked sessions need them.
func dropRankings(s *sessionRecord) {
	for i := range s.rounds {
		if s.rounds[i].resp != nil {
			s.rounds[i].resp.Ranking = nil
		}
	}
}

func firstErr(s sessionRecord) error {
	for _, r := range s.rounds {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}
