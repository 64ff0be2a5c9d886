package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"milvideo/internal/core"
	"milvideo/internal/kernel"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/window"
)

// replayer re-runs recorded HTTP sessions in process over the catalog
// the server ranked, with the same labels, through the program's own
// engine (core.EngineByName with a per-session retrieval.MILCache, as
// the server builds it), and checks that the HTTP path returned the
// same rankings. Traced, a span around each retrieval.RankRound times
// the program's ranking, and a separate milProbe call times the
// learner's calls.
type replayer struct {
	tr   *tracer
	db   []window.VS
	topK int

	mismatches int
	rounds     int
	// Per-round figures of the traced replay.
	encodeMs, responseKB []float64
	// probeDiverged counts rounds where milProbe ranked differently
	// from the program's engine; its figures are then not reported.
	probeDiverged int
}

// session replays one completed session.
func (rp *replayer) session(sid int, s sessionRecord) error {
	labels := make(map[int]mil.Label)
	cache := retrieval.NewMILCache()
	dist := kernel.NewDistCache() // milProbe's own, as the session's cache is the engine's
	for r, rr := range s.rounds {
		if rr.resp == nil {
			break // the trailing delete record, or a failed round
		}
		for _, l := range rr.labels {
			if l.Relevant {
				labels[l.VS] = mil.Positive
			} else {
				labels[l.VS] = mil.Negative
			}
		}
		req := fmt.Sprintf("s%d/r%d", sid, r)
		name := "retrieval.rank"
		if r == 0 {
			name = "retrieval.heuristic"
		}
		engine, err := core.EngineByName("mil", cache)
		if err != nil {
			return err
		}
		rank := rp.tr.begin(name, req, 0)
		ranking, _, err := retrieval.RankRound(engine, rp.db, labels, rp.topK)
		rp.tr.end(rank)
		if err != nil {
			return fmt.Errorf("replay session %d round %d: %w", sid, r, err)
		}
		rp.rounds++
		if !sameRanking(rp.db, ranking, rr.resp.Ranking) {
			rp.mismatches++
		}
		if rp.tr == nil {
			continue
		}
		enc := rp.tr.begin("server.encode", req, 0)
		blob, err := json.Marshal(rr.resp)
		rp.tr.end(enc)
		if err != nil {
			return fmt.Errorf("encode round: %w", err)
		}
		rp.encodeMs = append(rp.encodeMs, rp.tr.duration(enc))
		rp.responseKB = append(rp.responseKB, float64(len(blob))/1024)
		if hasPositive(labels) {
			probed, err := milProbe(rp.tr, "probe/"+req, rp.db, labels, dist)
			if err != nil {
				return fmt.Errorf("mil probe, session %d round %d: %w", sid, r, err)
			}
			if !equalInts(probed, ranking) {
				rp.probeDiverged++
			}
		}
	}
	return nil
}

func hasPositive(labels map[int]mil.Label) bool {
	for _, l := range labels {
		if l == mil.Positive {
			return true
		}
	}
	return false
}

// sameRanking reports whether positions ranking into db name the same
// VSs, in order, as the HTTP reply's VS indices.
func sameRanking(db []window.VS, ranking, indices []int) bool {
	if len(ranking) != len(indices) {
		return false
	}
	for i, pos := range ranking {
		if db[pos].Index != indices[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// duration is the length of a closed span in ms (0 on a nil tracer).
func (t *tracer) duration(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return ms(s.End - s.Start)
}

// milProbeTopTSRatio is retrieval.MILEngine's default training
// selection.
const milProbeTopTSRatio = 0.5

// milProbe times the learner layer until the program traces its own
// stages. It is a separate call, made after the program's engine has
// ranked the round: the benchmark builds the round's bags itself, as
// retrieval.MILEngine does, and puts spans (under request req) around
// mil.Train — SMO in svm included — and the Learner.BagScore loop. Only
// those two calls are timed, and they are the program's own; the bag
// building is not. The caller compares the probe's ranking with the
// engine's: when they differ, the engine no longer builds bags this
// way and the mil.* figures are not reported.
func milProbe(tr *tracer, req string, db []window.VS, labels map[int]mil.Label, dist *kernel.DistCache) ([]int, error) {
	scoring := probeBags(db, labels, 0)
	training := probeBags(db, labels, milProbeTopTSRatio)
	opt := mil.DefaultOptions()
	opt.DistCache = dist
	id := tr.begin("mil.train", req, 0)
	learner, err := mil.Train(training, opt)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("mil.score", req, 0)
	defer tr.end(id)
	scores := make([]float64, len(db))
	for i := range db {
		s, ok, err := learner.BagScore(scoring[i])
		if err != nil {
			return nil, err
		}
		if !ok {
			s = math.Inf(-1)
		}
		scores[i] = s
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx, nil
}

// probeBags builds bags as retrieval.MILEngine does: every TS of a VS
// becomes an instance keyed by its track, and with topRatio > 0 a
// positive bag keeps only its best TSs by the §5.3 squared-sum score
// (the best plus any within topRatio of it).
func probeBags(db []window.VS, labels map[int]mil.Label, topRatio float64) []mil.Bag {
	bags := make([]mil.Bag, len(db))
	for i, vs := range db {
		b := mil.Bag{ID: vs.Index, Label: labels[vs.Index]}
		keep := func(window.TS) bool { return true }
		if topRatio > 0 && b.Label == mil.Positive && len(vs.TSs) > 1 {
			best := math.Inf(-1)
			tsScores := make(map[int]float64, len(vs.TSs))
			for _, ts := range vs.TSs {
				// HeuristicScore of a one-TS VS is the TS's score.
				s := retrieval.HeuristicScore(window.VS{TSs: []window.TS{ts}})
				tsScores[ts.TrackID] = s
				best = max(best, s)
			}
			thresh := best * topRatio
			if best <= 0 {
				thresh = best
			}
			keep = func(ts window.TS) bool { return tsScores[ts.TrackID] >= thresh }
		}
		for _, ts := range vs.TSs {
			if keep(ts) {
				b.Instances = append(b.Instances, ts.Flat())
				b.Keys = append(b.Keys, ts.TrackID)
			}
		}
		bags[i] = b
	}
	return bags
}
