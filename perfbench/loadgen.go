package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"milvideo/internal/server"
)

// poissonArrivals returns the arrival offsets of n sessions of a
// Poisson process of the given rate (sessions per second), drawn from
// seed. Analysts are independent users, so sessions arrive open-loop:
// the schedule never waits for the server. The process is conditioned
// on its count and span — n arrivals in n/rate seconds, which makes
// them n sorted uniform draws over that span — so every run has the
// same number of samples at the same mean rate. Unconditioned, the
// realised rate of 90 sessions moves by ±10% from seed to seed, and
// with it how often sessions overlap and share the core.
func poissonArrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// roundTiming holds one round's timestamps. due is when the analyst
// wanted the round sent: the scheduled arrival for a session's first
// round, the previous reply for the others. started is when the
// generator got to it, sent when it held an in-flight slot and
// issued the request, done when the reply was decoded.
type roundTiming struct {
	due, started, sent, done time.Time
}

// latency is what the analyst waited: from due to reply, so a stall
// anywhere (generator, slot wait, server) is charged to the round.
func (t roundTiming) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator ran.
func (t roundTiming) late() time.Duration { return t.started.Sub(t.due) }

// inflight bounds the requests the generator has outstanding.
type inflight chan struct{}

// run executes one round that fell due at due: it waits for a free
// slot, charging the wait to the round, then calls fn.
func (f inflight) run(ctx context.Context, due time.Time, fn func(context.Context) error) (roundTiming, error) {
	rt := roundTiming{due: due, started: time.Now()}
	select {
	case f <- struct{}{}:
	case <-ctx.Done():
		rt.sent, rt.done = time.Now(), time.Now()
		return rt, ctx.Err()
	}
	defer func() { <-f }()
	rt.sent = time.Now()
	err := fn(ctx)
	rt.done = time.Now()
	return rt, err
}

// openLoop starts fn(i, due) for each arrival at start+arrivals[i],
// never waiting for earlier sessions, and returns once every started
// session has returned.
func openLoop(ctx context.Context, start time.Time, arrivals []time.Duration, fn func(i int, due time.Time)) {
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, off := range arrivals {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				wg.Wait()
				return
			}
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			fn(i, due)
		}(i, due)
	}
	wg.Wait()
}

// analyst drives the paper's session protocol over HTTP: a query
// round, then feedback rounds that label the whole returned top-k with
// a ground-truth judge. Rounds within a session form a closed loop,
// because the analyst waits for each reply before labelling.
type analyst struct {
	client *server.Client
	slots  inflight
	clip   string
	index  string // QueryRequest.Index; "" takes the server default
	rounds int
}

// roundRecord is one round as the analyst saw it.
type roundRecord struct {
	timing roundTiming
	// labels are the labels posted for this round (nil for round 0).
	labels []server.FeedbackLabel
	// resp is the decoded reply; nil when the round failed.
	resp *server.RoundResponse
	err  error
}

// sessionRecord is one session's rounds and its final precision.
type sessionRecord struct {
	rounds []roundRecord
	// precision is the judged top-k precision of the last round, or -1
	// when the session did not complete; relevant is its numerator.
	precision float64
	relevant  int
}

func (s sessionRecord) failed() bool { return s.precision < 0 }

// session runs one session whose first round fell due at due. A failed
// round ends the session; the rounds it never sent count as failed too.
func (a *analyst) session(ctx context.Context, due time.Time, judge server.Judge) sessionRecord {
	rec := sessionRecord{precision: -1}
	var resp *server.RoundResponse
	for r := 0; r < a.rounds; r++ {
		var labels []server.FeedbackLabel
		if r > 0 {
			labels = judgeAll(resp.TopK, judge)
		}
		var out *server.RoundResponse
		timing, err := a.slots.run(ctx, due, func(ctx context.Context) error {
			var err error
			if r == 0 {
				out, err = a.client.Query(ctx, server.QueryRequest{Clip: a.clip, Index: a.index})
			} else {
				out, err = a.client.Feedback(ctx, resp.Session, labels)
			}
			return err
		})
		if err == nil && out.Round != r {
			err = fmt.Errorf("round %d came back as round %d", r, out.Round)
		}
		if err == nil && len(out.TopK) == 0 {
			err = errors.New("empty ranking")
		}
		rec.rounds = append(rec.rounds, roundRecord{timing: timing, labels: labels, resp: out, err: err})
		if err != nil {
			return rec
		}
		resp, due = out, timing.done
	}
	rel := 0
	for _, e := range resp.TopK {
		if judge(e) {
			rel++
		}
	}
	rec.relevant = rel
	rec.precision = float64(rel) / float64(len(resp.TopK))
	// Ending the session is housekeeping, not a round the analyst
	// waits for; a failure here still marks the session failed.
	if err := a.client.Delete(ctx, resp.Session); err != nil {
		rec.precision = -1
		rec.rounds = append(rec.rounds, roundRecord{err: fmt.Errorf("delete session: %w", err)})
	}
	return rec
}

// judgeAll labels every returned entry.
func judgeAll(top []server.RankingEntry, judge server.Judge) []server.FeedbackLabel {
	labels := make([]server.FeedbackLabel, len(top))
	for i, e := range top {
		labels[i] = server.FeedbackLabel{VS: e.VS, Relevant: judge(e)}
	}
	return labels
}

// roundStats pools the timings of many sessions.
type roundStats struct {
	queryMs, feedbackMs, lateMs []float64
	// waitMs is each round's wait for an in-flight slot and serviceMs
	// its request-to-reply time; with latency they show whether a slow
	// round queued or was served slowly.
	waitMs, serviceMs        []float64
	attempted, failed        int
	sessions, sessionsFailed int
}

// add folds one session in. rounds is the protocol length, so rounds a
// failed session never sent count as failed.
func (st *roundStats) add(s sessionRecord, rounds int) {
	st.sessions++
	if s.failed() {
		st.sessionsFailed++
	}
	st.attempted += rounds
	for r, rr := range s.rounds {
		if r >= rounds {
			break // the trailing delete record
		}
		if rr.err != nil {
			continue
		}
		lat := ms(rr.timing.latency())
		if r == 0 {
			st.queryMs = append(st.queryMs, lat)
		} else {
			st.feedbackMs = append(st.feedbackMs, lat)
		}
		st.lateMs = append(st.lateMs, ms(rr.timing.late()))
		st.waitMs = append(st.waitMs, ms(rr.timing.sent.Sub(rr.timing.started)))
		st.serviceMs = append(st.serviceMs, ms(rr.timing.done.Sub(rr.timing.sent)))
	}
	served := len(st.queryMs) + len(st.feedbackMs)
	st.failed = st.attempted - served
}

// roundMetrics reports the end-to-end round latencies.
func (st *roundStats) roundMetrics(m metrics) error {
	if len(st.queryMs) == 0 || len(st.feedbackMs) == 0 {
		return errors.New("no rounds served")
	}
	m.set("query_ms_p50", median(st.queryMs))
	m.set("feedback_ms_p50", median(st.feedbackMs))
	return nil
}

// feedbackP90 is the feedback rounds' tail. A tail that is too thin to
// report is an error, not a silent smaller percentile.
func (st *roundStats) feedbackP90() (float64, error) {
	v, err := percentile(st.feedbackMs, 0.9, minTail)
	if err != nil {
		return 0, fmt.Errorf("feedback_ms_p90: %w", err)
	}
	return v, nil
}

// lateP90 is the generator-lateness validity check, over every round.
func (st *roundStats) lateP90() (float64, error) {
	v, err := percentile(st.lateMs, 0.9, minTail)
	if err != nil {
		return 0, fmt.Errorf("loadgen.late_ms_p90: %w", err)
	}
	return v, nil
}

// httpFront serves a handler on a loopback port, as a deployment
// would, so every round pays the real HTTP and JSON costs.
type httpFront struct {
	srv    *http.Server
	done   chan struct{}
	client *server.Client
}

func serveHTTP(h http.Handler, slots int) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &httpFront{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: slots + 2}
	f.client = &server.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTP:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}
	return f, nil
}

// close stops the listener and waits for the serving goroutine.
func (f *httpFront) close() {
	_ = f.srv.Close() // only ever reports the listener's close error
	<-f.done
	f.client.HTTP.Transport.(*http.Transport).CloseIdleConnections()
}
