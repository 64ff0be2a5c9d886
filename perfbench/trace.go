package main

import (
	"encoding/json"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Req ties the spans of one round or segment together.
	Req   string        `json:"req"`
	Start time.Duration `json:"start_ns"` // since the tracer's epoch
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so the untraced run pays one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(t.epoch)})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTimes is what the trace says about one span name.
type layerTimes struct {
	Count int `json:"count"`
	// SelfMs are per-span self times: duration minus the part of the
	// interval that child spans cover.
	SelfMs  []float64 `json:"-"`
	TotalMs []float64 `json:"-"`
	// SelfMedianMs and TotalMedianMs summarise them.
	SelfMedianMs  float64 `json:"self_median_ms"`
	TotalMedianMs float64 `json:"total_median_ms"`
}

// layers computes per-name total and self times.
func (t *tracer) layers() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTimes)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		total := s.End - s.Start
		self := total - covered(children[s.ID])
		lt.Count++
		lt.TotalMs = append(lt.TotalMs, ms(total))
		lt.SelfMs = append(lt.SelfMs, ms(self))
	}
	for _, lt := range out {
		lt.SelfMedianMs = median(lt.SelfMs)
		lt.TotalMedianMs = median(lt.TotalMs)
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum time.Duration
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return sum + hi - lo
}

// write saves every span and the per-layer summary as JSON.
func (t *tracer) write(path string) error {
	layers := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Layers map[string]*layerTimes `json:"layers"`
		Spans  []span                 `json:"spans"`
	}{layers, t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// runtimeSampler tracks, over the measured load, the process's
// resident set and the Go heap, and the share of CPU the garbage
// collector took. Set-up's transient allocations (an index build's
// scratch, earlier set-ups' garbage) fall outside it, so the figures
// are the serving footprint. Sampling every 20 ms catches each GC
// cycle's high point at these heap sizes.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}
	// heapPeak (bytes) and rss (bytes per sample) are written by the
	// sampling goroutine until done is closed.
	heapPeak    float64
	rss         []float64
	gc0, total0 float64
	samples     []rtmetrics.Sample
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	gcCPU       = "/cpu/classes/gc/total:cpu-seconds"
	totalCPU    = "/cpu/classes/total:cpu-seconds"
)

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.samples = []rtmetrics.Sample{{Name: heapObjects}, {Name: gcCPU}, {Name: totalCPU}}
	rtmetrics.Read(r.samples)
	r.gc0, r.total0 = r.samples[1].Value.Float64(), r.samples[2].Value.Float64()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		s := []rtmetrics.Sample{{Name: heapObjects}}
		for {
			rtmetrics.Read(s)
			r.heapPeak = max(r.heapPeak, float64(s[0].Value.Uint64()))
			r.rss = append(r.rss, residentBytes())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops sampling and records, in MB, the heap's peak and the
// resident set's median over the load (its high samples come from
// sessions that happen to overlap, and its p90 moved between 43 and 70
// MB on serve-exact over three seeds). It also records the GC's share
// of the process's CPU time.
func (r *runtimeSampler) finish(m metrics) {
	close(r.stop)
	<-r.done
	rtmetrics.Read(r.samples)
	gc := r.samples[1].Value.Float64() - r.gc0
	if total := r.samples[2].Value.Float64() - r.total0; total > 0 {
		m.set("go.gc_cpu_fraction", gc/total)
	}
	m.set("go.heap_peak_mb", r.heapPeak/(1<<20))
	if len(r.rss) > 0 {
		m.set("rss_mb_p50", median(r.rss)/(1<<20))
	}
}
