package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPoissonArrivalsDeterministicPerSeed(t *testing.T) {
	a := poissonArrivals(7, 2.4, 200)
	b := poissonArrivals(7, 2.4, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonArrivals(8, 2.4, 200)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v is before %v", i, a[i], a[i-1])
		}
	}
	// 200 arrivals at 2.4/s all fall within the 83.3 s span.
	if span := a[len(a)-1].Seconds(); span < 75 || span > 83.4 {
		t.Fatalf("200 arrivals at 2.4/s end at %.1f s", span)
	}
	// The gaps are exponential with mean 1/2.4 s: about 63% are below
	// the mean.
	short := 0
	for i := 1; i < len(a); i++ {
		if (a[i] - a[i-1]).Seconds() < 1/2.4 {
			short++
		}
	}
	if frac := float64(short) / float64(len(a)-1); frac < 0.5 || frac > 0.75 {
		t.Fatalf("%.2f of gaps below the mean, want about 0.63", frac)
	}
}

func TestRoundLatencyCountsSlotWaitFromDueTime(t *testing.T) {
	slots := make(inflight, 2)
	slots <- struct{}{} // both in-flight slots busy
	slots <- struct{}{}
	const hold = 60 * time.Millisecond
	due := time.Now()
	go func() {
		time.Sleep(hold)
		<-slots // one earlier round completes
	}()
	var served time.Time
	rt, err := slots.run(context.Background(), due, func(context.Context) error {
		served = time.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.latency(); got < hold {
		t.Fatalf("latency %v does not include the %v slot wait", got, hold)
	}
	if rt.sent.Before(due.Add(hold)) || served.Before(rt.sent) {
		t.Fatalf("round sent at +%v, before a slot was free at +%v", rt.sent.Sub(due), hold)
	}
	if len(slots) != 1 {
		t.Fatalf("%d slots held after the round, want 1", len(slots))
	}
}

func TestRoundLatencyCountsGeneratorLateness(t *testing.T) {
	slots := make(inflight, 2)
	due := time.Now().Add(-40 * time.Millisecond) // the generator ran late
	rt, err := slots.run(context.Background(), due, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rt.latency() < 40*time.Millisecond || rt.late() < 40*time.Millisecond {
		t.Fatalf("latency %v, late %v: the 40 ms the round was overdue is missing", rt.latency(), rt.late())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	// 99 samples: p90 is rank 90, leaving 9 beyond it.
	if _, err := percentile(samples(99), 0.9, minTail); !errors.Is(err, errThinTail) {
		t.Fatalf("p90 of 99 samples: err %v, want errThinTail", err)
	}
	// 100 samples: rank 90 leaves exactly 10 beyond.
	v, err := percentile(samples(100), 0.9, minTail)
	if err != nil {
		t.Fatal(err)
	}
	if v != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", v)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Fatal("percentile of no samples did not fail")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of 3,1,2 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 4,1,3,2 = %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "retrieval.rank", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mil.train", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "mil.score", Start: 20, End: 60}, // overlaps train
		{ID: 4, Name: "server.encode", Start: 100, End: 105},
	}}
	layers := tr.layers()
	// Children cover [10, 60): 50 of the parent's 100.
	if got := layers["retrieval.rank"].SelfMs[0]; got != ms(50) {
		t.Fatalf("rank self time %v, want %v", got, ms(50))
	}
	if got := layers["server.encode"].SelfMs[0]; got != ms(5) {
		t.Fatalf("encode self time %v, want %v", got, ms(5))
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the catalogue\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the catalogue\n%v", layers, perLayer)
	}
	// Each workload's load is a constant of the benchmark, stated in
	// its "why".
	rates := map[string][]string{
		serveExactName: {"one analyst in a closed loop"},
		liveName: {
			fmt.Sprintf("one segment per %.1f s", liveInterval.Seconds()),
			fmt.Sprintf("%.1f sessions/s", liveSessionRate),
		},
	}
	if len(bf.Workloads) != len(rates) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bf.Workloads), len(rates))
	}
	for _, w := range bf.Workloads {
		want, ok := rates[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
			continue
		}
		for _, rate := range want {
			if !strings.Contains(w.Why, rate) {
				t.Errorf("workload %q: why %q does not state its rate %q", w.Name, w.Why, rate)
			}
		}
	}
}
