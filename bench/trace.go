package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to the trace file.
// Spans of one search or request share Trace; Parent is the ID of the
// span that caused this one (0: none). Times are nanoseconds since the
// recorder was made.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start"`
	EndNS   int64  `json:"end"`
}

// recorder keeps the benchmark's own spans in memory until the run
// ends. A nil recorder records nothing, so one code path serves the
// traced and the untraced run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a started span; it times the call whether or not a
// recorder keeps it.
type openSpan struct {
	r     *recorder
	id    int
	start time.Time
}

func (r *recorder) begin(trace string, parent int, name string) openSpan {
	o := openSpan{r: r, start: time.Now()}
	if r == nil {
		return o
	}
	r.mu.Lock()
	o.id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: o.id, Parent: parent, Trace: trace, Name: name, StartNS: int64(o.start.Sub(r.t0))})
	r.mu.Unlock()
	return o
}

// end closes the span and returns its duration in milliseconds.
func (o openSpan) end() float64 {
	d := time.Since(o.start)
	if o.r != nil {
		o.r.mu.Lock()
		o.r.spans[o.id-1].EndNS = int64(o.start.Add(d).Sub(o.r.t0))
		o.r.mu.Unlock()
	}
	return ms(d)
}

// add records a span whose bounds were measured elsewhere (the strategy
// layer reports its enumerate/assemble split as two durations).
func (r *recorder) add(trace string, parent int, name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(start.Add(d).Sub(r.t0))})
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of v (which it
// sorts); 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}

func median(v []float64) float64 { return percentile(v, 50) }
