package service

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"tapas"
	"tapas/internal/httpobs"
	"tapas/internal/logkv"
	"tapas/internal/promtext"
	"tapas/internal/trace"
)

// phaseLabels are the per-phase latency series exported as
// tapas_phase_duration_seconds{phase=...}: the five pipeline phases the
// progress stream reports, with the search phase additionally split
// into its enum/assemble halves from the engine's own stopwatches.
var phaseLabels = []string{"group", "mine", "search", "enum", "assemble", "reconstruct", "simulate"}

// observability is the service's tracing and latency-metrics state, one
// per Service. The zero value disables everything (nil recorder, nil
// histograms are never reached because newObservability always builds
// the histograms).
type observability struct {
	rec         *trace.Recorder
	reqHist     *promtext.Histogram            // tapas_request_duration_seconds
	phaseHist   map[string]*promtext.Histogram // tapas_phase_duration_seconds{phase=...}
	taskHist    *promtext.Histogram            // tapas_task_duration_seconds
	slowThresh  time.Duration                  // 0 disables the slow-request log
	logf        func(string, ...any)
	logRequests bool
}

func newObservability(cfg Config) *observability {
	o := &observability{
		rec:         cfg.Trace,
		reqHist:     promtext.NewHistogram(nil),
		phaseHist:   make(map[string]*promtext.Histogram, len(phaseLabels)),
		taskHist:    promtext.NewHistogram(nil),
		slowThresh:  cfg.TraceSlow,
		logf:        cfg.Logf,
		logRequests: cfg.LogRequests,
	}
	for _, p := range phaseLabels {
		o.phaseHist[p] = promtext.NewHistogram(nil)
	}
	if o.logf == nil {
		o.logf = func(string, ...any) {}
	}
	return o
}

// observePhase records one phase duration in its histogram.
func (o *observability) observePhase(phase string, d time.Duration) {
	if h := o.phaseHist[phase]; h != nil {
		h.Observe(d.Seconds())
	}
}

// addMetrics renders the request/phase/task histograms into m.
func (o *observability) addMetrics(m *promtext.Metrics) {
	m.Histogram("tapas_request_duration_seconds",
		"HTTP request latency by wall clock, all v1 endpoints.", o.reqHist, nil)
	for _, p := range phaseLabels {
		m.Histogram("tapas_phase_duration_seconds",
			"Cold-search pipeline phase latency.", o.phaseHist[p], promtext.Labels{"phase": p})
	}
	m.Histogram("tapas_task_duration_seconds",
		"Shipped prefix-task batch execution latency (/v1/tasks).", o.taskHist, nil)
}

// clientKey carries the caller identity (X-Tapas-Client header or
// remote IP) from the HTTP middleware to the slow-request log.
type clientKey struct{}

// withObs mounts the shared HTTP observability middleware around the
// daemon mux. The service's own additions: the client identity rides
// the request context to the search-level slow-request log, and the
// request log line is emitted under -log-requests.
func withObs(o *observability, next http.Handler) http.Handler {
	return httpobs.Wrap(httpobs.Config{
		Rec:  o.rec,
		Hist: o.reqHist,
		Enter: func(ctx context.Context, client string) context.Context {
			return context.WithValue(ctx, clientKey{}, client)
		},
		Exit: func(x httpobs.Exchange) {
			if o.logRequests {
				o.logf("%s", x.LogLine("request"))
			}
		},
	}, next)
}

// searchObserver wraps one search call: a span under the request's
// trace, per-phase histogram observations derived from the progress
// stream (which only fires on genuine cold runs, so cache hits never
// skew the phase series), and the slow-request log line.
func (s *Service) observeSearch(ctx context.Context, req SearchRequest, progress func(tapas.ProgressEvent)) (context.Context, func(tapas.ProgressEvent), func(*tapas.Result, error)) {
	o := s.obs
	start := time.Now()
	ctx, span := trace.StartSpan(ctx, "service.search")
	span.SetAttr("model", req.Model)
	span.SetAttr("gpus", strconv.Itoa(req.GPUs))

	// Phase durations: Elapsed is cumulative within one search, so a
	// phase's cost is exit.Elapsed − enter.Elapsed. One search's events
	// are serialized, so the map needs no lock.
	enters := make(map[tapas.Phase]time.Duration, 8)
	wrapped := func(ev tapas.ProgressEvent) {
		switch ev.Kind {
		case tapas.PhaseEnter:
			enters[ev.Phase] = ev.Elapsed
		case tapas.PhaseExit:
			if at, ok := enters[ev.Phase]; ok {
				o.observePhase(string(ev.Phase), ev.Elapsed-at)
			}
		}
		if progress != nil {
			progress(ev)
		}
	}

	finish := func(res *tapas.Result, err error) {
		dur := time.Since(start)
		span.SetError(err)
		if res != nil {
			span.SetAttr("cache_hit", strconv.FormatBool(res.CacheHit))
			span.SetAttr("store_hit", strconv.FormatBool(res.StoreHit))
			if !res.CacheHit && !res.StoreHit {
				// The enum/assemble split is measured inside the strategy
				// layer; genuine cold runs only, mirroring the phase events.
				o.observePhase("enum", res.EnumTime)
				o.observePhase("assemble", res.AssembleTime)
			}
		}
		span.End()
		if o.slowThresh > 0 && dur >= o.slowThresh {
			client, _ := ctx.Value(clientKey{}).(string)
			pairs := []any{
				"trace", trace.FromContext(ctx).TraceID(),
				"client", client,
				"model", req.Model,
				"gpus", req.GPUs,
				"dur", dur,
			}
			if res != nil {
				pairs = append(pairs,
					"cache_hit", res.CacheHit,
					"store_hit", res.StoreHit,
					"group", res.GroupTime,
					"mine", res.MineTime,
					"enum", res.EnumTime,
					"assemble", res.AssembleTime,
				)
			}
			if err != nil {
				pairs = append(pairs, "err", err.Error())
			}
			o.logf("%s", logkv.Line("slow_request", pairs...))
		}
	}
	return ctx, wrapped, finish
}
