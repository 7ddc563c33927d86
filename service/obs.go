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

// observability is the service's tracing and latency-metrics state, one
// per Service, built by newObservability.
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
		phaseHist:   make(map[string]*promtext.Histogram),
		taskHist:    promtext.NewHistogram(nil),
		slowThresh:  cfg.TraceSlow,
		logf:        cfg.Logf,
		logRequests: cfg.LogRequests,
	}
	// One phase series per stage of the engine's cold pipeline.
	new(tapas.Result).StageTimes(func(stage string, _ time.Duration) {
		o.phaseHist[stage] = promtext.NewHistogram(nil)
	})
	if o.logf == nil {
		o.logf = func(string, ...any) {}
	}
	return o
}

// observeCold records a cold search's stage durations in the phase
// histograms. Cache and store hits ran no pipeline and record nothing,
// nor does a stage the search skipped.
func (o *observability) observeCold(res *tapas.Result) {
	if res == nil || res.CacheHit || res.StoreHit {
		return
	}
	res.StageTimes(func(stage string, d time.Duration) {
		if d > 0 {
			o.phaseHist[stage].Observe(d.Seconds())
		}
	})
}

// addMetrics renders the request/phase/task histograms into m.
func (o *observability) addMetrics(m *promtext.Metrics) {
	m.Histogram("tapas_request_duration_seconds",
		"HTTP request latency by wall clock, all v1 endpoints.", o.reqHist, nil)
	new(tapas.Result).StageTimes(func(stage string, _ time.Duration) {
		m.Histogram("tapas_phase_duration_seconds",
			"Cold-search pipeline phase latency.", o.phaseHist[stage], promtext.Labels{"phase": stage})
	})
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

// observeSearch wraps one search call: a span under the request's
// trace, the phase histograms of a cold result, and the slow-request
// log line.
func (s *Service) observeSearch(ctx context.Context, req SearchRequest) (context.Context, func(*tapas.Result, error)) {
	o := s.obs
	start := time.Now()
	ctx, span := trace.StartSpan(ctx, "service.search")
	span.SetAttr("model", req.Model)
	span.SetAttr("gpus", strconv.Itoa(req.GPUs))

	finish := func(res *tapas.Result, err error) {
		dur := time.Since(start)
		span.SetError(err)
		if res != nil {
			span.SetAttr("cache_hit", strconv.FormatBool(res.CacheHit))
			span.SetAttr("store_hit", strconv.FormatBool(res.StoreHit))
		}
		o.observeCold(res)
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
				pairs = append(pairs, "cache_hit", res.CacheHit, "store_hit", res.StoreHit)
				res.StageTimes(func(stage string, d time.Duration) {
					pairs = append(pairs, stage, d)
				})
			}
			if err != nil {
				pairs = append(pairs, "err", err.Error())
			}
			o.logf("%s", logkv.Line("slow_request", pairs...))
		}
	}
	return ctx, finish
}
