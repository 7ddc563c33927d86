package main

import (
	"net/http"

	"tapas/internal/httpobs"
)

// withObs mounts the shared HTTP observability middleware around the
// gateway mux (the replicas mount the same one; together they give one
// request a span on every hop it touches). The gateway's own additions:
// the span and the log line name the replica that answered (relay sets
// X-Tapas-Replica), and a request slower than -trace-slow is logged as
// slow_request even without -log-requests.
func (gw *gateway) withObs(next http.Handler) http.Handler {
	return httpobs.Wrap(httpobs.Config{
		Rec:  gw.cfg.rec,
		Hist: gw.reqHist,
		Exit: func(x httpobs.Exchange) {
			replica := x.Header.Get(replicaHeader)
			if replica != "" {
				x.Span.SetAttr("replica", replica)
			}
			slow := gw.cfg.traceSlow > 0 && x.Dur >= gw.cfg.traceSlow
			if gw.cfg.logRequests || slow {
				event := "request"
				if slow {
					event = "slow_request"
				}
				gw.cfg.logf("%s", x.LogLine(event, "replica", replica))
			}
		},
	}, next)
}
