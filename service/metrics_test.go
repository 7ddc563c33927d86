package service

import (
	"strings"
	"testing"
	"time"

	"tapas"
	"tapas/store/replicate"
)

// TestMetricsForFleetBlock: a coordinator's health snapshot renders the
// tapas_fleet_* and tapas_tasks_*_total families with the snapshot's
// values.
func TestMetricsForFleetBlock(t *testing.T) {
	st := Stats{
		Fleet: &FleetStats{
			Peers:           3,
			PeersHealthy:    2,
			TasksScattered:  40,
			TasksFailedOver: 5,
			TasksLocal:      12,
		},
	}
	var sb strings.Builder
	if _, err := metricsFor(st).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"tapas_fleet_peers 3",
		"tapas_fleet_peers_healthy 2",
		"tapas_tasks_scattered_total 40",
		"tapas_tasks_failed_over_total 5",
		"tapas_tasks_local_total 12",
		"# TYPE tapas_fleet_peers gauge",
		"# TYPE tapas_tasks_scattered_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsForReplicationBlock: a replicated daemon's snapshot renders
// every tapas_replicate_* family.
func TestMetricsForReplicationBlock(t *testing.T) {
	st := Stats{
		Replication: &replicate.Stats{
			Peers:         2,
			PeersHealthy:  1,
			FanoutWrites:  7,
			FanoutErrors:  1,
			DeadPeerSkips: 2,
			QueueDropped:  3,
			RepairHits:    4,
		},
	}
	var sb strings.Builder
	if _, err := metricsFor(st).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"tapas_replicate_peers 2",
		"tapas_replicate_peers_healthy 1",
		"tapas_replicate_fanout_writes_total 7",
		"tapas_replicate_fanout_errors_total 1",
		"tapas_replicate_dead_peer_skips_total 2",
		"tapas_replicate_queue_dropped_total 3",
		"tapas_replicate_repair_hits_total 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsForOmitsOptionalBlocks: without a coordinator or a
// replicated store, the fleet and replication families are absent
// entirely — not rendered as zeros.
func TestMetricsForOmitsOptionalBlocks(t *testing.T) {
	var sb strings.Builder
	if _, err := metricsFor(Stats{}).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, absent := range []string{"tapas_fleet_", "tapas_replicate_", "tapas_tasks_scattered_total"} {
		if strings.Contains(text, absent) {
			t.Errorf("metrics must omit %q without the subsystem:\n%s", absent, text)
		}
	}
}

// TestObservabilityMetrics: the request/phase/task histograms render as
// proper Prometheus histogram families with the observed samples.
func TestObservabilityMetrics(t *testing.T) {
	o := newObservability(Config{})
	o.reqHist.Observe(0.003)
	o.reqHist.Observe(0.2)
	res := &tapas.Result{}
	res.EnumTime = 40 * time.Millisecond
	o.observeCold(res)
	o.taskHist.Observe(1.5)

	var sb strings.Builder
	m := metricsFor(Stats{})
	o.addMetrics(m)
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE tapas_request_duration_seconds histogram",
		`tapas_request_duration_seconds_bucket{le="+Inf"} 2`,
		"tapas_request_duration_seconds_count 2",
		`tapas_phase_duration_seconds_bucket{le="+Inf",phase="enum"} 1`,
		`tapas_phase_duration_seconds_bucket{le="+Inf",phase="assemble"} 0`,
		"tapas_task_duration_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
