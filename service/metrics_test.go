package service

import (
	"strings"
	"testing"
	"time"

	"tapas"
	"tapas/store"
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

// TestMetricsForStoreBlock: a daemon with a plan store and durable jobs
// renders exactly these tapas_store_* and tapas_job_store_* families,
// each with its snapshot value.
func TestMetricsForStoreBlock(t *testing.T) {
	st := Stats{
		Store: &store.Stats{
			Hits:        1,
			Misses:      2,
			Puts:        3,
			Evictions:   4,
			Corrupt:     5,
			Dropped:     6,
			WriteErrors: 7,
			ReadErrors:  8,
			Entries:     9,
			Capacity:    10,
		},
		JobStore: &JobStoreStats{
			Records:     21,
			Persists:    22,
			Deletes:     23,
			Dropped:     24,
			WriteErrors: 25,
			Corrupt:     26,
		},
	}
	var sb strings.Builder
	if _, err := metricsFor(st).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "tapas_store_") || strings.HasPrefix(line, "tapas_job_store_") {
			got = append(got, line)
		}
	}
	want := []string{
		"tapas_job_store_records 21",
		"tapas_job_store_persists_total 22",
		"tapas_job_store_deletes_total 23",
		"tapas_job_store_dropped_total 24",
		"tapas_job_store_write_errors_total 25",
		"tapas_job_store_corrupt_total 26",
		"tapas_store_hits_total 1",
		"tapas_store_misses_total 2",
		"tapas_store_puts_total 3",
		"tapas_store_evictions_total 4",
		"tapas_store_corrupt_total 5",
		"tapas_store_dropped_total 6",
		"tapas_store_write_errors_total 7",
		"tapas_store_read_errors_total 8",
		"tapas_store_entries 9",
		"tapas_store_capacity 10",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("store families:\n got %q\nwant %q", got, want)
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
