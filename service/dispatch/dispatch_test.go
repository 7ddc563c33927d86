package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tapas"
	"tapas/service"
)

// newPeerServer stands up a real in-process daemon and returns its URL.
func newPeerServer(t *testing.T) string {
	t.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return srv.URL
}

func TestRunnerNilWithoutIdentityOrPeers(t *testing.T) {
	c := New(Options{Peers: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	defer c.Close()
	if r := c.Runner(tapas.TaskRef{GPUs: 8}); r != nil {
		t.Error("runner for a search without wire identity must be nil")
	}
	if r := c.Runner(tapas.TaskRef{Model: "t5-100M", GPUs: 8}); r == nil {
		t.Error("runner for a registered model must not be nil")
	}

	empty := New(Options{ProbeInterval: -1})
	defer empty.Close()
	if r := empty.Runner(tapas.TaskRef{Model: "t5-100M", GPUs: 8}); r != nil {
		t.Error("runner without peers must be nil")
	}
}

// TestScatterEquivalence: a search scattered across one real peer (plus
// one dead and one rejecting peer forcing failover) selects exactly the
// plan and effort of a serial single-process search.
func TestScatterEquivalence(t *testing.T) {
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusInternalServerError)
	}))
	defer reject.Close()

	coord := New(Options{
		Peers:         []string{"http://127.0.0.1:1", newPeerServer(t), reject.URL},
		TaskTimeout:   30 * time.Second,
		ProbeInterval: -1,
		Logf:          t.Logf,
	})
	defer coord.Close()

	const model, gpus = "t5-100M", 8
	serialEng := tapas.NewEngine(tapas.WithWorkers(1), tapas.WithCache(0))
	serial, err := serialEng.Search(context.Background(), model, gpus)
	if err != nil {
		t.Fatalf("serial search: %v", err)
	}
	eng := tapas.NewEngine(tapas.WithTaskRunner(coord.Runner), tapas.WithCache(0))
	scattered, err := eng.Search(context.Background(), model, gpus)
	if err != nil {
		t.Fatalf("scattered search: %v", err)
	}
	if scattered.Strategy.Describe() != serial.Strategy.Describe() {
		t.Error("scattered plan diverged from serial")
	}
	if scattered.Strategy.Cost.Total() != serial.Strategy.Cost.Total() {
		t.Errorf("scattered cost %v != serial %v",
			scattered.Strategy.Cost.Total(), serial.Strategy.Cost.Total())
	}
	if scattered.Examined != serial.Examined {
		t.Errorf("scattered examined %d != serial %d",
			scattered.Examined, serial.Examined)
	}

	fs := coord.FleetStats()
	if fs.TasksScattered == 0 {
		t.Error("no tasks reached the healthy peer")
	}
	if fs.TasksFailedOver == 0 {
		t.Error("dead and rejecting peers produced no failovers")
	}
	if fs.Peers != 3 {
		t.Errorf("fleet size %d, want 3", fs.Peers)
	}
	if fs.PeersHealthy == 3 {
		t.Error("the dead peer was never marked unhealthy")
	}
}

// TestAllPeersDead: with every peer unreachable the scatter falls back
// to the local pool and the search still matches serial exactly.
func TestAllPeersDead(t *testing.T) {
	coord := New(Options{
		Peers:         []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		TaskTimeout:   5 * time.Second,
		ProbeInterval: -1,
		Logf:          t.Logf,
	})
	defer coord.Close()

	const model, gpus = "resnet-26M", 8
	serialEng := tapas.NewEngine(tapas.WithWorkers(1), tapas.WithCache(0))
	serial, err := serialEng.Search(context.Background(), model, gpus)
	if err != nil {
		t.Fatalf("serial search: %v", err)
	}
	eng := tapas.NewEngine(tapas.WithTaskRunner(coord.Runner), tapas.WithCache(0))
	scattered, err := eng.Search(context.Background(), model, gpus)
	if err != nil {
		t.Fatalf("scattered search: %v", err)
	}
	if scattered.Strategy.Describe() != serial.Strategy.Describe() {
		t.Error("plan diverged from serial with a dead fleet")
	}
	fs := coord.FleetStats()
	if fs.TasksScattered != 0 {
		t.Errorf("dead fleet executed %d tasks", fs.TasksScattered)
	}
	if fs.TasksLocal == 0 {
		t.Error("local pool executed nothing")
	}
	if fs.PeersHealthy != 0 {
		t.Errorf("%d dead peers still marked healthy", fs.PeersHealthy)
	}
}

// downable serves a daemon's handler while up and answers 503 to every
// request while down.
type downable struct {
	h    http.Handler
	down atomic.Bool
}

func (d *downable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.down.Load() {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		return
	}
	d.h.ServeHTTP(w, r)
}

// TestPeerRecoversOnlyThroughProbe: a peer marked down by a failed ship
// rejoins the fleet through the probe loop, with no scatter in between;
// with probing off it stays down, since the scatter never retries an
// unhealthy peer.
func TestPeerRecoversOnlyThroughProbe(t *testing.T) {
	for _, probe := range []bool{true, false} {
		t.Run(fmt.Sprintf("probe=%v", probe), func(t *testing.T) {
			svc, err := service.New(service.Config{})
			if err != nil {
				t.Fatalf("service.New: %v", err)
			}
			peer := &downable{h: service.NewHandler(svc)}
			peer.down.Store(true)
			srv := httptest.NewServer(peer)
			t.Cleanup(func() {
				srv.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = svc.Shutdown(ctx)
			})
			interval, wantHealthy := time.Duration(-1), 0
			if probe {
				interval, wantHealthy = 5*time.Millisecond, 1
			}
			coord := New(Options{Peers: []string{srv.URL}, TaskTimeout: 30 * time.Second, ProbeInterval: interval, Logf: t.Logf})
			defer coord.Close()

			eng := tapas.NewEngine(tapas.WithTaskRunner(coord.Runner), tapas.WithCache(0))
			if _, err := eng.Search(context.Background(), "t5-100M", 8); err != nil {
				t.Fatalf("search: %v", err)
			}
			after := coord.FleetStats()
			if after.PeersHealthy != 0 || after.TasksScattered != 0 {
				t.Fatalf("after the failed ships: %+v, want the peer down and nothing scattered", after)
			}

			peer.down.Store(false)
			deadline := time.Now().Add(5 * time.Second)
			if !probe {
				deadline = time.Now().Add(50 * time.Millisecond) // ten probe intervals of the probing arm
			}
			for coord.FleetStats().PeersHealthy == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			fs := coord.FleetStats()
			if fs.PeersHealthy != wantHealthy {
				t.Errorf("peer up again: %d healthy peers, want %d", fs.PeersHealthy, wantHealthy)
			}
			if fs.TasksScattered != after.TasksScattered || fs.TasksLocal != after.TasksLocal {
				t.Errorf("a scatter ran in between: %+v, then %+v", after, fs)
			}
		})
	}
}
