package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tapas"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// newTasksServer stands up a daemon for /v1/tasks tests.
func newTasksServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return srv, svc
}

func postTasks(t *testing.T, srv *httptest.Server, req TaskRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(srv.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// TestTasksEndpoint round-trips a real batch: the HTTP answer must equal
// a direct strategy.ExecuteTasks run against the same graph.
func TestTasksEndpoint(t *testing.T) {
	srv, svc := newTasksServer(t)

	const model, w = "t5-100M", 8
	g, err := tapas.BuildModel(model)
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	gg, err := ir.Group(g)
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	// A two-node instance with whole-tree and single-branch tasks.
	ids := []int{gg.Nodes[0].ID, gg.Nodes[1].ID}
	tasks := []TaskSpec{{Budget: 50}, {Prefix: []int{0}, Budget: 10}}

	cl := cluster.V100GPUs(w)
	opt := strategy.DefaultEnumOptions(w)
	specs := make([]strategy.TaskSpec, len(tasks))
	for i, ts := range tasks {
		specs[i] = strategy.TaskSpec{Prefix: ts.Prefix, Budget: ts.Budget}
	}
	want, err := strategy.ExecuteTasks(context.Background(), gg, ids, cost.Default(cl), opt, specs)
	if err != nil {
		t.Fatalf("local ExecuteTasks: %v", err)
	}

	resp, body := postTasks(t, srv, TaskRequest{
		Model:        model,
		GPUs:         w,
		ClusterSig:   cl.Signature(),
		W:            opt.W,
		AllowReshard: opt.AllowReshard,
		Instance:     ids,
		Tasks:        tasks,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr TaskResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if tr.SchemaVersion != SchemaVersion {
		t.Errorf("schema %d, want %d", tr.SchemaVersion, SchemaVersion)
	}
	if len(tr.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(tr.Results), len(want))
	}
	for i, r := range tr.Results {
		if !reflect.DeepEqual(r.Candidates, want[i].Candidates) {
			t.Errorf("task %d: candidates diverged from local execution", i)
		}
		if r.Examined != want[i].Stats.Examined || r.Pruned != want[i].Stats.Pruned {
			t.Errorf("task %d: effort (%d, %d) != local (%d, %d)",
				i, r.Examined, r.Pruned, want[i].Stats.Examined, want[i].Stats.Pruned)
		}
	}

	if st := svc.Stats(); st.TasksExecuted != uint64(len(tasks)) {
		t.Errorf("tasks_executed %d, want %d", st.TasksExecuted, len(tasks))
	}
}

// TestTasksEndpointRejections maps the failure taxonomy onto statuses.
func TestTasksEndpointRejections(t *testing.T) {
	srv, svc := newTasksServer(t)
	ok := TaskRequest{
		Model: "t5-100M", GPUs: 8, W: 8,
		Instance: []int{0}, Tasks: []TaskSpec{{Budget: 1}},
	}
	cases := []struct {
		name   string
		mut    func(*TaskRequest)
		status int
	}{
		{"unknown model", func(r *TaskRequest) { r.Model = "no-such-model" }, http.StatusNotFound},
		{"model and spec", func(r *TaskRequest) { r.Spec = "x" }, http.StatusBadRequest},
		{"future schema", func(r *TaskRequest) { r.SchemaVersion = SchemaVersion + 1 }, http.StatusBadRequest},
		{"zero gpus", func(r *TaskRequest) { r.GPUs = 0 }, http.StatusBadRequest},
		{"bad cluster", func(r *TaskRequest) { r.Cluster = "tpu" }, http.StatusBadRequest},
		{"sig mismatch", func(r *TaskRequest) { r.ClusterSig = "bogus" }, http.StatusBadRequest},
		{"no tasks", func(r *TaskRequest) { r.Tasks = nil }, http.StatusBadRequest},
		{"no instance", func(r *TaskRequest) { r.Instance = nil }, http.StatusBadRequest},
		{"unknown node id", func(r *TaskRequest) { r.Instance = []int{1 << 30} }, http.StatusBadRequest},
		{"negative budget", func(r *TaskRequest) { r.Tasks = []TaskSpec{{Budget: -1}} }, http.StatusBadRequest},
		{"mem penalty", func(r *TaskRequest) { r.MemPenalty = 1e-9 }, http.StatusBadRequest},
		{"oversized prefix", func(r *TaskRequest) {
			r.Tasks = []TaskSpec{{Prefix: []int{0, 0}, Budget: 1}}
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := ok
		tc.mut(&req)
		resp, body := postTasks(t, srv, req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
	if st := svc.Stats(); st.TasksFailed != uint64(len(cases)) {
		t.Errorf("tasks_failed %d, want %d", st.TasksFailed, len(cases))
	}
	if st := svc.Stats(); st.TasksExecuted != 0 {
		t.Errorf("tasks_executed %d, want 0", st.TasksExecuted)
	}
}
