package main

import (
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tapas"
	"tapas/service"
	"tapas/store"
)

// binary is built once in TestMain and shared by every smoke test.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tapas-search-cli")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "tapas-search")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building tapas-search: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("tapas-search %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLISearchSmallModel(t *testing.T) {
	out := run(t, "-model", "t5-100M", "-gpus", "4", "-workers", "2")
	for _, want := range []string{"model:", "plan:", "search time:", "cost model:", "simulated:", "memory:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The plan line must carry at least one pattern×count entry.
	if !regexp.MustCompile(`plan:\s+\S+×\d+`).MatchString(out) {
		t.Errorf("plan line not parseable:\n%s", out)
	}
}

func TestCLIList(t *testing.T) {
	out := run(t, "-list")
	if !strings.Contains(out, "t5-100M") {
		t.Errorf("-list missing t5-100M:\n%s", out)
	}
}

func TestCLIBatchSearch(t *testing.T) {
	out := run(t, "-model", "t5-100M,resnet-26M", "-gpus", "4")
	for _, model := range []string{"t5-100M", "resnet-26M"} {
		if !regexp.MustCompile(model + `\s+4 GPUs\s+plan:`).MatchString(out) {
			t.Errorf("batch output missing line for %s:\n%s", model, out)
		}
	}
}

func TestCLIUnknownModelFails(t *testing.T) {
	cmd := exec.Command(binary, "-model", "no-such-model")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("want non-zero exit for unknown model, got:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("want non-zero exit code, got %v", err)
	}
}

// TestCLIRemoteBatch: -serve-addr with a comma-list posts one
// /v1/search:batch to the daemon and prints one line per model, the
// second round served from the daemon's cache.
func TestCLIRemoteBatch(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	for _, served := range []string{"cold", "cache"} {
		out := run(t, "-serve-addr", srv.URL, "-model", "t5-100M,twotower-small", "-gpus", "8")
		for _, model := range []string{"t5-100M", "twotower-small"} {
			if !regexp.MustCompile(model + `\s+8 GPUs\s+plan: .*\(` + served + `\)`).MatchString(out) {
				t.Errorf("remote batch output missing a %s line for %s:\n%s", served, model, out)
			}
		}
	}
}

// TestCLIRemoteStoreHit: a single -serve-addr search that a fresh daemon
// answers from its plan store is labeled "store", not "cold".
func TestCLIRemoteStoreHit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	serve := func() (*service.Service, *store.Store) {
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(st)}})
		if err != nil {
			t.Fatal(err)
		}
		return svc, st
	}

	warm, st := serve()
	if _, err := warm.Search(ctx, service.SearchRequest{Model: "t5-100M", GPUs: 8}); err != nil {
		t.Fatal(err)
	}
	warm.Shutdown(ctx)
	st.Close() // flushes the write-behind queue

	svc, st := serve()
	defer st.Close()
	defer svc.Shutdown(ctx)
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	out := run(t, "-serve-addr", srv.URL, "-model", "t5-100M", "-gpus", "8")
	if !strings.Contains(out, "(TAPAS, remote, store)") {
		t.Errorf("store hit not labeled as one:\n%s", out)
	}
}
