package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// stdout runs the binary and returns what it wrote to stdout alone.
func stdout(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(binary, args...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("tapas-search %v: %v\n%s", args, err, stderr)
	}
	return out
}

// TestCLIFormatJSONMatchesGolden: -format json writes the plan document
// byte-for-byte as the golden fixture pins it, whether the plan was
// searched in-process or answered by a daemon.
func TestCLIFormatJSONMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "service", "testdata", "golden", "t5-100M_4gpu.json"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-model", "t5-100M", "-gpus", "4", "-format", "json"}
	if got := stdout(t, args...); !bytes.Equal(got, want) {
		t.Errorf("in-process -format json differs from the golden plan:\n%s", got)
	}

	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	defer svc.Shutdown(context.Background())
	if got := stdout(t, append(args, "-serve-addr", srv.URL)...); !bytes.Equal(got, want) {
		t.Errorf("remote -format json differs from the golden plan:\n%s", got)
	}
}

func TestCLIFormatDotAndTrace(t *testing.T) {
	if dot := stdout(t, "-model", "t5-100M", "-gpus", "4", "-format", "dot"); !bytes.HasPrefix(dot, []byte("digraph")) {
		t.Errorf("-format dot does not start with digraph:\n%.200s", dot)
	}
	if tr := stdout(t, "-model", "t5-100M", "-gpus", "4", "-format", "trace"); !json.Valid(tr) {
		t.Errorf("-format trace is not JSON:\n%.200s", tr)
	}
}

// TestCLIFormatRefusals: views that need the in-process Strategy refuse
// -serve-addr, a batch prints text only, and an unknown format is a
// usage error — all exit 2 before anything is searched or contacted.
func TestCLIFormatRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "t5-100M", "-format", "dot", "-serve-addr", "http://127.0.0.1:1"},
		{"-model", "t5-100M", "-format", "trace", "-serve-addr", "http://127.0.0.1:1"},
		{"-model", "t5-100M,resnet-26M", "-format", "json"},
		{"-model", "t5-100M,resnet-26M", "-format", "dot"},
		{"-model", "t5-100M,resnet-26M", "-format", "trace"},
		{"-model", "t5-100M,resnet-26M", "-format", "json", "-serve-addr", "http://127.0.0.1:1"},
		{"-model", "t5-100M", "-format", "svg"},
	} {
		out, err := exec.Command(binary, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("tapas-search %v: want exit 2, got %v\n%s", args, err, out)
		}
	}
}
