package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// binary is built once in TestMain and shared by every smoke test.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tapas-bench-cli")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "tapas-bench")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building tapas-bench: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestCLIListExperiments(t *testing.T) {
	out, err := exec.Command(binary, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("tapas-bench -list: %v\n%s", err, out)
	}
	for _, id := range []string{"fig1", "fig6", "tab2"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list missing %s:\n%s", id, out)
		}
	}
}

func TestCLIQuickExperiment(t *testing.T) {
	out, err := exec.Command(binary, "-exp", "fig10", "-quick", "-workers", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("tapas-bench -exp fig10 -quick: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`==== Figure 10`).Match(out) {
		t.Errorf("missing experiment header:\n%s", out)
	}
	if !regexp.MustCompile(`\(generated in .*\)`).Match(out) {
		t.Errorf("missing completion footer:\n%s", out)
	}
}

func TestCLIUnknownExperimentFails(t *testing.T) {
	out, err := exec.Command(binary, "-exp", "fig99").CombinedOutput()
	if err == nil {
		t.Fatalf("want non-zero exit for unknown experiment, got:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown experiment") {
		t.Errorf("missing diagnostic:\n%s", out)
	}
}
