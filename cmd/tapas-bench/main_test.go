package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tapas/internal/cli"
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

// TestCLITimeoutPrintsFinishedRows: a -timeout that cuts the full
// Figure 7 sweep (14 models, about 20 s on two cores) still prints the
// figure's heading and the rows finished before the cut, and exits with
// the interrupt code.
func TestCLITimeoutPrintsFinishedRows(t *testing.T) {
	cmd := exec.Command(binary, "-exp", "fig7", "-timeout", "3s")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != cli.ExitCode(context.DeadlineExceeded) {
		t.Fatalf("exit = %v, want code %d\nstdout:\n%s\nstderr:\n%s", err, cli.ExitCode(context.DeadlineExceeded), &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "fig7 failed: context deadline exceeded") {
		t.Errorf("missing diagnostic:\n%s", &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "==== Figure 7") ||
		!strings.HasPrefix(lines[1], "# Figure 7") || !strings.HasPrefix(lines[2], "model ") {
		t.Fatalf("missing heading:\n%s", &stdout)
	}
	rows := 0
	for _, l := range lines[3:] {
		switch {
		case strings.HasPrefix(l, "-- "):
		case len(strings.Fields(l)) == 6:
			rows++
		default:
			t.Errorf("unexpected line %q", l)
		}
	}
	if rows < 1 || rows >= 14 {
		t.Errorf("printed %d rows, want the cut sweep's finished ones:\n%s", rows, &stdout)
	}
}
