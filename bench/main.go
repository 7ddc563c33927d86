// Command bench is the repository's one benchmark: it runs one named
// workload per invocation from a seed, verifies every plan the system
// returns against a pinned reference, and prints every metric by name
// with its unit. With -trace it repeats the workload with its own spans
// around the calls into each layer and prints the per-layer metrics
// instead. See README.md for why each workload exists and how the layer
// metrics map onto the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// bench is one invocation's context: where the repository is, what to
// run, and what must be undone before the process exits.
type bench struct {
	root    string // repository root (golden plans, daemon sources)
	seed    int64
	seconds time.Duration
	nproc   int
	rec     *recorder // nil on the untraced run

	tmp string // scratch directory, removed on exit

	mu       sync.Mutex
	cleanups []func()
}

// report is what one run measured.
type report struct {
	attempted, failed int
	metrics           map[string]sample
}

type sample struct {
	value float64
	n     int // samples or repeats behind the value (0: a single reading)
}

// onExit registers fn to run before the process exits, on every path
// including SIGINT and a failed check; last registered runs first.
func (b *bench) onExit(fn func()) {
	b.mu.Lock()
	b.cleanups = append(b.cleanups, fn)
	b.mu.Unlock()
}

// cleanup runs the registered functions once. It holds the lock while
// they run, so the signal path cannot exit the process half-way through
// a cleanup the main path started.
func (b *bench) cleanup() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := len(b.cleanups) - 1; i >= 0; i-- {
		b.cleanups[i]()
	}
	b.cleanups = nil
}

// setupRepeats is how often a run sets up. setup_s is the median of
// three, so one slow start (a cold page cache, a first build) does not
// decide it; the traced run does not report it and sets up once.
func (b *bench) setupRepeats() int {
	if b.rec != nil {
		return 1
	}
	return 3
}

// steps collects, for every step of a workload's round, the time of
// each repeat in milliseconds. A run repeats one fixed round of steps
// (searches of given keys, a store open, a request of a schedule), so the
// repeats of a step do identical work; what a shared host adds to one is
// never negative, and a step's time on an undisturbed machine is
// estimated by its fastest repeat (README.md, "Steadiness").
type steps map[string][]float64

func (s steps) add(step string, ms float64) {
	if s != nil {
		s[step] = append(s[step], ms)
	}
}

// quiet is the fastest repeat of each named step.
func (s steps) quiet(names ...string) []float64 {
	out := make([]float64, len(names))
	for i, name := range names {
		out[i] = slices.Min(s[name])
	}
	return out
}

// rounds is how often the least repeated of the named steps ran.
func (s steps) rounds(names ...string) int {
	n := len(s[names[0]])
	for _, name := range names[1:] {
		n = min(n, len(s[name]))
	}
	return n
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

// roundIsOp is the report of an untraced run whose round is one
// operation made of several answers to a caller (a pass of cold
// searches, a restart that answers every key): answers holds each
// answer's quiet time, lead the quiet time of what the operation does
// before it can answer, rest that of what the round does besides.
func roundIsOp(t *tally, setups, answers []float64, lead, rest float64, rounds int) *report {
	op := lead + sum(answers)
	return &report{attempted: t.attempted, failed: t.failed, metrics: map[string]sample{
		"setup_s":    {median(setups), len(setups)},
		"op_ms":      {op, rounds},
		"op_ms_tail": {slices.Max(answers), rounds},
		"ops_per_s":  {1000 / (op + rest), rounds},
	}}
}

// roundOfOps is the report of an untraced run whose round is a schedule
// of operations (requests): ops holds each one's quiet time.
func roundOfOps(t *tally, setups, ops []float64, rounds int) *report {
	return &report{attempted: t.attempted, failed: t.failed, metrics: map[string]sample{
		"setup_s":    {median(setups), len(setups)},
		"op_ms":      {median(ops), rounds},
		"op_ms_tail": {percentile(ops, serveTail), rounds},
		"ops_per_s":  {1000 * float64(len(ops)) / sum(ops), rounds},
	}}
}

// tempDir makes a fresh directory under the run's scratch directory.
func (b *bench) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(b.tmp, pattern)
}

func main() { os.Exit(run()) }

func run() int {
	wlName := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", runSeconds, "how long to measure")
	traceArg := flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics, spans written under .bench_build/; any other value: traced, spans written to that file")
	root := flag.String("root", "", "repository root (default: the nearest parent of the working directory that holds go.mod and service/testdata/golden)")
	list := flag.Bool("list", false, "print workloads and metrics, then exit")
	manifest := flag.Bool("manifest", false, "print the BENCHMARK.json this binary implements, then exit")
	flag.Parse()

	if *list {
		writeList(os.Stdout)
		return 0
	}
	if *manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	wl := findWorkload(*wlName)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *wlName)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	repo, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	b := &bench{root: repo, seed: *seed, seconds: time.Duration(*seconds) * time.Second, nproc: runtime.GOMAXPROCS(0)}
	scratch := filepath.Join(repo, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if b.tmp, err = os.MkdirTemp(scratch, wl.Name+"-"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b.onExit(func() { os.RemoveAll(b.tmp) })
	defer b.cleanup()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup()
		os.Exit(130)
	}()

	traced := *traceArg != "0"
	spanFile := *traceArg
	if traced {
		b.rec = newRecorder()
		if spanFile == "1" {
			spanFile = filepath.Join(repo, ".bench_build", "trace-"+wl.Name+".json")
		}
	}

	rep, err := wl.run(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if traced {
		if err := b.rec.writeFile(spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("# %d spans written to %s\n", b.rec.len(), spanFile)
	}
	// Children are stopped and scratch removed before the result line:
	// whoever reads it may tear the checkout down at once.
	b.cleanup()
	if err := printResult(rep, traced); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// findRoot locates the repository: the golden plans and the daemon
// sources live outside bench/, so a copy of bench/ alone cannot run.
func findRoot(given string) (string, error) {
	ok := func(dir string) bool {
		_, err1 := os.Stat(filepath.Join(dir, "go.mod"))
		_, err2 := os.Stat(filepath.Join(dir, "service", "testdata", "golden"))
		return err1 == nil && err2 == nil
	}
	if given != "" {
		abs, err := filepath.Abs(given)
		if err != nil {
			return "", err
		}
		if !ok(abs) {
			return "", fmt.Errorf("%s is not the repository root (no go.mod or service/testdata/golden)", abs)
		}
		return abs, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if ok(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("repository root not found above the working directory; pass -root")
		}
		dir = parent
	}
}

// printResult prints each metric on its own line for a reader and then
// the one JSON object the driver parses: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one.
func printResult(rep *report, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}

	emit := func(name, unit string) error {
		s, ok := rep.metrics[name]
		if !ok && !traced {
			return fmt.Errorf("workload did not report %s", name)
		}
		// A traced workload reports 0 for layers it does not reach.
		fmt.Printf("%-28s %16.6f %-6s n=%d\n", name, s.value, unit, s.n)
		out.Metrics[name] = value{s.value, unit}
		return nil
	}
	if traced {
		for _, m := range perLayerMetrics {
			if err := emit(m.Name, m.Unit); err != nil {
				return err
			}
		}
	} else {
		for _, m := range endToEndMetrics {
			if err := emit(m.Name, m.Unit); err != nil {
				return err
			}
		}
	}
	fmt.Printf("%-28s %16d of %d attempted\n", "failed", rep.failed, rep.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
