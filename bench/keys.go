package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"tapas/service"
)

// key names one search: a registered model at a GPU count.
type key struct {
	Model string `json:"model"`
	GPUs  int    `json:"gpus"`
}

func (k key) String() string { return fmt.Sprintf("%s@%d", k.Model, k.GPUs) }

// expectedEntry pins one key's plan: the SHA-256 of the plan document in
// the golden fixtures' byte form, and the plan's cost.
type expectedEntry struct {
	key
	PlanSHA256  string  `json:"plan_sha256"`
	CostSeconds float64 `json:"cost_seconds"`
}

// expectedJSON pins the key space (22 models x {4,8,16,32} GPUs) and a
// reference for every key. It was generated once, by
// `go test -run TestExpected -update`; the 4- and 8-GPU entries must
// agree with service/testdata/golden, which the benchmark did not write.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() ([]expectedEntry, error) {
	var doc struct {
		Keys []expectedEntry `json:"keys"`
	}
	if err := json.Unmarshal(expectedJSON, &doc); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return doc.Keys, nil
}

// goldenPath is the hand-pinned fixture of a 4- or 8-GPU key.
func goldenPath(root string, k key) string {
	return filepath.Join(root, "service", "testdata", "golden", fmt.Sprintf("%s_%dgpu.json", k.Model, k.GPUs))
}

// normalizePlan renders a plan document in the byte form the golden
// fixtures are kept in.
func normalizePlan(p *service.PlanJSON) ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// verifier decides whether a returned plan is byte-identical to its
// reference: the golden fixture for 4- and 8-GPU keys, expected.json
// for the rest.
type verifier struct {
	keys []key // the whole key space, in expected.json order
	want map[key][sha256.Size]byte

	// proven remembers, per key, the hash of a compact encoding that
	// already normalized to the reference, so a repeat answer costs one
	// hash instead of a decode and an indent.
	mu     sync.Mutex
	proven map[key][sha256.Size]byte
}

func newVerifier(root string) (*verifier, error) {
	entries, err := loadExpected()
	if err != nil {
		return nil, err
	}
	v := &verifier{want: map[key][sha256.Size]byte{}, proven: map[key][sha256.Size]byte{}}
	for _, e := range entries {
		v.keys = append(v.keys, e.key)
		if e.GPUs == 4 || e.GPUs == 8 {
			data, err := os.ReadFile(goldenPath(root, e.key))
			if err != nil {
				return nil, fmt.Errorf("golden plan of %v: %w", e.key, err)
			}
			v.want[e.key] = sha256.Sum256(data)
			continue
		}
		raw, err := hex.DecodeString(e.PlanSHA256)
		if err != nil || len(raw) != sha256.Size {
			return nil, fmt.Errorf("expected.json: bad plan_sha256 for %v", e.key)
		}
		v.want[e.key] = [sha256.Size]byte(raw)
	}
	return v, nil
}

// checkRaw verifies a plan document as it came over the wire or out of
// json.Marshal.
func (v *verifier) checkRaw(k key, raw []byte) error {
	want, ok := v.want[k]
	if !ok {
		return fmt.Errorf("%v: no reference plan", k)
	}
	h := sha256.Sum256(raw)
	v.mu.Lock()
	seen, ok := v.proven[k]
	v.mu.Unlock()
	if ok && seen == h {
		return nil
	}
	var plan service.PlanJSON
	if err := json.Unmarshal(raw, &plan); err != nil {
		return fmt.Errorf("%v: plan does not parse: %w", k, err)
	}
	norm, err := normalizePlan(&plan)
	if err != nil {
		return err
	}
	if sha256.Sum256(norm) != want {
		return fmt.Errorf("%v: plan bytes differ from the reference", k)
	}
	v.mu.Lock()
	v.proven[k] = h
	v.mu.Unlock()
	return nil
}

// checkPlan verifies an in-process plan document.
func (v *verifier) checkPlan(k key, p *service.PlanJSON) error {
	raw, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return v.checkRaw(k, raw)
}

// shuffled returns keys in an order drawn from r.
func shuffled(r *rand.Rand, keys []key) []key {
	out := append([]key(nil), keys...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tally counts operations attempted and failed; the first few failures
// are printed so a wrong plan can be chased.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) note(err error) {
	t.mu.Lock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
		}
	}
	t.mu.Unlock()
}
