// Command tapas-benchgate compares two machine-readable benchmark
// records (the -json output of tapas-bench) and exits non-zero when the
// candidate regresses against the baseline — the CI teeth for the
// tracked BENCH_*.json records, which until now were only validated and
// archived.
//
// Searches are aligned by (model, gpus). For each pair the gate checks:
//
//   - cold_ms: the candidate's cold search may not be more than
//     -tolerance (default 10%) slower than the baseline, after
//     calibration (below). Ratios alone are meaningless on
//     millisecond-scale searches — a scheduler hiccup doubles a 4ms
//     measurement — so a pair additionally only fails when the
//     absolute slowdown beyond the calibrated expectation exceeds
//     -min-delta-ms (default 20ms).
//   - warm_cache_hit: must be true in the candidate — a cold repeat is
//     a cache regression regardless of timing.
//   - cost_seconds / tflops_per_gpu: the search is deterministic, so
//     plan quality must match the baseline almost exactly (0.1%); a
//     drift here is a search regression, not noise.
//
// Raw wall-clock comparisons across machines are meaningless: the CI
// runner of the day may be uniformly 2x slower than the machine that
// wrote the baseline. With -calibrate (the default), the gate first
// estimates the machine-speed ratio as the median of the per-model
// cold_ms ratios (candidate/baseline) and then flags only models whose
// ratio exceeds median*(1+tolerance) — a uniform slowdown moves the
// median and cancels out, while a single model regressing stands out
// against its siblings. -calibrate=false compares raw ratios against
// 1+tolerance, for same-machine A/B runs.
//
// Models present in only one record are reported but do not fail the
// gate (the tracked matrix may grow); an empty intersection does.
//
// Usage:
//
//	tapas-benchgate -baseline BENCH_15.json -candidate bench.json
//	tapas-benchgate -baseline old.json -candidate new.json -tolerance 0.05 -calibrate=false
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

// benchRecord mirrors the fields of tapas-bench's -json record the
// gate consumes; unknown fields are ignored so additive schema changes
// don't break old gates.
type benchRecord struct {
	SchemaVersion int            `json:"schema_version"`
	Searches      []searchRecord `json:"searches"`
}

type searchRecord struct {
	Model        string  `json:"model"`
	GPUs         int     `json:"gpus"`
	ColdMS       float64 `json:"cold_ms"`
	WarmCacheHit bool    `json:"warm_cache_hit"`
	CostSeconds  float64 `json:"cost_seconds"`
	TFLOPsPerGPU float64 `json:"tflops_per_gpu"`
	// Cold-search phase split, so a cold_ms regression names the guilty
	// phase instead of just the total. Zero means the record predates
	// the columns and the attribution is skipped.
	MineMS     float64 `json:"mine_ms"`
	EnumMS     float64 `json:"enum_ms"`
	AssembleMS float64 `json:"assemble_ms"`
	// Deterministic search-shape counters: identical plans must examine
	// the same candidates, fold the same classes, and mine the same
	// number of Apriori levels. Zero means the record predates the
	// column and the check is skipped.
	Examined   int `json:"examined"`
	Classes    int `json:"classes"`
	MineLevels int `json:"mine_levels"`
}

// gateResult is the verdict for one aligned (model, gpus) pair.
type gateResult struct {
	Model   string
	GPUs    int
	Ratio   float64 // candidate cold_ms / baseline cold_ms
	Split   string  // candidate enum/assemble split, "" when absent
	Failed  bool
	Reasons []string
}

// qualityEpsilon bounds the relative drift allowed in the deterministic
// plan-quality fields (cost_seconds, tflops_per_gpu).
const qualityEpsilon = 1e-3

// gate aligns the two records by (model, gpus) and applies the checks.
// It returns the per-pair verdicts, the calibration scale used (1 when
// calibrate is false), and an error only for structural problems (bad
// schema, empty intersection) — regressions are reported via Failed.
func gate(baseline, candidate benchRecord, tolerance, minDeltaMS float64, calibrate bool) ([]gateResult, float64, error) {
	if baseline.SchemaVersion != 1 || candidate.SchemaVersion != 1 {
		return nil, 0, fmt.Errorf("unsupported schema_version (baseline=%d candidate=%d, want 1)",
			baseline.SchemaVersion, candidate.SchemaVersion)
	}
	type key struct {
		model string
		gpus  int
	}
	base := make(map[key]searchRecord, len(baseline.Searches))
	for _, s := range baseline.Searches {
		base[key{s.Model, s.GPUs}] = s
	}

	var pairs []gateResult
	var cands []searchRecord
	for _, s := range candidate.Searches {
		b, ok := base[key{s.Model, s.GPUs}]
		if !ok {
			continue
		}
		if b.ColdMS <= 0 {
			return nil, 0, fmt.Errorf("%s/%d: baseline cold_ms %.3f is not positive", s.Model, s.GPUs, b.ColdMS)
		}
		split := ""
		if s.MineMS+s.EnumMS+s.AssembleMS > 0 {
			split = fmt.Sprintf(" (mine %.1f enum %.1f assemble %.1f ms)", s.MineMS, s.EnumMS, s.AssembleMS)
		}
		pairs = append(pairs, gateResult{Model: s.Model, GPUs: s.GPUs, Ratio: s.ColdMS / b.ColdMS, Split: split})
		cands = append(cands, s)
	}
	if len(pairs) == 0 {
		return nil, 0, fmt.Errorf("no (model, gpus) pairs in common between baseline and candidate")
	}

	scale := 1.0
	if calibrate {
		ratios := make([]float64, len(pairs))
		for i, p := range pairs {
			ratios[i] = p.Ratio
		}
		sort.Float64s(ratios)
		if n := len(ratios); n%2 == 1 {
			scale = ratios[n/2]
		} else {
			scale = (ratios[n/2-1] + ratios[n/2]) / 2
		}
	}

	limit := scale * (1 + tolerance)
	for i := range pairs {
		p := &pairs[i]
		s, b := cands[i], base[key{p.Model, p.GPUs}]
		if delta := s.ColdMS - scale*b.ColdMS; p.Ratio > limit && delta > minDeltaMS {
			p.Failed = true
			p.Reasons = append(p.Reasons, fmt.Sprintf(
				"cold_ms %.3f vs baseline %.3f: ratio %.3f exceeds limit %.3f (scale %.3f, tolerance %.0f%%), +%.3fms over floor %.0fms",
				s.ColdMS, b.ColdMS, p.Ratio, limit, scale, tolerance*100, delta, minDeltaMS))
			if phase, ok := guiltyPhase(b, s, scale); ok {
				p.Reasons = append(p.Reasons, phase)
			}
		}
		if !s.WarmCacheHit {
			p.Failed = true
			p.Reasons = append(p.Reasons, "warm repeat missed the cache")
		}
		if drift := relDrift(s.CostSeconds, b.CostSeconds); drift > qualityEpsilon {
			p.Failed = true
			p.Reasons = append(p.Reasons, fmt.Sprintf(
				"cost_seconds drifted %.4g -> %.4g (the search is deterministic; this is a plan change)",
				b.CostSeconds, s.CostSeconds))
		}
		if drift := relDrift(s.TFLOPsPerGPU, b.TFLOPsPerGPU); drift > qualityEpsilon {
			p.Failed = true
			p.Reasons = append(p.Reasons, fmt.Sprintf(
				"tflops_per_gpu drifted %.4g -> %.4g", b.TFLOPsPerGPU, s.TFLOPsPerGPU))
		}
		// The counters are exact: any difference is a search-shape change,
		// not noise. Skipped when the baseline predates the column.
		exact := []struct {
			name       string
			base, cand int
		}{
			{"examined", b.Examined, s.Examined},
			{"classes", b.Classes, s.Classes},
			{"mine_levels", b.MineLevels, s.MineLevels},
		}
		for _, e := range exact {
			if e.base != 0 && e.base != e.cand {
				p.Failed = true
				p.Reasons = append(p.Reasons, fmt.Sprintf(
					"%s changed %d -> %d (deterministic counter; the search explored a different space)",
					e.name, e.base, e.cand))
			}
		}
	}
	return pairs, scale, nil
}

// guiltyPhase attributes a cold_ms regression to the pipeline phase
// that grew the most beyond the calibrated expectation, so the report
// names enum vs assemble (vs mine) instead of just the total. Returns
// ok=false when either record predates the phase columns.
func guiltyPhase(b, s searchRecord, scale float64) (string, bool) {
	if b.MineMS+b.EnumMS+b.AssembleMS == 0 || s.MineMS+s.EnumMS+s.AssembleMS == 0 {
		return "", false
	}
	phases := []struct {
		name       string
		base, cand float64
	}{
		{"mine", b.MineMS, s.MineMS},
		{"enum", b.EnumMS, s.EnumMS},
		{"assemble", b.AssembleMS, s.AssembleMS},
	}
	worst := phases[0]
	worstDelta := worst.cand - scale*worst.base
	for _, ph := range phases[1:] {
		if d := ph.cand - scale*ph.base; d > worstDelta {
			worst, worstDelta = ph, d
		}
	}
	return fmt.Sprintf(
		"slowdown concentrates in the %s phase: %s_ms %.3f -> %.3f (+%.3fms beyond scale; mine %.3f->%.3f enum %.3f->%.3f assemble %.3f->%.3f)",
		worst.name, worst.name, worst.base, worst.cand, worstDelta,
		b.MineMS, s.MineMS, b.EnumMS, s.EnumMS, b.AssembleMS, s.AssembleMS), true
}

// relDrift is |a-b| relative to the larger magnitude; 0 when both are 0.
func relDrift(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m <= 0 {
		return 0
	}
	return d / m
}

func loadRecord(path string) (benchRecord, error) {
	var r benchRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline benchmark record (required)")
	candidatePath := flag.String("candidate", "", "candidate benchmark record (required)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed cold_ms slowdown beyond the calibration scale")
	minDeltaMS := flag.Float64("min-delta-ms", 20, "absolute cold_ms slowdown below which a ratio overrun is treated as noise")
	calibrate := flag.Bool("calibrate", true, "cancel uniform machine-speed differences via the median cold_ms ratio")
	flag.Parse()

	log.SetPrefix("tapas-benchgate: ")
	log.SetFlags(0)
	if *baselinePath == "" || *candidatePath == "" {
		log.Printf("both -baseline and -candidate are required")
		os.Exit(2)
	}

	baseline, err := loadRecord(*baselinePath)
	if err != nil {
		log.Printf("%v", err)
		os.Exit(2)
	}
	candidate, err := loadRecord(*candidatePath)
	if err != nil {
		log.Printf("%v", err)
		os.Exit(2)
	}

	results, scale, err := gate(baseline, candidate, *tolerance, *minDeltaMS, *calibrate)
	if err != nil {
		log.Printf("%v", err)
		os.Exit(2)
	}

	failed := 0
	for _, r := range results {
		status := "ok"
		if r.Failed {
			status = "FAIL"
			failed++
		}
		log.Printf("%-4s %s/%dgpu ratio %.3f%s", status, r.Model, r.GPUs, r.Ratio, r.Split)
		for _, reason := range r.Reasons {
			log.Printf("     %s", reason)
		}
	}
	log.Printf("%d/%d pairs passed (calibration scale %.3f)", len(results)-failed, len(results), scale)
	if failed > 0 {
		os.Exit(1)
	}
}
