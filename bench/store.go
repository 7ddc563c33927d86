package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"tapas"
	"tapas/internal/models"
	"tapas/service"
	"tapas/store"
	"tapas/store/replicate"
)

// forEachKey calls fn for every key from n goroutines and waits.
func forEachKey(keys []key, n int, fn func(key)) {
	ch := make(chan key)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				fn(k)
			}
		}()
	}
	for _, k := range keys {
		ch <- k
	}
	close(ch)
	wg.Wait()
}

// stored is one record of the populated corpus, read back once so the
// write half of a cycle times the store and not the reads feeding it.
type stored struct {
	key key
	sk  store.Key
	rec *store.Record
}

// populateStore cold-searches the whole key space into a fresh store
// directory and reads the corpus back.
func populateStore(b *bench, v *verifier, t *tally) (string, []stored, error) {
	dir, err := b.tempDir("corpus-")
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return "", nil, err
	}
	eng := tapas.NewEngine(tapas.WithStore(st), tapas.WithWorkers(b.nproc))
	forEachKey(v.keys, b.nproc, func(k key) { searchVerified(eng, v, t, k) })
	st.Flush()
	var recs []stored
	for _, sk := range st.Keys() {
		rec, ok := st.Get(sk)
		if !ok {
			return "", nil, fmt.Errorf("populated store lost a record")
		}
		recs = append(recs, stored{key{rec.Model, rec.GPUs}, sk, rec})
	}
	if err := st.Close(); err != nil {
		return "", nil, err
	}
	if len(recs) != len(v.keys) {
		return "", nil, fmt.Errorf("populated store holds %d records, want %d", len(recs), len(v.keys))
	}
	return dir, recs, nil
}

// The steps of a restart cycle that are not the answer to a key.
const (
	stepOpen  = "store.Open"
	stepWrite = "corpus copy"
)

// cycle is what one restart cycle counted, and what the traced run
// measured besides, in milliseconds.
type cycle struct {
	hits, misses, dropped float64
	get, rehydrate        float64 // traced cycles only
}

// restartCycle reopens the store, answers every key from it through a
// fresh engine, then copies the corpus into a second directory through
// the write-behind queue. It adds the time of the open, of every answer
// (under the key's name) and of the copy to times.
func restartCycle(b *bench, rec *recorder, n int, v *verifier, t *tally, r *rand.Rand, dir string, recs []stored, times steps) (cycle, error) {
	var c cycle
	trace := fmt.Sprintf("cycle%d", n)
	sp := rec.begin(trace, 0, "store.Open")
	st, err := store.Open(store.Options{Dir: dir})
	times.add(stepOpen, sp.end())
	if err != nil {
		return c, err
	}
	eng := tapas.NewEngine(tapas.WithStore(st), tapas.WithWorkers(1))
	for _, k := range shuffled(r, v.keys) {
		sp := rec.begin(trace+"/"+k.String(), 0, "Engine.Search")
		res, err := eng.Search(context.Background(), k.Model, k.GPUs)
		times.add(k.String(), sp.end())
		if err == nil && !res.StoreHit {
			err = fmt.Errorf("%v: answered by a search, not from the store", k)
		}
		verifyResult(v, t, k, res, err)
	}
	stats := st.Stats()
	c.hits, c.misses = float64(stats.Hits), float64(stats.Misses)

	if rec != nil {
		// The two steps of a store hit the engine does not expose, each
		// under its own span.
		for _, s := range recs {
			tr := trace + "/" + s.key.String()
			sp := rec.begin(tr, 0, "store.Get")
			got, ok := st.Get(s.sk)
			c.get += sp.end()
			if !ok {
				return c, fmt.Errorf("%v: record vanished from the store", s.key)
			}
			g, err := models.Build(s.key.Model)
			if err != nil {
				return c, err
			}
			sp = rec.begin(tr, 0, "export.rehydrate")
			_, err = service.RehydratePlan(got.Plan, g)
			c.rehydrate += sp.end()
			if err != nil {
				return c, err
			}
		}
	}
	if err := st.Close(); err != nil {
		return c, err
	}

	dstDir, err := b.tempDir("copy-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dstDir)
	dst, err := store.Open(store.Options{Dir: dstDir})
	if err != nil {
		return c, err
	}
	var write float64
	write, c.dropped, err = copyCorpus(rec, trace, dst, recs)
	times.add(stepWrite, write)
	if err == nil && c.dropped > 0 {
		err = fmt.Errorf("%v of %d queued writes did not land", c.dropped, len(recs))
	}
	t.note(err) // the copy counts as one operation
	return c, nil
}

// copyCorpus writes every record through dst's write-behind queue and
// returns the time to queue, flush and close, and the writes that did
// not land.
func copyCorpus(rec *recorder, trace string, dst *store.Store, recs []stored) (float64, float64, error) {
	sp := rec.begin(trace, 0, "store.PutAsync+Flush+Close")
	for _, s := range recs {
		dst.PutAsync(s.sk, s.rec)
	}
	dst.Flush()
	err := dst.Close()
	d := sp.end()
	stats := dst.Stats()
	lost := float64(len(recs)) - float64(stats.Puts)
	return d, lost, err
}

func runStoreRestart(b *bench) (*report, error) {
	var (
		t      tally
		v      *verifier
		dir    string
		recs   []stored
		setups []float64
	)
	for i := 0; i < b.setupRepeats(); i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		var err error
		if v, err = newVerifier(b.root); err != nil {
			return nil, err
		}
		if dir, recs, err = populateStore(b, v, &t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Set-up populates on every core; the cycles run on one (README.md,
	// "Steadiness").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rand.New(rand.NewSource(b.seed))
	if b.rec != nil {
		return storeTraced(b, v, &t, r, dir, recs)
	}

	times := steps{}
	for start, n := time.Now(), 0; time.Since(start) < b.seconds; n++ {
		if _, err := restartCycle(b, nil, n, v, &t, r, dir, recs, times); err != nil {
			return nil, err
		}
	}
	answers := times.quiet(keyNames(v.keys)...)
	return roundIsOp(&t, setups, answers, times.quiet(stepOpen)[0], times.quiet(stepWrite)[0], times.rounds(stepOpen)), nil
}

// restartMS is the quiet time of one restart-to-warm: the open and the
// answer to every key.
func restartMS(times steps, keys []key) float64 {
	return times.quiet(stepOpen)[0] + sum(times.quiet(keyNames(keys)...))
}

// storeTraced is the traced run: plain cycles (the base for the tracing
// overhead) taking turns with traced ones for the store metrics, the
// corpus copied through a replicating backend, and the whole key space's
// cold search staged by hand (the work set-up spends its time on).
func storeTraced(b *bench, v *verifier, t *tally, r *rand.Rand, dir string, recs []stored) (*report, error) {
	out := map[string]sample{}
	plain, times := steps{}, steps{}
	var cycles []cycle
	for start, n := time.Now(), 0; time.Since(start) < 3*b.seconds/4; n++ {
		if _, err := restartCycle(b, nil, n, v, t, r, dir, recs, plain); err != nil {
			return nil, err
		}
		c, err := restartCycle(b, b.rec, n, v, t, r, dir, recs, times)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	// Like the untraced run, the fastest repeat of a time; the counts are
	// the same on every cycle.
	best := func(f func(cycle) float64) sample {
		vals := make([]float64, len(cycles))
		for i, c := range cycles {
			vals[i] = f(c)
		}
		return sample{slices.Min(vals), len(vals)}
	}
	out["store.open_ms"] = sample{times.quiet(stepOpen)[0], len(cycles)}
	out["store.get_ms"] = best(func(c cycle) float64 { return c.get })
	out["store.put_flush_ms"] = sample{times.quiet(stepWrite)[0], len(cycles)}
	out["store.hits"] = best(func(c cycle) float64 { return c.hits })
	out["store.misses"] = best(func(c cycle) float64 { return c.misses })
	out["store.dropped_writes"] = best(func(c cycle) float64 { return c.dropped })
	out["export.rehydrate_ms"] = best(func(c cycle) float64 { return c.rehydrate })
	out["store.records"] = sample{float64(len(recs)), 0}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out["store.bytes"] = sample{float64(size), 0}
	out["trace.overhead_share"] = sample{restartMS(times, v.keys)/restartMS(plain, v.keys) - 1, len(cycles)}

	var repl []float64
	for i := 0; i < 5; i++ {
		d, err := replicatedCopy(b, i, recs)
		if err != nil {
			return nil, err
		}
		repl = append(repl, d)
	}
	out["replicate.write_ms"] = sample{slices.Min(repl), len(repl)}
	out["replicate.fanout_overhead"] = sample{slices.Min(repl) / out["store.put_flush_ms"].value, len(repl)}

	rehydrate := out["export.rehydrate_ms"]
	s, err := stagedPass(b.rec, 0, v, t, v.keys, 1)
	if err != nil {
		return nil, err
	}
	stageMetrics([]stageSums{s}, out)
	out["export.rehydrate_ms"] = rehydrate // the store hit's own, measured per cycle
	return &report{attempted: t.attempted, failed: t.failed, metrics: out}, nil
}

// replicatedCopy copies the corpus through store/replicate with one
// filesystem peer and returns the time until both copies are durable.
func replicatedCopy(b *bench, n int, recs []stored) (float64, error) {
	var dirs [2]string
	for i := range dirs {
		d, err := b.tempDir("repl-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	local, err := store.NewFS(dirs[0])
	if err != nil {
		return 0, err
	}
	peer, err := store.NewFS(dirs[1])
	if err != nil {
		return 0, err
	}
	rb, err := replicate.New(replicate.Options{Local: local, Peers: []replicate.Peer{{Name: "peer", Backend: peer}}, ProbeInterval: -1})
	if err != nil {
		return 0, err
	}
	dst, err := store.Open(store.Options{Backend: rb, Shared: true})
	if err != nil {
		return 0, err
	}
	sp := b.rec.begin(fmt.Sprintf("replicate%d", n), 0, "replicate.write")
	for _, s := range recs {
		dst.PutAsync(s.sk, s.rec)
	}
	dst.Flush()
	rb.Flush()
	err = dst.Close()
	if cerr := rb.Close(); err == nil {
		err = cerr
	}
	d := sp.end()
	if err != nil {
		return 0, err
	}
	ents, err := peer.List()
	if err != nil {
		return 0, err
	}
	if len(ents) != len(recs) {
		return 0, fmt.Errorf("replication peer holds %d records, want %d", len(ents), len(recs))
	}
	return d, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
