// Fleet example: two in-process replicas sharing one plan corpus over
// the store peer protocol — the multi-replica serving shape without
// needing real daemons. Replica A owns a filesystem store; replica B
// opens the same corpus through A's /v1/store endpoints
// (store/remotebackend). A plan searched cold by A is then answered by
// B with store_hit=true, rehydrated from the shared corpus instead of
// re-running the search.
//
// Run it:
//
//	go run ./examples/fleet -model t5-100M -gpus 8
//
// Real daemons share plans by replication instead: each owns a
// -store-dir and lists the other as a -store-peer, so a plan searched
// by either is a store hit on both, and killing either loses nothing:
//
//	tapas-serve   -addr :8081 -store-dir ./plans-a -store-peer http://127.0.0.1:8082
//	tapas-serve   -addr :8082 -store-dir ./plans-b -store-peer http://127.0.0.1:8081
//	tapas-gateway -addr :8080 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"tapas"
	"tapas/service"
	"tapas/store"
	"tapas/store/remotebackend"
)

func main() {
	model := flag.String("model", "t5-100M", "registered model name")
	gpus := flag.Int("gpus", 8, "total GPU count")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	dir, err := os.MkdirTemp("", "tapas-fleet-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Replica A owns the corpus: a filesystem store under dir.
	stA, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	svcA, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(stA)}})
	if err != nil {
		log.Fatal(err)
	}
	srvA := httptest.NewServer(service.NewHandler(svcA))
	defer srvA.Close()
	defer svcA.Shutdown(ctx)
	defer stA.Close()
	fmt.Printf("replica A (corpus owner) at %s, store %s\n", srvA.URL, dir)

	// Replica B shares it remotely, through A's /v1/store endpoints.
	stB, err := store.Open(store.Options{Backend: remotebackend.New(srvA.URL), Shared: true})
	if err != nil {
		log.Fatal(err)
	}
	svcB, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(stB)}})
	if err != nil {
		log.Fatal(err)
	}
	srvB := httptest.NewServer(service.NewHandler(svcB))
	defer srvB.Close()
	defer svcB.Shutdown(ctx)
	defer stB.Close()
	fmt.Printf("replica B (shares A's corpus) at %s\n\n", srvB.URL)

	req := service.SearchRequest{Model: *model, GPUs: *gpus}

	// Cold search on A: the full pipeline runs once, and the winning
	// plan is persisted write-behind into the shared corpus.
	cA := service.NewClient(srvA.URL)
	t0 := time.Now()
	cold, err := cA.Search(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A searched %s on %d GPUs cold in %v\n  plan %s\n  cache_hit=%v store_hit=%v\n\n",
		cold.Model, *gpus, time.Since(t0).Round(time.Millisecond), cold.PlanSummary, cold.CacheHit, cold.StoreHit)
	stA.Flush() // write-behind → corpus (a drain does this in a real daemon)

	// The same request on B: no search, no cache — the plan comes out
	// of the shared corpus, rehydrated, re-priced and re-simulated.
	cB := service.NewClient(srvB.URL)
	t1 := time.Now()
	warm, err := cB.Search(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B answered the same request in %v\n  plan %s\n  cache_hit=%v store_hit=%v\n\n",
		time.Since(t1).Round(time.Millisecond), warm.PlanSummary, warm.CacheHit, warm.StoreHit)

	if !warm.StoreHit {
		log.Fatal("expected replica B to serve from the shared corpus")
	}
	if warm.PlanSummary != cold.PlanSummary || warm.Report != cold.Report {
		log.Fatal("replicas disagreed on the plan")
	}
	fmt.Println("identical plan, cost and simulated report on both replicas — one search, fleet-wide warmth")

	// The corpus owner saw B's read through the peer protocol.
	health, err := cB.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica B store stats: hits=%d misses=%d entries=%d\n",
		health.Store.Hits, health.Store.Misses, health.Store.Entries)
}
