package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"tapas"
	"tapas/internal/graph"
	"tapas/internal/graphio"
)

// fuzzGraph builds the fixed target graph malformed plans are
// rehydrated against, plus one valid plan document for the corpus —
// once, shared across fuzz iterations.
var fuzzGraph = sync.OnceValues(func() (*graph.Graph, []byte) {
	g, err := graphio.Parse(strings.NewReader(tinySpec))
	if err != nil {
		panic(err)
	}
	eng := tapas.NewEngine()
	res, err := eng.SearchGraph(context.Background(), g, 4)
	if err != nil {
		panic(err)
	}
	plan, err := NewPlan(res.Strategy)
	if err != nil {
		panic(err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		panic(err)
	}
	return g, data
})

// FuzzRehydratePlan feeds arbitrary bytes through the full plan intake
// path a daemon or store-backed engine runs on untrusted documents:
// parse (ReadPlan), then rehydrate against a real graph. Malformed,
// truncated or mutated documents must surface as errors — never a
// panic, never an invalid accepted Strategy.
func FuzzRehydratePlan(f *testing.F) {
	g, valid := fuzzGraph()

	f.Add(valid)
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema_version": 99}`))
	f.Add([]byte(`{"schema_version": 1, "workers": -4, "assignments": []}`))
	f.Add([]byte(`{"schema_version": 1, "workers": 9007199254740993}`))
	f.Add(valid[:len(valid)/2])                                                    // truncated
	f.Add(valid[len(valid)/3:])                                                    // decapitated
	f.Add(bytes.ToUpper(valid))                                                    // case-mangled keys and values
	f.Add(bytes.ReplaceAll(valid, []byte(`"node":`), []byte(`"node":-`)))          // negative IDs
	f.Add(bytes.ReplaceAll(valid, []byte(`"pattern":"`), []byte(`"pattern":"??`))) // unknown patterns
	f.Add(bytes.ReplaceAll(valid, []byte(`"workers":4`), []byte(`"workers":1048577`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := RehydratePlan(p, g)
		if err != nil {
			return
		}
		// Anything accepted must be a complete, executable strategy.
		if s == nil || s.W < 1 || len(s.Assign) != len(s.Graph.Nodes) {
			t.Fatalf("rehydration accepted an incomplete strategy: %+v", s)
		}
	})
}

// FuzzJobRecords feeds arbitrary bytes as one job record through the
// intake a restarting daemon runs: jobStore.load over a filesystem jobs
// backend. It must never panic. Every record it accepts is stored under
// its own job ID's record id, and encodes, decodes and encodes again to
// the same bytes — the round trip the record's embedded JobStatus
// relies on to keep its fields at the top level. (Encodings, not
// values, are compared: an empty slice under omitempty decodes as nil.)
func FuzzJobRecords(f *testing.F) {
	f.Add([]byte(parentDoneRecord))
	f.Add([]byte(parentQueuedRecord))
	f.Add([]byte(parentDoneRecord[:len(parentDoneRecord)/2]))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema_version":99,"id":"job-future"}`))
	f.Add([]byte(`{"schema_version":1,"id":"job-000003-cccccccc","state":"running","gpus":4,"progress":{"phase":"mine"},"result":{"plan":{"assignments":[]}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// File the bytes under the record id of the job ID they name,
		// so the fuzzer reaches the accepting path too.
		var named struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(data, &named)
		id := JobRecordID(named.ID)
		backend := newJobsBackend(t, t.TempDir())
		if err := backend.Put(id, data); err != nil {
			t.Fatal(err)
		}
		js := newJobStore(backend, nil)
		defer js.Close()
		recs, err := js.load()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if JobRecordID(rec.ID) != id {
				t.Fatalf("record %q loaded from %s", rec.ID, id)
			}
			enc, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("loaded record does not encode: %v", err)
			}
			var back JobRecord
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatalf("encoded record does not decode: %v\n%s", err, enc)
			}
			again, err := json.Marshal(&back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, again) {
				t.Fatalf("record changed in a round trip:\n got %s\nwant %s", again, enc)
			}
		}
	})
}
