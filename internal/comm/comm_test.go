package comm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWireBytesFormulas(t *testing.T) {
	const n = int64(1000)
	cases := []struct {
		kind Kind
		w    int
		want int64
	}{
		{AllReduce, 4, 2 * 1000 * 3 / 4},
		{AllGather, 4, 1000 * 3 / 4},
		{ReduceScatter, 4, 1000 * 3 / 4},
		{AllToAll, 4, 1000 * 3 / 4},
		{Broadcast, 4, 1000},
		{None, 4, 0},
		{AllReduce, 1, 0}, // single worker: no traffic
	}
	for _, c := range cases {
		if got := WireBytes(c.kind, n, c.w); got != c.want {
			t.Errorf("WireBytes(%v, %d, %d) = %d, want %d", c.kind, n, c.w, got, c.want)
		}
	}
}

func TestSteps(t *testing.T) {
	cases := []struct {
		kind Kind
		w    int
		want int
	}{
		{AllReduce, 8, 14},
		{AllGather, 8, 7},
		{ReduceScatter, 8, 7},
		{Broadcast, 8, 7},
		{AllReduce, 1, 0},
		{None, 8, 0},
	}
	for _, c := range cases {
		if got := Steps(c.kind, c.w); got != c.want {
			t.Errorf("Steps(%v, %d) = %d, want %d", c.kind, c.w, got, c.want)
		}
	}
}

func TestWireBytesMonotoneInSize(t *testing.T) {
	// Property: wire bytes never decrease as the tensor grows.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kinds := []Kind{AllReduce, AllGather, ReduceScatter, AllToAll, Broadcast}
		k := kinds[r.Intn(len(kinds))]
		w := 2 + r.Intn(31)
		a := int64(r.Intn(1 << 20))
		b := a + int64(r.Intn(1<<20))
		return WireBytes(k, a, w) <= WireBytes(k, b, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllReduceTwiceAllGather(t *testing.T) {
	// Ring all-reduce = reduce-scatter + all-gather, so its wire volume is
	// exactly twice all-gather's for every size and worker count.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int64(1+r.Intn(1<<16)) * 8 // multiple of worker counts below
		w := []int{2, 4, 8}[r.Intn(3)]
		return WireBytes(AllReduce, n, w) == 2*WireBytes(AllGather, n, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvent(t *testing.T) {
	e := Event{Kind: AllGather, Bytes: 800, W: 8}
	if got := e.WireBytes(); got != 700 {
		t.Errorf("Event.WireBytes = %d, want 700", got)
	}
	if e.String() == "" {
		t.Error("Event.String should be non-empty")
	}
}
