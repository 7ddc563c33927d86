// Package comm models collective communication primitives: the kinds of
// collectives tensor parallelism needs (AllReduce, AllGather,
// ReduceScatter, AllToAll, Broadcast), the bytes each one moves per
// participant under the standard ring algorithms, and the number of
// latency-bound steps. Both the analytical cost model and the training
// simulator are built on these formulas, mirroring how the paper's α–β
// model and its runtime measurements describe the same physical transfers.
package comm

import "fmt"

// Kind identifies a collective communication primitive.
type Kind int

const (
	// None means no communication is required.
	None Kind = iota
	// AllReduce sums a tensor across all participants and leaves the full
	// result everywhere (C_AR in the paper's SRC notation).
	AllReduce
	// AllGather concatenates per-participant shards into the full tensor
	// on every participant (C_AG).
	AllGather
	// ReduceScatter sums and leaves each participant one shard.
	ReduceScatter
	// AllToAll exchanges distinct shards between all pairs (MoE dispatch).
	AllToAll
	// Broadcast copies one participant's tensor to all others.
	Broadcast
)

// String implements fmt.Stringer using the paper's subscripts.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case AllReduce:
		return "AllReduce"
	case AllGather:
		return "AllGather"
	case ReduceScatter:
		return "ReduceScatter"
	case AllToAll:
		return "AllToAll"
	case Broadcast:
		return "Broadcast"
	default:
		return fmt.Sprintf("comm.Kind(%d)", int(k))
	}
}

// WireBytes returns the number of bytes each participant places on the
// wire for a collective over a logical tensor of n bytes among w workers,
// using the bandwidth-optimal ring algorithms:
//
//	AllReduce:     2·(w-1)/w · n   (reduce-scatter + all-gather phases)
//	AllGather:       (w-1)/w · n
//	ReduceScatter:   (w-1)/w · n
//	AllToAll:        (w-1)/w · n
//	Broadcast:                 n
func WireBytes(k Kind, n int64, w int) int64 {
	if w <= 1 || k == None || n <= 0 {
		return 0
	}
	switch k {
	case AllReduce:
		return 2 * n * int64(w-1) / int64(w)
	case AllGather, ReduceScatter, AllToAll:
		return n * int64(w-1) / int64(w)
	case Broadcast:
		return n
	default:
		return 0
	}
}

// Steps returns the number of latency-bound communication rounds of the
// ring algorithm for the collective among w workers.
func Steps(k Kind, w int) int {
	if w <= 1 || k == None {
		return 0
	}
	switch k {
	case AllReduce:
		return 2 * (w - 1)
	case AllGather, ReduceScatter:
		return w - 1
	case AllToAll:
		return w - 1
	case Broadcast:
		return w - 1
	default:
		return 0
	}
}

// Event is one concrete collective operation: kind, logical tensor size,
// and participant count. Sharding patterns emit Events; the cost model and
// the simulator price them.
type Event struct {
	Kind  Kind
	Bytes int64 // logical (unsharded) tensor size in bytes
	W     int   // participants
}

// WireBytes returns the per-participant wire traffic of the event.
func (e Event) WireBytes() int64 { return WireBytes(e.Kind, e.Bytes, e.W) }

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s(%dB,w=%d)", e.Kind, e.Bytes, e.W)
}
