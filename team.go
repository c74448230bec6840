package upcxx

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"

	"upcxx/internal/serial"
)

// Team is an ordered subset of the job's ranks (cf. upcxx::team / an MPI
// communicator). Teams are the unit over which collectives run, and —
// unlike symmetric-heap designs the paper argues against — a team carries
// no per-rank storage anywhere except on its own members.
//
// The collective machinery itself lives in coll.go: a per-rank engine
// walks one k-nomial tree and lowers every round through the single
// Rank.inject path. This file keeps the team structure and the
// blocking/default-completion wrappers.
type Team struct {
	rk    *Rank
	id    uint64
	ranks []Intrank // world ranks indexed by team rank
	me    Intrank   // this process's team rank
}

const worldTeamID uint64 = 0

func newWorldTeam(rk *Rank) *Team {
	ranks := make([]Intrank, rk.n)
	for i := range ranks {
		ranks[i] = Intrank(i)
	}
	return &Team{rk: rk, id: worldTeamID, ranks: ranks, me: rk.me}
}

// WorldTeam returns the team containing every rank in the job.
func (rk *Rank) WorldTeam() *Team { return rk.worldTeam }

// RankMe returns this process's rank within the team.
func (t *Team) RankMe() Intrank { return t.me }

// RankN returns the team size.
func (t *Team) RankN() Intrank { return Intrank(len(t.ranks)) }

// WorldRank translates a team rank to a world rank (the paper's
// front_team[p_dest] indexing).
func (t *Team) WorldRank(i Intrank) Intrank { return t.ranks[i] }

// FromWorld translates a world rank to this team's rank, or -1 if the
// rank is not a member.
func (t *Team) FromWorld(r Intrank) Intrank { return Intrank(slices.Index(t.ranks, r)) }

// ID returns the team's job-wide identifier.
func (t *Team) ID() uint64 { return t.id }

func (t *Team) String() string {
	return fmt.Sprintf("team %#x (%d ranks, me=%d)", t.id, len(t.ranks), t.me)
}

// --- default-completion wrappers ------------------------------------------

// BarrierAsync begins a non-blocking barrier over the team and returns a
// future that readies once every member has entered it. Collectives on
// one team complete in initiation order.
func (t *Team) BarrierAsync() Future[Unit] { return t.BarrierAsyncWith().Op }

// Barrier blocks until every team member has entered it.
func (t *Team) Barrier() { t.BarrierAsync().Wait() }

// Barrier blocks until every rank in the job has entered it.
func (rk *Rank) Barrier() { rk.worldTeam.Barrier() }

// BarrierAsync is the job-wide non-blocking barrier.
func (rk *Rank) BarrierAsync() Future[Unit] { return rk.worldTeam.BarrierAsync() }

// Broadcast distributes root's value to every team member along the
// team's tree, returning a future for the value. Every member must call
// it (with its own val ignored except at root) in matching collective
// order. These non-blocking collectives are the "current work" the
// paper's conclusion describes, built from the same injection machinery
// as RMA.
func Broadcast[T any](t *Team, root Intrank, val T) Future[T] {
	f, _ := BroadcastWith(t, root, val)
	return f
}

// ReduceOne combines every member's val with op along the team's tree,
// delivering the result at team rank 0 (other ranks' futures ready with
// the zero value once their subtree contribution is sent). op must be
// associative and commutative.
func ReduceOne[T any](t *Team, val T, op func(T, T) T) Future[T] {
	f, _ := ReduceOneWith(t, val, op)
	return f
}

// AllReduce combines every member's val with op and delivers the result
// to every member (up the tree, then back down within one collective).
func AllReduce[T any](t *Team, val T, op func(T, T) T) Future[T] {
	f, _ := AllReduceWith(t, val, op)
	return f
}

// --- split -------------------------------------------------------------------

// splitEntry is one member's contribution to a split. Whose it is comes
// from the gather frame's team rank, not from the entry.
type splitEntry struct{ Color, Key int64 }

// SplitAsync begins a non-blocking split of the team: members passing
// equal colors form a new team, ordered by (key, world rank). The
// color/key entries aggregate up the parent team's collective tree and the
// whole set fans back down it (one gatherBytes — O(tree degree) messages
// per member, never a flat gather at the root), each member picking its own
// color's group out of it, so team construction scales with the same
// topology as every other collective and overlaps with unrelated work until
// the future is forced. All members must initiate it in matching
// collective order.
func (t *Team) SplitAsync(color, key int) Future[*Team] {
	rk := t.rk
	rk.teamMu.Lock()
	idx := rk.splitSeqs[t.id]
	rk.splitSeqs[t.id] = idx + 1
	rk.teamMu.Unlock()

	mine := splitEntry{Color: int64(color), Key: int64(key)}
	return gatherBytes(t, 0, mustMarshal(mine), true, func(all [][]byte) (*Team, error) {
		keys := make([]int64, len(all))
		nt := &Team{rk: rk, id: splitTeamID(t.id, idx, mine.Color)}
		for i, b := range all {
			var e splitEntry
			if err := serial.For[splitEntry]().Decode(b, &e); err != nil {
				return nil, fmt.Errorf("team rank %d's split entry: %w", i, err)
			}
			if keys[i] = e.Key; e.Color == mine.Color {
				nt.ranks = append(nt.ranks, Intrank(i)) // my group, as ranks of t for now
			}
		}
		slices.SortFunc(nt.ranks, func(a, b Intrank) int {
			return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(t.ranks[a], t.ranks[b]))
		})
		for i, tr := range nt.ranks {
			nt.ranks[i] = t.ranks[tr]
		}
		if nt.me = nt.FromWorld(rk.me); nt.me < 0 {
			return nil, fmt.Errorf("split of %v came back without rank %d's own entry", t, rk.me)
		}
		return nt, nil
	})
}

// Split partitions the team, blocking until the new team is constructed,
// like upcxx::team::split. All members must call it in matching order.
func (t *Team) Split(color, key int) *Team { return t.SplitAsync(color, key).Wait() }

func splitTeamID(parent uint64, idx uint64, color int64) uint64 {
	h := fnv.New64a()
	var b [24]byte
	put := func(i int, v uint64) {
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	put(0, parent)
	put(8, idx)
	put(16, uint64(color))
	_, _ = h.Write(b[:])
	id := h.Sum64()
	if id == worldTeamID {
		id++
	}
	return id
}
