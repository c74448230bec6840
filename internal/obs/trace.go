package obs

import "sync"

// Stage names one hop in an operation's lifecycle. Events are recorded
// into the initiator's ring (so a timeline needs no cross-rank
// reassembly) with At naming the rank where the hop physically happened.
type Stage uint8

const (
	// StageInject: the op entered the single injection path at the
	// initiator.
	StageInject Stage = iota
	// StageCapture: the conduit accepted the op (source buffer staged /
	// descriptor built); source-completion becomes deliverable.
	StageCapture
	// StageWire: a wire message carrying (part of) the op arrived at a
	// peer NIC.
	StageWire
	// StageDMA: a device copy-engine descriptor for the op executed.
	StageDMA
	// StageLanding: the payload became visible at its destination
	// segment (post-DMA for device memory) or the AM was enqueued at the
	// target.
	StageLanding
	// StageDelivered: the operation-complete edge fired back at the
	// initiator and completions were delivered.
	StageDelivered

	// Task-lifecycle stages, recorded by the distributed task runtime
	// (package upcxx, task.go) through RankObs.TaskStart/TaskHop. A task's hops
	// record into its *home* rank's ring (like op hops record into the
	// initiator's), so one spawn→enqueue→[steal→enqueue→]execute→complete
	// chain reassembles with Snapshot.Timeline.

	// StageTaskSpawn: AsyncAt/AsyncAtFF accepted the task at its home rank.
	StageTaskSpawn
	// StageTaskEnq: the task entered a rank's ready deque (home or remote).
	StageTaskEnq
	// StageTaskSteal: a thief migrated the task out of a victim's deque.
	StageTaskSteal
	// StageTaskExec: a worker began executing the task body.
	StageTaskExec
	// StageTaskDone: the body returned (and any result was shipped home).
	StageTaskDone
	NumStages
)

var stageNames = [NumStages]string{
	"inject", "capture", "wire", "dma", "landing", "delivered",
	"spawn", "enqueue", "steal", "execute", "complete",
}

// String returns the stage mnemonic.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage?"
}

// Event is one timestamped lifecycle hop of a traced operation.
type Event struct {
	ID    uint64 `json:"id"`    // per-initiator op sequence number
	T     int64  `json:"t"`     // ns since the job epoch
	Stage Stage  `json:"stage"` //
	Kind  OpKind `json:"kind"`  //
	At    int32  `json:"at"`    // rank where the hop happened
	Bytes int64  `json:"bytes"` //
}

// ring is a fixed-size mutex-guarded event buffer. A mutex (rather than
// an atomic cursor with racy slot writes) keeps the ring race-clean
// under the race detector; the lock is only ever taken while tracing is
// armed, and a job without a trace depth has no ring at all.
type ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded; next%len(buf) is the write slot
}

func newRing(depth int) *ring {
	return &ring{buf: make([]Event, depth)}
}

func (r *ring) record(ev Event) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = ev
	r.next++
	r.mu.Unlock()
}

// events returns the buffered events oldest-first (none without a ring).
func (r *ring) events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	cap64 := uint64(len(r.buf))
	if n <= cap64 {
		return append([]Event(nil), r.buf[:n]...)
	}
	out := make([]Event, 0, cap64)
	start := n % cap64
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// dropped returns how many events were overwritten by wraparound.
func (r *ring) dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}
