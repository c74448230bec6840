package upcxx

// SPMD function registry: the bridge that lets RPC bodies cross process
// boundaries. In-process worlds ship body closures by reference
// (valid because every rank shares one address space); a real transport
// cannot — so functions that participate in cross-process RPC are
// registered once, at init time, under their stable runtime name
// (package path + function name, identical in every rank because SPMD
// ranks run one binary). The wire then carries the *name*; the
// receiving rank looks up the same entry and runs the same body.
//
// Register package-level, non-generic functions: a closure registers only
// the one func value handed in and has no stable identity across
// processes, and distinct generic instantiations may share one code
// pointer under GC shape stenciling, which would alias their names.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"upcxx/internal/serial"
)

// fnEntry holds what is registered under one function name, each form as the
// aux token a single call of it sends (bodies[0] is the body): call, its RPC
// form — round-trip or fire-and-forget, as the signature dictates — and spawn,
// its task form (RegisterTask). An unregistered form is nil; registerEntry merges.
type fnEntry struct {
	name  string
	call  *rpcAux
	spawn *rpcAux
}

// TaskBody is the registry form of a task function (internal/task). A spawn
// is an RPC entry naming the function's task form: on arrival Arrive queues
// {home, seq, args} for the rank's task runtime — no user code runs on the
// execution persona — and whichever rank runs a result-bearing task answers
// (home, seq) with TaskReply (seq 0: fire-and-forget). An error fails the sender.
type TaskBody interface {
	Arrive(trk *Rank, home Intrank, seq uint64, args []byte) error
}

var fnReg = struct {
	sync.RWMutex
	byName map[string]*fnEntry
	byPtr  map[uintptr]*fnEntry
}{
	byName: make(map[string]*fnEntry),
	byPtr:  make(map[uintptr]*fnEntry),
}

// registerEntry files body — fn's RPC form, or its task form when body.task is
// set — under fn's stable runtime name, keeping the other form if it is there.
func registerEntry(fn any, body rpcBody) string {
	v := reflect.ValueOf(fn)
	if v.Kind() != reflect.Func {
		panic(fmt.Sprintf("upcxx: Register of non-function %T", fn))
	}
	rf := runtime.FuncForPC(v.Pointer())
	if rf == nil {
		panic("upcxx: Register of unresolvable function")
	}
	body.name = rf.Name()
	tok := &rpcAux{bodies: []rpcBody{body}}
	tok.wire, _ = new(distAuxCodec).EncodeAux(tok)
	fnReg.Lock()
	defer fnReg.Unlock()
	ent := fnEntry{name: body.name}
	if old := fnReg.byName[ent.name]; old != nil {
		ent = *old
	}
	if body.task != nil {
		ent.spawn = tok
	} else {
		ent.call = tok
	}
	fnReg.byName[ent.name] = &ent // a fresh entry: lookups read entries unlocked
	fnReg.byPtr[funcvalOf(fn)] = &ent
	return ent.name
}

// registered returns fn's registry entry, or nil when it has none. The key
// is the func value, not its code: a closure whose sibling (same literal,
// other captures) was registered is not itself registered.
func registered(fn any) *fnEntry {
	fnReg.RLock()
	ent := fnReg.byPtr[funcvalOf(fn)]
	fnReg.RUnlock()
	return ent
}

func errUnregistered(what string) error {
	return fmt.Errorf("upcxx: unregistered function %s — every rank must register it at init time (RegisterRPC/RegisterRPCFF/RegisterRPCFut, task.Register/RegisterFF)", what)
}

func lookupFn(name string) (*fnEntry, error) {
	fnReg.RLock()
	ent := fnReg.byName[name]
	fnReg.RUnlock()
	if ent == nil {
		return nil, errUnregistered(fmt.Sprintf("%q", name))
	}
	return ent, nil
}

// RegisterTask, TaskOf and LookupTask are internal/task's view of the registry:
// file a function's task form (ff: its spawns are fire-and-forget entries), find
// the body of a function being spawned (or panic), resolve a stolen frame's name.
func RegisterTask(fn any, task TaskBody, ff bool) string {
	return registerEntry(fn, taskBody(task, ff))
}

func TaskOf(fn any) TaskBody { return spawnOf(fn).bodies[0].task }

func LookupTask(name string, ff bool) (TaskBody, error) {
	kind := auxTaskForm | rpcReqKind
	if ff {
		kind = auxTaskForm | rpcFFKind
	}
	body, err := lookupBody(name, kind)
	return body.task, err
}

// spawnOf returns the token a spawn of fn sends; having none is the caller's bug.
func spawnOf(fn any) *rpcAux {
	ent := registered(fn)
	if ent == nil || ent.spawn == nil {
		panic(fmt.Sprintf("task: %v", errUnregistered(fmt.Sprintf("%T (as a task)", fn))))
	}
	return ent.spawn
}

// RegisterRPC registers a round-trip RPC body for cross-process
// dispatch and returns its wire name. Call from init() (or any point
// before the function first crosses a process boundary) with a
// package-level, non-generic function; registration is process-global.
func RegisterRPC[A, R any](fn func(*Rank, A) R) string {
	return registerEntry(fn, valueBody(fn))
}

// RegisterRPCFF registers a fire-and-forget RPC body (also the form
// remote-completion RemoteCxAsRPC bodies take) for cross-process
// dispatch and returns its wire name.
func RegisterRPCFF[A any](fn func(*Rank, A)) string {
	return registerEntry(fn, ffBody(fn))
}

// RegisterRPCFut registers a future-returning (deferred-reply) RPC body
// for cross-process dispatch and returns its wire name.
func RegisterRPCFut[A, R any](fn func(*Rank, A) Future[R]) string {
	return registerEntry(fn, futBody(fn))
}

// --- AuxCodec: rpcAux / remoteCxAux over the wire ------------------------

// distAuxCodec serializes the aux tokens that ride conduit AMs. Wire
// form: `tag u8 | ...`:
//
//	1 = rpcAux:      count uvarint | count×{kind u8 | name string} | remName string ("" = none)
//	2 = remoteCxAux: name string
//
// (kind: the entry kind the body serves, auxTaskForm set for the task form.)
// Persona addresses (bodyPers, rem.pers) are process-local pointers and
// cannot cross; encoding them is an error, as is an unregistered
// (empty-name) function. Decoding resolves each name in this process's
// registry and fails — which fails the sending peer, not this rank's
// reader — when a name is unknown or its function cannot serve the kind
// of entry that names it. A token that decoded once is served from memo by
// its wire bytes: a hit costs no lookup per name and no allocation.
type distAuxCodec struct {
	mu   sync.Mutex
	memo map[string]any
}

const auxMemoMax = 1024 // a peer can mint valid batch tokens without end: past this, decode every time

const (
	auxTagRPC      = 1
	auxTagRemoteCx = 2

	auxTaskForm uint8 = 0x80 // in a token's kind byte: the named function's task form
)

func auxNameErr(what string) error {
	return fmt.Errorf("upcxx: %s cannot cross a process boundary unregistered — register a package-level function with RegisterRPC/RegisterRPCFF/RegisterRPCFut (closures are in-process only)", what)
}

// putRemName appends the registry name of a remote-cx body ("" for none).
func putRemName(e *serial.Encoder, a remoteCxAux) error {
	if a.pers != nil {
		return fmt.Errorf("upcxx: persona-addressed remote-cx (On) cannot cross a process boundary")
	}
	if a.body.run != nil && a.body.name == "" {
		return auxNameErr("remote-completion (RemoteCxAsRPC) function")
	}
	e.PutString(a.body.name)
	return nil
}

func (*distAuxCodec) EncodeAux(aux any) ([]byte, error) {
	e := serial.NewEncoder(make([]byte, 0, 48))
	switch a := aux.(type) {
	case *rpcAux:
		if a.wire != nil {
			return a.wire, nil
		}
		if a.bodyPers != nil {
			return nil, fmt.Errorf("upcxx: persona-addressed RPC body (RPCBodyOn) cannot cross a process boundary")
		}
		e.PutU8(auxTagRPC)
		e.PutUvarint(uint64(len(a.bodies)))
		for _, body := range a.bodies {
			if body.name == "" {
				return nil, auxNameErr("RPC body function")
			}
			kind := body.kind
			if body.task != nil {
				kind |= auxTaskForm
			}
			e.PutU8(kind)
			e.PutString(body.name)
		}
		if err := putRemName(e, a.rem); err != nil {
			return nil, err
		}
	case remoteCxAux:
		if a.body.run == nil {
			return nil, auxNameErr("remote-completion (RemoteCxAsRPC) function")
		}
		e.PutU8(auxTagRemoteCx)
		if err := putRemName(e, a); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("upcxx: aux token %T cannot cross a process boundary", aux)
	}
	return e.Bytes(), nil
}

// lookupBody resolves name to a body that serves entries of the given kind:
// the function's task form when kind carries auxTaskForm, else its RPC form.
// A function registered only in the other form is refused.
func lookupBody(name string, kind uint8) (rpcBody, error) {
	ent, err := lookupFn(name)
	if err != nil {
		return rpcBody{}, err
	}
	tok := ent.call
	if kind&auxTaskForm != 0 {
		tok = ent.spawn
	}
	if tok == nil || tok.bodies[0].kind != kind&^auxTaskForm {
		return rpcBody{}, fmt.Errorf("upcxx: function %q is not registered in a form that serves entry kind %#x (round-trip entries need RegisterRPC/RegisterRPCFut, fire-and-forget and remote-completion bodies RegisterRPCFF, task spawns task.Register/RegisterFF)", name, kind)
	}
	return tok.bodies[0], nil
}

// getRem reads a remote-cx body name written by putRemName.
func getRem(d *serial.Decoder) (remoteCxAux, error) {
	name := d.String()
	if err := d.Finish(); err != nil || name == "" {
		return remoteCxAux{}, err
	}
	body, err := lookupBody(name, rpcFFKind)
	return remoteCxAux{body: body}, err
}

func (c *distAuxCodec) DecodeAux(b []byte) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if aux, hit := c.memo[string(b)]; hit {
		return aux, nil
	}
	aux, err := decodeAux(b)
	if err == nil && len(c.memo) < auxMemoMax {
		if c.memo == nil {
			c.memo = make(map[string]any)
		}
		c.memo[string(b)] = aux
	}
	return aux, err
}

// decodeAux is DecodeAux's miss path: parse, resolve and validate.
func decodeAux(b []byte) (any, error) {
	d := serial.NewDecoder(b)
	switch tag := d.U8(); tag {
	case auxTagRPC:
		count := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if count > uint64(d.Remaining()) {
			return nil, fmt.Errorf("upcxx: rpc aux body count %d exceeds remaining bytes", count)
		}
		a := &rpcAux{bodies: make([]rpcBody, count)}
		for i := range a.bodies {
			kind, name := d.U8(), d.String()
			if d.Err() != nil {
				return nil, d.Err()
			}
			var err error
			if a.bodies[i], err = lookupBody(name, kind); err != nil {
				return nil, err
			}
		}
		var err error
		a.rem, err = getRem(d)
		return a, err
	case auxTagRemoteCx:
		a, err := getRem(d)
		if err == nil && a.body.run == nil {
			err = fmt.Errorf("upcxx: remote-cx aux names no function")
		}
		return a, err
	default:
		return nil, fmt.Errorf("upcxx: unknown aux tag %d", tag)
	}
}
