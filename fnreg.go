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
	"maps"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

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

// The registry is filled at init and read by every call: a lookup loads the snapshot
// without a lock, registerEntry stores an extended copy. The `_` stores the empty one first.
type fnTables struct {
	byName map[string]*fnEntry
	byPtr  map[uintptr]*fnEntry
}

var (
	fnRegMu sync.Mutex // serializes registerEntry
	fnReg   atomic.Pointer[fnTables]
	_       = fnReg.CompareAndSwap(nil, &fnTables{byName: map[string]*fnEntry{}, byPtr: map[uintptr]*fnEntry{}})
)

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
	fnRegMu.Lock()
	defer fnRegMu.Unlock()
	old := fnReg.Load()
	tab := &fnTables{byName: maps.Clone(old.byName), byPtr: maps.Clone(old.byPtr)}
	ent := fnEntry{name: body.name}
	if prev := tab.byName[ent.name]; prev != nil {
		ent = *prev
	}
	if body.task != nil {
		ent.spawn = tok
	} else {
		ent.call = tok
	}
	tab.byName[ent.name] = &ent // a fresh entry: an older snapshot keeps the one it had
	tab.byPtr[funcvalOf(fn)] = &ent
	fnReg.Store(tab)
	return ent.name
}

// registered returns fn's registry entry, or nil when it has none. The key
// is the func value, not its code: a closure whose sibling (same literal,
// other captures) was registered is not itself registered.
func registered(fn any) *fnEntry { return fnReg.Load().byPtr[funcvalOf(fn)] }

func errUnregistered(what string) error {
	return fmt.Errorf("upcxx: unregistered function %s — every rank must register it at init time (RegisterRPC/RegisterRPCFF/RegisterRPCFut, RegisterTask/RegisterTaskFF)", what)
}

func lookupFn(name string) (*fnEntry, error) {
	ent := fnReg.Load().byName[name]
	if ent == nil {
		return nil, errUnregistered(fmt.Sprintf("%q", name))
	}
	return ent, nil
}

// registerTask files fn's task form, built around body, its call form
// (task.go); lookupTask resolves a stolen task's name to the form of its
// kind (ff: fire-and-forget).
func registerTask(fn any, flags uint8, body rpcBody) string {
	tb := &taskBody{flags: flags, run: body.run}
	tb.name = registerEntry(fn, spawnBody(tb, body))
	return tb.name
}

func lookupTask(name string, ff bool) (*taskBody, error) {
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

// --- AuxCodec: rpcAux over the wire --------------------------------------

// distAuxCodec serializes the token every RPC message travels with. Wire
// form:
//
//	tag u8 = 1 | count uvarint | count×{kind u8 | name string} | remName string ("" = none)
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
	auxTagRPC         = 1
	auxTaskForm uint8 = 0x80 // in a token's kind byte: the named function's task form
)

func auxNameErr(what string) error {
	return fmt.Errorf("upcxx: %s cannot cross a process boundary unregistered — register a package-level function with RegisterRPC/RegisterRPCFF/RegisterRPCFut (closures are in-process only)", what)
}

func (*distAuxCodec) EncodeAux(aux any) ([]byte, error) {
	a, ok := aux.(*rpcAux)
	switch {
	case !ok:
		return nil, fmt.Errorf("upcxx: aux token %T cannot cross a process boundary", aux)
	case a.wire != nil:
		return a.wire, nil
	case a.bodyPers != nil:
		return nil, fmt.Errorf("upcxx: persona-addressed RPC body (RPCBodyOn) cannot cross a process boundary")
	case a.rem.pers != nil:
		return nil, fmt.Errorf("upcxx: persona-addressed remote-cx (On) cannot cross a process boundary")
	case a.rem.body.run != nil && a.rem.body.name == "":
		return nil, auxNameErr("remote-completion (RemoteCxAsRPC) function")
	}
	e := serial.NewEncoder(make([]byte, 0, 48))
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
	e.PutString(a.rem.body.name)
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
		return rpcBody{}, fmt.Errorf("upcxx: function %q is not registered in a form that serves entry kind %#x (round-trip entries need RegisterRPC/RegisterRPCFut, fire-and-forget and remote-completion bodies RegisterRPCFF, task spawns RegisterTask/RegisterTaskFF)", name, kind)
	}
	return tok.bodies[0], nil
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
	if tag := d.U8(); tag != auxTagRPC {
		return nil, fmt.Errorf("upcxx: unknown aux tag %d", tag)
	}
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
	rem := d.String()
	if err := d.Finish(); err != nil || rem == "" {
		return a, err
	}
	var err error
	a.rem.body, err = lookupBody(rem, rpcFFKind)
	return a, err
}
