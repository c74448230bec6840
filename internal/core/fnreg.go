package upcxx

// SPMD function registry: the bridge that lets RPC bodies cross process
// boundaries. In-process worlds ship invoker closures by reference
// (valid because every rank shares one address space); a real transport
// cannot — so functions that participate in cross-process RPC are
// registered once, at init time, under their stable runtime name
// (package path + function name, identical in every rank because SPMD
// ranks run one binary). The wire then carries the *name*; the
// receiving rank looks up the same entry and runs the same body.
//
// Register package-level, non-generic functions: closures have no
// stable identity across processes, and distinct generic
// instantiations may share one code pointer under GC shape stenciling,
// which would alias their registry entries.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"upcxx/internal/serial"
)

// fnEntry holds every form registered under one function name. Forms the
// function's signature cannot take stay nil; one function may be both an
// RPC body and a task body (registerEntry merges).
type fnEntry struct {
	inv   rpcInvoker      // round-trip request body (replies inline or deferred)
	ffInv rpcFFInvoker    // fire-and-forget / remote-cx body
	bInv  rpcBatchInvoker // batched round-trip body (returns result bytes)
	task  *TaskBody       // internal/task body
}

// TaskBody is the registry form of a task function (internal/task): Run
// for a result-bearing body, RunFF for a fire-and-forget one. Tasks carry
// their own result path — a result frame to the home rank, not an RPC
// reply — so they are one more entry kind rather than an RPC invoker.
type TaskBody struct {
	Run   func(trk *Rank, args []byte) []byte
	RunFF func(trk *Rank, args []byte)
}

var fnReg = struct {
	sync.RWMutex
	byName map[string]*fnEntry
	byPtr  map[uintptr]string
}{
	byName: make(map[string]*fnEntry),
	byPtr:  make(map[uintptr]string),
}

// registerEntry files the forms in ent under fn's stable runtime name,
// keeping the forms an earlier registration of the same function filled.
func registerEntry(fn any, ent fnEntry) string {
	v := reflect.ValueOf(fn)
	if v.Kind() != reflect.Func {
		panic(fmt.Sprintf("upcxx: Register of non-function %T", fn))
	}
	rf := runtime.FuncForPC(v.Pointer())
	if rf == nil {
		panic("upcxx: Register of unresolvable function")
	}
	name := rf.Name()
	fnReg.Lock()
	defer fnReg.Unlock()
	if old := fnReg.byName[name]; old != nil {
		if ent.inv == nil {
			ent.inv, ent.bInv = old.inv, old.bInv
		}
		if ent.ffInv == nil {
			ent.ffInv = old.ffInv
		}
		if ent.task == nil {
			ent.task = old.task
		}
	}
	fnReg.byName[name] = &ent // a fresh entry: lookups read entries unlocked
	fnReg.byPtr[v.Pointer()] = name
	return name
}

// registeredName returns fn's registry name, or "" when unregistered.
func registeredName(fn any) string {
	v := reflect.ValueOf(fn)
	if v.Kind() != reflect.Func {
		return ""
	}
	fnReg.RLock()
	name := fnReg.byPtr[v.Pointer()]
	fnReg.RUnlock()
	return name
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

// RegisterTaskBody, TaskBodyName and LookupTaskBody are internal/task's
// view of the registry: register a body, name a registered function for
// the wire, resolve a wire name at the executing rank.
func RegisterTaskBody(fn any, body TaskBody) string {
	return registerEntry(fn, fnEntry{task: &body})
}

func TaskBodyName(fn any) (string, error) {
	if name := registeredName(fn); name != "" {
		return name, nil
	}
	return "", errUnregistered(fmt.Sprintf("%T", fn))
}

func LookupTaskBody(name string) (TaskBody, error) {
	ent, err := lookupFn(name)
	if err != nil {
		return TaskBody{}, err
	}
	if ent.task == nil {
		return TaskBody{}, errUnregistered(fmt.Sprintf("%q (as a task)", name))
	}
	return *ent.task, nil
}

// RegisterRPC registers a round-trip RPC body for cross-process
// dispatch and returns its wire name. Call from init() (or any point
// before the function first crosses a process boundary) with a
// package-level, non-generic function; registration is process-global.
func RegisterRPC[A, R any](fn func(*Rank, A) R) string {
	return registerEntry(fn, fnEntry{
		inv: func(trk *Rank, src Intrank, seq uint64, args []byte) {
			var a A
			mustUnmarshal(args, &a)
			trk.replyTo(src, seq, mustMarshal(fn(trk, a)))
		},
		bInv: func(trk *Rank, src Intrank, args []byte) []byte {
			var a A
			mustUnmarshal(args, &a)
			return mustMarshal(fn(trk, a))
		},
	})
}

// RegisterRPC2 registers a two-argument round-trip RPC body for
// cross-process dispatch and returns its wire name.
func RegisterRPC2[A, B, R any](fn func(*Rank, A, B) R) string {
	return registerEntry(fn, fnEntry{
		inv: func(trk *Rank, src Intrank, seq uint64, args []byte) {
			var a A
			var b B
			n, err := serial.DecodeInto(args, &a)
			if err != nil {
				panic(fmt.Sprintf("upcxx: RPC2 first argument decode: %v", err))
			}
			mustUnmarshal(args[n:], &b)
			trk.replyTo(src, seq, mustMarshal(fn(trk, a, b)))
		},
	})
}

// RegisterRPCFF registers a fire-and-forget RPC body (also the form
// remote-completion RemoteCxAsRPC bodies take) for cross-process
// dispatch and returns its wire name.
func RegisterRPCFF[A any](fn func(*Rank, A)) string {
	return registerEntry(fn, fnEntry{
		ffInv: func(trk *Rank, src Intrank, args []byte) {
			var a A
			mustUnmarshal(args, &a)
			fn(trk, a)
		},
	})
}

// RegisterRPCFut registers a future-returning (deferred-reply) RPC body
// for cross-process dispatch and returns its wire name.
func RegisterRPCFut[A, R any](fn func(*Rank, A) Future[R]) string {
	return registerEntry(fn, fnEntry{
		inv: func(trk *Rank, src Intrank, seq uint64, args []byte) {
			var a A
			mustUnmarshal(args, &a)
			inner := fn(trk, a)
			reply := func() {
				inner.c.onReady(func(r R) {
					trk.replyTo(src, seq, mustMarshal(r))
				})
			}
			if inner.c.pers == nil || inner.c.pers.onOwnerGoroutine() {
				reply()
			} else {
				inner.c.pers.LPC(reply)
			}
		},
	})
}

// wireName resolves fn's registry name when this rank is part of a
// multi-process (real-transport) world; in-process worlds ship invoker
// closures by reference and need no name. Unregistered functions yield
// "" — an error surfaces only if the message actually leaves the
// process (self-RPC stays nameless and legal).
func (rk *Rank) wireName(fn any) string {
	if rk.w == nil || !rk.w.dist {
		return ""
	}
	return registeredName(fn)
}

// --- AuxCodec: rpcAux / rpcBatchAux / remoteCxAux over the wire ----------

// distAuxCodec serializes the aux tokens that ride conduit AMs. Wire
// form: `tag u8 | ...`:
//
//	1 = rpcAux:      invName string | remName string ("" = none)
//	2 = rpcBatchAux: count uvarint | count×{kind u8 | name string} | remName string
//	3 = remoteCxAux: name string
//
// Persona addresses (bodyPers, rem.pers) are process-local pointers and
// cannot cross; encoding them is an error, as is an unregistered
// (empty-name) function.
type distAuxCodec struct{}

func auxNameErr(what string) error {
	return fmt.Errorf("upcxx: %s cannot cross a process boundary unregistered — register a package-level function with RegisterRPC/RegisterRPC2/RegisterRPCFF/RegisterRPCFut (closures and the RPC0/RPCFF0/RPCFF2 variants are in-process only)", what)
}

func (distAuxCodec) EncodeAux(aux any) ([]byte, error) {
	e := serial.NewEncoder(make([]byte, 0, 48))
	switch a := aux.(type) {
	case rpcAux:
		if a.bodyPers != nil {
			return nil, fmt.Errorf("upcxx: persona-addressed RPC body (RPCBodyOn) cannot cross a process boundary")
		}
		if a.invName == "" {
			return nil, auxNameErr("RPC body function")
		}
		if a.rem.pers != nil {
			return nil, fmt.Errorf("upcxx: persona-addressed remote-cx (On) cannot cross a process boundary")
		}
		if a.rem.inv != nil && a.rem.name == "" {
			return nil, auxNameErr("remote-completion (RemoteCxAsRPC) function")
		}
		e.PutU8(1)
		e.PutString(a.invName)
		e.PutString(a.rem.name)
	case rpcBatchAux:
		if a.rem.pers != nil {
			return nil, fmt.Errorf("upcxx: persona-addressed remote-cx (On) cannot cross a process boundary")
		}
		if a.rem.inv != nil && a.rem.name == "" {
			return nil, auxNameErr("remote-completion (RemoteCxAsRPC) function")
		}
		e.PutU8(2)
		e.PutUvarint(uint64(len(a.bodies)))
		for _, body := range a.bodies {
			if body.name == "" {
				return nil, auxNameErr("batched RPC body function")
			}
			kind := rpcReqKind
			if body.ffInv != nil {
				kind = rpcFFKind
			}
			e.PutU8(kind)
			e.PutString(body.name)
		}
		e.PutString(a.rem.name)
	case remoteCxAux:
		if a.pers != nil {
			return nil, fmt.Errorf("upcxx: persona-addressed remote-cx (On) cannot cross a process boundary")
		}
		if a.name == "" {
			return nil, auxNameErr("remote-completion (RemoteCxAsRPC) function")
		}
		e.PutU8(3)
		e.PutString(a.name)
	default:
		return nil, fmt.Errorf("upcxx: aux token %T cannot cross a process boundary", aux)
	}
	return e.Bytes(), nil
}

func (distAuxCodec) DecodeAux(b []byte) (any, error) {
	d := serial.NewDecoder(b)
	tag := d.U8()
	switch tag {
	case 1:
		invName := d.String()
		remName := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		ent, err := lookupFn(invName)
		if err != nil {
			return nil, err
		}
		a := rpcAux{inv: ent.inv, ffInv: ent.ffInv, invName: invName}
		if remName != "" {
			rent, err := lookupFn(remName)
			if err != nil {
				return nil, err
			}
			a.rem = remoteCxAux{inv: rent.ffInv, name: remName}
		}
		return a, nil
	case 2:
		count := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if count > uint64(d.Remaining()) {
			return nil, fmt.Errorf("upcxx: batch aux body count %d exceeds remaining bytes", count)
		}
		a := rpcBatchAux{bodies: make([]batchBodyAux, 0, count)}
		for i := uint64(0); i < count; i++ {
			kind := d.U8()
			name := d.String()
			if d.Err() != nil {
				return nil, d.Err()
			}
			ent, err := lookupFn(name)
			if err != nil {
				return nil, err
			}
			switch kind {
			case rpcReqKind:
				a.bodies = append(a.bodies, batchBodyAux{inv: ent.bInv, name: name})
			case rpcFFKind:
				a.bodies = append(a.bodies, batchBodyAux{ffInv: ent.ffInv, name: name})
			default:
				return nil, fmt.Errorf("upcxx: batch aux entry %d has kind %d", i, kind)
			}
		}
		remName := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if remName != "" {
			rent, err := lookupFn(remName)
			if err != nil {
				return nil, err
			}
			a.rem = remoteCxAux{inv: rent.ffInv, name: remName}
		}
		return a, nil
	case 3:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		ent, err := lookupFn(name)
		if err != nil {
			return nil, err
		}
		return remoteCxAux{inv: ent.ffInv, name: name}, nil
	default:
		return nil, fmt.Errorf("upcxx: unknown aux tag %d", tag)
	}
}
