package upcxx

import "testing"

func regBothA(*Rank, int) int { return 1 }
func regBothB(*Rank, int) int { return 2 }

// TestRegistryFormsMerge: one function registered as both an RPC body and
// a task body keeps both forms, whichever registration came first; an
// RPC-only registration is not a task body, and an unregistered function
// has no name.
func TestRegistryFormsMerge(t *testing.T) {
	body := TaskBody{Run: func(*Rank, []byte) []byte { return nil }}
	RegisterRPC(regBothA)
	RegisterTaskBody(regBothA, body)
	RegisterTaskBody(regBothB, body)
	RegisterRPC(regBothB)
	for _, fn := range []func(*Rank, int) int{regBothA, regBothB} {
		name, err := TaskBodyName(fn)
		if err != nil || name != registeredName(fn) {
			t.Fatalf("TaskBodyName = %q, %v; registered as %q", name, err, registeredName(fn))
		}
		ent, err := lookupFn(name)
		if err != nil {
			t.Fatal(err)
		}
		if ent.inv == nil || ent.bInv == nil || ent.task == nil {
			t.Errorf("%s: a form was clobbered: inv %v, bInv %v, task %v", name, ent.inv != nil, ent.bInv != nil, ent.task != nil)
		}
		if _, err := LookupTaskBody(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := LookupTaskBody(RegisterRPCFF(func(*Rank, int) {})); err == nil {
		t.Error("an RPC-only registration resolved as a task body")
	}
	if _, err := TaskBodyName(func(*Rank, int) int { return 0 }); err == nil {
		t.Error("an unregistered function has a task name")
	}
}
