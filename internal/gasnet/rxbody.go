package gasnet

import "sync"

// A bulk AM's body (wire.recv) comes from a sync.Pool per size class, 2^k + 4 KiB from 64 KiB
// to 4 MiB (past that, a plain make), and goes back when its handler releases it (DESIGN §14).
const recvMinShift, recvMaxShift, recvSlack = 16, 22, 4 << 10

var recvPools [recvMaxShift - recvMinShift + 1]sync.Pool

// RecvPoison is what a released body reads under -race until a frame is read into it.
const RecvPoison = 0xDB

// recvBody is a pooled body and its class: the handle its AM carries.
type recvBody struct {
	b     []byte
	class int
}

// newRecvBody returns n bytes to read a bulk frame into, and their handle (nil past the largest class).
func newRecvBody(n int) ([]byte, *recvBody) {
	k := 0
	for ; n > 1<<(recvMinShift+k)+recvSlack; k++ {
		if k == recvMaxShift-recvMinShift {
			return make([]byte, n), nil
		}
	}
	rb, _ := recvPools[k].Get().(*recvBody)
	if rb == nil {
		rb = &recvBody{b: make([]byte, 1<<(recvMinShift+k)+recvSlack), class: k}
	}
	return rb.b[:n:n], rb
}

// release hands the body back to its pool: nothing reads it again.
func (rb *recvBody) release() {
	if raceEnabled {
		for i := range rb.b {
			rb.b[i] = RecvPoison
		}
	}
	recvPools[rb.class].Put(rb)
}
