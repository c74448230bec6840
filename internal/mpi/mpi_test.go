package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"upcxx/internal/serial"
)

func TestSendRecvEager(t *testing.T) {
	Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send([]byte("hello"), 1, 7)
		} else {
			buf := make([]byte, 16)
			st := p.Recv(buf, 0, 7)
			if st.Count != 5 || string(buf[:5]) != "hello" {
				t.Errorf("recv = %q (%+v)", buf[:st.Count], st)
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	Run(2, func(p *Proc) {
		const n = 64 << 10 // above EagerMax
		if p.Rank() == 0 {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 7)
			}
			p.Send(data, 1, 1)
			// Staging buffer must be reclaimed after DONE.
			if len(p.rendStage) != 0 {
				t.Errorf("rendezvous staging leaked: %d", len(p.rendStage))
			}
		} else {
			buf := make([]byte, n)
			st := p.Recv(buf, 0, 1)
			if st.Count != n {
				t.Errorf("count = %d", st.Count)
			}
			for i := 0; i < n; i += 4097 {
				if buf[i] != byte(i*7) {
					t.Errorf("byte %d = %d", i, buf[i])
				}
			}
		}
	})
}

func TestUnexpectedMessages(t *testing.T) {
	Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			// Send before the receiver posts anything.
			for i := 0; i < 5; i++ {
				p.Send([]byte{byte(i)}, 1, i)
			}
		} else {
			// Give the messages time to arrive unexpected.
			time.Sleep(10 * time.Millisecond)
			for p.ep.Poll() > 0 {
			}
			// Receive out of tag order: matching is by tag, not arrival.
			for _, tag := range []int{4, 0, 2, 1, 3} {
				var b [1]byte
				p.Recv(b[:], 0, tag)
				if int(b[0]) != tag {
					t.Errorf("tag %d got payload %d", tag, b[0])
				}
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	Run(3, func(p *Proc) {
		if p.Rank() != 0 {
			p.Send([]byte{byte(p.Rank())}, 0, int(p.Rank())*10)
		} else {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				var b [1]byte
				st := p.Recv(b[:], AnySource, AnyTag)
				if st.Tag != st.Source*10 || int(b[0]) != st.Source {
					t.Errorf("status %+v payload %d", st, b[0])
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen: %v", seen)
			}
		}
	})
}

func TestNonOvertaking(t *testing.T) {
	// Messages between one (src,dst) pair with the same tag must match in
	// send order.
	Run(2, func(p *Proc) {
		const k = 50
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.Send([]byte{byte(i)}, 1, 5)
			}
		} else {
			for i := 0; i < k; i++ {
				var b [1]byte
				p.Recv(b[:], 0, 5)
				if int(b[0]) != i {
					t.Fatalf("message %d arrived out of order (payload %d)", i, b[0])
				}
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	Run(2, func(p *Proc) {
		const k = 20
		peer := 1 - p.Rank()
		var reqs []*Request
		recvBufs := make([][]byte, k)
		for i := 0; i < k; i++ {
			recvBufs[i] = make([]byte, 8)
			reqs = append(reqs, p.Irecv(recvBufs[i], peer, i))
		}
		for i := 0; i < k; i++ {
			msg := fmt.Sprintf("%08d", i)
			reqs = append(reqs, p.Isend([]byte(msg), peer, i))
		}
		p.Waitall(reqs)
		for i := 0; i < k; i++ {
			want := fmt.Sprintf("%08d", i)
			if string(recvBufs[i]) != want {
				t.Errorf("msg %d = %q", i, recvBufs[i])
			}
		}
	})
}

func TestProbe(t *testing.T) {
	Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(make([]byte, 33), 1, 9)
		} else {
			st := p.Probe(0, AnyTag)
			if st.Count != 33 || st.Tag != 9 {
				t.Errorf("probe = %+v", st)
			}
			buf := make([]byte, st.Count)
			p.Recv(buf, st.Source, st.Tag)
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			flags := make([]int32, n)
			Run(n, func(p *Proc) {
				flags[p.Rank()] = 1
				p.Barrier()
				for r := 0; r < n; r++ {
					if flags[r] != 1 {
						t.Errorf("rank %d saw rank %d unflagged", p.Rank(), r)
					}
				}
			})
		})
	}
}

func TestAlltoall8(t *testing.T) {
	const n = 5
	Run(n, func(p *Proc) {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(p.Rank()*100 + i)
		}
		out := p.Alltoall8(vals)
		for src := 0; src < n; src++ {
			want := uint64(src*100 + p.Rank())
			if out[src] != want {
				t.Errorf("from %d: %d, want %d", src, out[src], want)
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	Run(n, func(p *Proc) {
		send := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			// Variable sizes, including empty.
			size := (p.Rank() + dst) % 3 * 10
			send[dst] = bytes.Repeat([]byte{byte(p.Rank()*16 + dst)}, size)
		}
		out := p.Alltoallv(send)
		for src := 0; src < n; src++ {
			wantSize := (src + p.Rank()) % 3 * 10
			if len(out[src]) != wantSize {
				t.Errorf("from %d: %d bytes, want %d", src, len(out[src]), wantSize)
				continue
			}
			for _, b := range out[src] {
				if b != byte(src*16+p.Rank()) {
					t.Errorf("from %d: wrong fill %d", src, b)
					break
				}
			}
		}
	})
}

func TestWinPutGetFlush(t *testing.T) {
	Run(3, func(p *Proc) {
		win := CreateWin(p, 1024)
		local := serial.FromBytes[float64](win.LocalData())
		for i := range local {
			local[i] = float64(p.Rank())
		}
		p.Barrier()
		// Put our rank into slot Rank() of the right neighbour.
		right := (p.Rank() + 1) % p.Size()
		v := []float64{float64(p.Rank()) * 10}
		win.Put(serial.AsBytes(v), right, p.Rank()*8)
		win.Flush(right)
		p.Barrier()
		left := (p.Rank() - 1 + p.Size()) % p.Size()
		if local[left] != float64(left)*10 {
			t.Errorf("rank %d window slot %d = %v", p.Rank(), left, local[left])
		}
		// One-sided get of an untouched slot from the left neighbour: it
		// still holds the neighbour's initial fill.
		buf := make([]byte, 8)
		win.Get(buf, left, p.Rank()*8)
		win.Flush(left)
		got := serial.FromBytes[float64](buf)[0]
		if got != float64(left) {
			t.Errorf("rank %d get = %v, want %v", p.Rank(), got, float64(left))
		}
		win.Free()
	})
}

func TestWinLargePutChunks(t *testing.T) {
	Run(2, func(p *Proc) {
		const n = 256 << 10 // forces chunking at RMAChunk=64K
		win := CreateWin(p, n)
		p.Barrier()
		if p.Rank() == 0 {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i)
			}
			win.Put(data, 1, 0)
			win.Flush(1)
		}
		p.Barrier()
		if p.Rank() == 1 {
			local := win.LocalData()
			for i := 0; i < n; i += 9973 {
				if local[i] != byte(i) {
					t.Errorf("byte %d = %d", i, local[i])
				}
			}
		}
		win.Free()
	})
}

func TestPutCPUBytesBands(t *testing.T) {
	pr := DefaultProtocol()
	// Monotone and continuous across knees.
	prev := time.Duration(0)
	for _, n := range []int{0, 1, 100, 1 << 10, 1<<10 + 1, 8 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		got := pr.PutCPUBytes(n)
		if got < prev {
			t.Errorf("PutCPUBytes not monotone at %d: %v < %v", n, got, prev)
		}
		prev = got
	}
	// Spot values: first band is 0.06 ns/B.
	if got := pr.PutCPUBytes(1000); got != time.Duration(60) {
		t.Errorf("PutCPUBytes(1000) = %v", got)
	}
}

// Property: random message storms between random pairs always deliver
// every payload intact and in per-pair order.
func TestQuickMessageStorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		const msgs = 30
		type msg struct {
			dst  int
			size int
		}
		plans := make([][]msg, n)
		for r := 0; r < n; r++ {
			for m := 0; m < msgs; m++ {
				plans[r] = append(plans[r], msg{dst: rng.Intn(n), size: 1 + rng.Intn(20000)})
			}
		}
		counts := make([][]int, n) // counts[dst][src]
		for i := range counts {
			counts[i] = make([]int, n)
		}
		for r := 0; r < n; r++ {
			for _, m := range plans[r] {
				counts[m.dst][r]++
			}
		}
		ok := true
		w := NewWorld(Config{Ranks: n, SegmentSize: 16 << 20})
		defer w.Close()
		w.Run(func(p *Proc) {
			me := p.Rank()
			var reqs []*Request
			type exp struct {
				buf []byte
				src int
				idx int
			}
			var exps []exp
			// Post all receives: from src, the i-th message has tag i.
			for src := 0; src < n; src++ {
				for i := 0; i < counts[me][src]; i++ {
					buf := make([]byte, 20001)
					reqs = append(reqs, p.Irecv(buf, src, i))
					exps = append(exps, exp{buf, src, i})
				}
			}
			seq := make([]int, n)
			for _, m := range plans[me] {
				payload := bytes.Repeat([]byte{byte(me*31 + seq[m.dst])}, m.size)
				reqs = append(reqs, p.Isend(payload, m.dst, seq[m.dst]))
				seq[m.dst]++
			}
			p.Waitall(reqs)
			for _, e := range exps {
				want := byte(e.src*31 + e.idx)
				if e.buf[0] != want {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
