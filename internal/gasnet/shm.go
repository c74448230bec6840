//go:build linux || darwin

package gasnet

// Shared-memory world file: one mmap'd file per rank under the boot
// directory. Rank r's file holds the doorbell rings other ranks
// produce into plus rank r's registered host segment, so same-host
// puts/gets are direct memcpys into the target's segment.
//
// File layout (all offsets fixed at create time):
//
//	+0   magic  u64  "UPCXSHM1"
//	+8   ready  u32  (owner stores 1 last; peers spin on it)
//	+12  nranks u32
//	+16  nranks × ringBytes   (ring i: producer = rank i)
//	+segOff (page-aligned)    segment bytes
//
// The owner creates the file O_EXCL, sizes it, maps it, initializes
// the header, and publishes ready=1; peers poll for the file, map it,
// and spin briefly on ready.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const shmMagic = 0x314d485358435055 // "UPCXSHM1" little-endian

type shmFile struct {
	path string
	mem  []byte
	segN int
}

func shmPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("shm.%d", rank))
}

func shmSegOff(nranks int) int {
	off := 16 + nranks*ringBytes
	return (off + 4095) &^ 4095
}

// createShm builds and publishes this rank's world file.
func createShm(dir string, rank, nranks, segBytes int) (*shmFile, error) {
	path := shmPath(dir, rank)
	total := shmSegOff(nranks) + segBytes
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, err
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("gasnet: mmap %s: %w", path, err)
	}
	binary.LittleEndian.PutUint64(mem[0:], shmMagic)
	binary.LittleEndian.PutUint32(mem[12:], uint32(nranks))
	// Ring cursors start zeroed courtesy of Truncate; publish last.
	atomic.StoreUint32((*uint32)(unsafe.Pointer(&mem[8])), 1)
	return &shmFile{path: path, mem: mem, segN: segBytes}, nil
}

// openShm maps a peer's world file, waiting for it to appear and
// become ready.
func openShm(dir string, rank, nranks, segBytes int, timeout time.Duration) (*shmFile, error) {
	path := shmPath(dir, rank)
	total := shmSegOff(nranks) + segBytes
	deadline := time.Now().Add(timeout)
	var f *os.File
	for {
		var err error
		f, err = os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			if st, serr := f.Stat(); serr == nil && st.Size() >= int64(total) {
				break
			}
			f.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("gasnet: timeout waiting for shm file %s", path)
		}
		time.Sleep(200 * time.Microsecond)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("gasnet: mmap %s: %w", path, err)
	}
	ready := (*uint32)(unsafe.Pointer(&mem[8]))
	for atomic.LoadUint32(ready) == 0 {
		if time.Now().After(deadline) {
			syscall.Munmap(mem)
			return nil, fmt.Errorf("gasnet: timeout waiting for shm ready %s", path)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if binary.LittleEndian.Uint64(mem[0:]) != shmMagic {
		syscall.Munmap(mem)
		return nil, fmt.Errorf("gasnet: bad shm magic in %s", path)
	}
	if got := binary.LittleEndian.Uint32(mem[12:]); got != uint32(nranks) {
		syscall.Munmap(mem)
		return nil, fmt.Errorf("gasnet: shm nranks %d, want %d", got, nranks)
	}
	return &shmFile{path: path, mem: mem, segN: segBytes}, nil
}

// ring returns the region rank `producer` pushes into within this file.
func (s *shmFile) ring(producer int) []byte {
	off := 16 + producer*ringBytes
	return s.mem[off : off+ringBytes]
}

// seg returns the owner's registered segment bytes.
func (s *shmFile) seg(nranks int) []byte {
	off := shmSegOff(nranks)
	return s.mem[off : off+s.segN]
}

// close unmaps every file of the world: the wire's cleanup once nothing can
// reach it, not Network.Close (wire.close).
func (w *shmWorld) close() {
	for _, f := range w.peers {
		if f != nil {
			f.close()
		}
	}
	w.my.close()
}

func (s *shmFile) close() {
	if s.mem != nil {
		syscall.Munmap(s.mem)
		s.mem = nil
	}
}
