package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns n zeroed elements of a pointer-free type T in an
// anonymous mapping outside the Go heap, with the function that
// unmaps it. Latency samples and spans live there: they then neither
// count in the heap readings nor raise the GC's heap goal, so the GC
// pace during a timed phase is the program's alone.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, func() {}, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), func() { _ = syscall.Munmap(mem) }, nil
}
