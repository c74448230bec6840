//go:build amd64 || arm64

package upcxx

import "unsafe"

// getg returns the running goroutine's g (goid_amd64.s, goid_arm64.s).
func getg() unsafe.Pointer
