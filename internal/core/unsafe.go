package upcxx

import "unsafe"

// uintptrOf returns the address of the first byte of b. Isolated here so
// unsafe appears in exactly one file of this package.
func uintptrOf(b []byte) uintptr {
	return uintptr(unsafe.Pointer(&b[0]))
}

// funcvalOf identifies the func value held in fn, the registry's key. The
// closures of one func literal share the code pointer reflect shows; each has
// a closure object of its own, and a plain function exactly one, in static
// data. An entry's bodies hold fn, so the address is not reused while a key.
func funcvalOf(fn any) uintptr {
	return uintptr((*[2]unsafe.Pointer)(unsafe.Pointer(&fn))[1])
}
