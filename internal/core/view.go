package upcxx

import "upcxx/internal/serial"

// View is the analogue of upcxx::view<T>: a serializable window over a
// sequence of trivially-copyable elements. On the sending side, MakeView
// wraps a local slice without copying; serialization streams the elements
// directly into the message payload. On the receiving side the view is a
// non-owning window into the incoming network buffer — valid only for the
// duration of the RPC body, exactly as in UPC++ (paper §IV-D2). Copy out
// (CopyOut/append) anything that must persist.
type View[T serial.Scalar] struct {
	elems []T
}

// MakeView wraps s in a view; s is not copied until serialization.
func MakeView[T serial.Scalar](s []T) View[T] { return View[T]{elems: s} }

// Elements returns the viewed elements. For a received view the slice
// aliases the network buffer.
func (v View[T]) Elements() []T { return v.elems }

// Len returns the number of elements.
func (v View[T]) Len() int { return len(v.elems) }

// CopyOut returns a fresh slice with the view's contents, safe to retain
// after the RPC body returns.
func (v View[T]) CopyOut() []T { return serial.CopyScalars(v.elems) }

// MarshalSerial streams the element count and raw element bytes. Every RPC
// message is gather-encoded, so an element payload of at least
// serial.GatherMinBorrow bytes travels as a borrowed iovec fragment, copied
// once, by the conduit's capture stage: before a single call returns, and
// inside Flush for a Batch entry — the slice must stay unchanged until then.
func (v View[T]) MarshalSerial(e *serial.Encoder) {
	e.PutUvarint(uint64(len(v.elems)))
	e.PutBorrowed(serial.AsBytes(v.elems))
}

// UnmarshalSerial reconstitutes the view as a window over the decoder's
// buffer (zero copy).
func (v *View[T]) UnmarshalSerial(d *serial.Decoder) {
	n := int(d.Uvarint())
	b := d.Raw(n * serial.SizeOf[T]())
	if b == nil {
		v.elems = nil
		return
	}
	v.elems = serial.FromBytes[T](b)
}
