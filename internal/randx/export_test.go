package randx

// Helpers that only this package's tests call.

// Restore returns a new stream positioned at the given snapshot.
func Restore(st StreamState) *Stream {
	var r Stream
	r.SetState(st)
	return &r
}
