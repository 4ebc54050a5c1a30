package regfile

// File returns the walker's register file, for the tests to inspect.
func (w *Walker[P]) File() *File[P] { return w.rf }

// NoPayload is the Semantics Occupancy walks with: no values, and every
// hazard but a dead valid_rst an error, as on the machine.
type NoPayload = noPayload
