package ftl

// PendingBit reports lpn's bit in the verification shadow's pending bitmap,
// for tests that recount it against the fold predicate from outside.
func (d *Device) PendingBit(lpn LPN) bool {
	return d.sh.pending[int64(lpn)/wordBits]>>(int64(lpn)%wordBits)&1 == 1
}
