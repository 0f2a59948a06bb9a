package topology

import "math/bits"

// MaxGPUs is the largest GPU count a platform may declare: a DeviceSet
// holds one bit per GPU in a uint64.
const MaxGPUs = 64

// DeviceSet is a set of GPU ids, one bit per device. It is a value: the
// cache keeps one per tile for the GPUs holding a valid replica and one for
// the GPUs with a replica in flight, and the policies read them without
// allocating. Iterate in ascending id order — the tie-break order every
// source selector relies on — with
//
//	for s := set; !s.Empty(); s = s.Rest() {
//		d := s.First()
//		...
//	}
//
// Host is never a member: With(Host) and Without(Host) return the set
// unchanged and Has(Host) is false.
type DeviceSet uint64

// bit returns d's mask. Host (and any id past MaxGPUs-1) converts to a
// shift of 64 bits or more, which Go defines to yield 0.
func bit(d DeviceID) DeviceSet { return 1 << uint(d) }

// Has reports whether d is in the set.
func (s DeviceSet) Has(d DeviceID) bool { return s&bit(d) != 0 }

// With returns the set plus d.
func (s DeviceSet) With(d DeviceID) DeviceSet { return s | bit(d) }

// Without returns the set minus d.
func (s DeviceSet) Without(d DeviceID) DeviceSet { return s &^ bit(d) }

// Empty reports whether the set has no member.
func (s DeviceSet) Empty() bool { return s == 0 }

// First returns the lowest member, or -1 when the set is empty.
func (s DeviceSet) First() DeviceID {
	if s == 0 {
		return -1
	}
	return DeviceID(bits.TrailingZeros64(uint64(s)))
}

// Rest returns the set without its lowest member.
func (s DeviceSet) Rest() DeviceSet { return s & (s - 1) }
