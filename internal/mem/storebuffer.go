package mem

// StoreEntry is one uncommitted store held in the speculative store buffer.
// ID is the dynamic instruction ID of the store, which orders entries.
// DataKnown is false for stores whose address was computable in the A-pipe
// but whose data operand was deferred; loads overlapping such an entry must
// themselves be deferred (paper §3.4).
type StoreEntry struct {
	ID        uint64
	Addr      uint32
	Size      int
	Data      uint64
	DataKnown bool
}

func (e *StoreEntry) overlapsByte(addr uint32) bool {
	return addr-e.Addr < uint32(e.Size) // unsigned trick: addr in [Addr, Addr+Size)
}

// StoreBuffer is the speculative store buffer of the two-pass design: stores
// executed in the A-pipe write here (never to architectural memory) and
// forward byte-accurately to younger A-pipe loads. Entries are removed when
// the B-pipe commits the store, or flushed on misprediction/conflict
// recovery. The zero value is an empty buffer.
type StoreBuffer struct {
	entries []StoreEntry // ordered by increasing ID
}

// Len returns the number of buffered stores.
//
//flea:hotpath
func (b *StoreBuffer) Len() int { return len(b.entries) }

// Insert adds a store. IDs must be inserted in increasing order (A-pipe
// program order); Insert panics otherwise, as that indicates a machine bug.
//
//flea:hotpath
func (b *StoreBuffer) Insert(e StoreEntry) {
	if n := len(b.entries); n > 0 && b.entries[n-1].ID >= e.ID {
		panic("mem: StoreBuffer entries must be inserted in increasing ID order")
	}
	b.entries = append(b.entries, e)
}

// ForwardResult describes how a load interacts with the buffer.
type ForwardResult int

const (
	// ForwardNone: no older buffered store overlaps the load; read memory.
	ForwardNone ForwardResult = iota
	// ForwardHit: the load's value was assembled from buffered stores
	// (possibly merged with memory bytes).
	ForwardHit
	// ForwardUnknown: an overlapping older store has unknown data; the
	// load must be deferred to the B-pipe.
	ForwardUnknown
)

// Forward computes the value a load (with dynamic ID loadID) reads, merging
// bytes from the youngest overlapping older store entries with bytes from
// img. size must be ≤ 8.
//
// One pass over the older entries first decides whether any overlaps the
// load at all; only then are bytes merged, each from its youngest covering
// entry. Most loads meet no buffered store, so they pay one linear scan
// instead of size scans.
//
//flea:hotpath
func (b *StoreBuffer) Forward(loadID uint64, addr uint32, size int, img *Image) (val uint64, res ForwardResult) {
	val = img.Read(addr, size)
	if !b.olderOverlap(loadID, addr, size) {
		return val, ForwardNone
	}
	for i := 0; i < size; i++ {
		byteAddr := addr + uint32(i)
		// Scan youngest-first among entries older than the load.
		for j := len(b.entries) - 1; j >= 0; j-- {
			e := &b.entries[j]
			if e.ID >= loadID {
				continue
			}
			if !e.overlapsByte(byteAddr) {
				continue
			}
			if !e.DataKnown {
				return 0, ForwardUnknown
			}
			shift := uint((byteAddr - e.Addr) * 8)
			byteVal := uint64(byte(e.Data >> shift))
			val &^= 0xFF << uint(i*8)
			val |= byteVal << uint(i*8)
			res = ForwardHit
			break
		}
	}
	return val, res
}

// olderOverlap reports whether any entry older than loadID shares a byte
// with [addr, addr+size). Both ranges are taken modulo 2^32, exactly as
// overlapsByte takes them, so Forward's merge finds a covering entry for
// some byte whenever this holds.
//
//flea:hotpath
func (b *StoreBuffer) olderOverlap(loadID uint64, addr uint32, size int) bool {
	for j := range b.entries {
		e := &b.entries[j]
		if e.ID >= loadID {
			return false // entries are ordered by ID: the rest are younger
		}
		if e.Addr-addr < uint32(size) || addr-e.Addr < uint32(e.Size) {
			return true
		}
	}
	return false
}

// OlderUnknownOverlap reports whether any entry older than loadID overlaps
// [addr, addr+size) and has unknown data.
//
//flea:hotpath
func (b *StoreBuffer) OlderUnknownOverlap(loadID uint64, addr uint32, size int) bool {
	for j := range b.entries {
		e := &b.entries[j]
		if e.ID >= loadID || e.DataKnown {
			continue
		}
		if e.Addr < addr+uint32(size) && addr < e.Addr+uint32(e.Size) {
			return true
		}
	}
	return false
}

// HasOlderThan reports whether the buffer holds any entry with ID < id.
// The two-pass machine uses this to detect loads issued past a deferred
// store (for the §4 conflict statistics).
//
//flea:hotpath
func (b *StoreBuffer) HasOlderThan(id uint64) bool {
	return len(b.entries) > 0 && b.entries[0].ID < id
}

// Remove deletes the entry with the given ID, if present.
//
//flea:hotpath
func (b *StoreBuffer) Remove(id uint64) {
	for i := range b.entries {
		if b.entries[i].ID == id {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return
		}
	}
}

// FlushFrom removes every entry with ID ≥ id (squash on misprediction or
// store-conflict recovery).
//
//flea:hotpath
func (b *StoreBuffer) FlushFrom(id uint64) {
	for i := range b.entries {
		if b.entries[i].ID >= id {
			b.entries = b.entries[:i]
			return
		}
	}
}

// Reset empties the buffer.
func (b *StoreBuffer) Reset() { b.entries = b.entries[:0] }
