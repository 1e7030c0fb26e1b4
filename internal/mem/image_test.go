package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestImageZeroFill(t *testing.T) {
	m := NewImage()
	if m.Byte(0x1234) != 0 {
		t.Errorf("untouched memory should read zero")
	}
	if m.Read(0xFFFF0000, 8) != 0 {
		t.Errorf("untouched 8-byte read should be zero")
	}
}

func TestImageReadWrite(t *testing.T) {
	m := NewImage()
	m.Write(100, 4, 0xDEADBEEF)
	if got := m.Read(100, 4); got != 0xDEADBEEF {
		t.Errorf("Read(100,4) = %#x, want 0xDEADBEEF", got)
	}
	// little-endian byte order
	if m.Byte(100) != 0xEF || m.Byte(103) != 0xDE {
		t.Errorf("little-endian layout wrong: % x", []byte{m.Byte(100), m.Byte(101), m.Byte(102), m.Byte(103)})
	}
	// sub-word read
	if got := m.Read(101, 2); got != 0xADBE {
		t.Errorf("Read(101,2) = %#x, want 0xADBE", got)
	}
}

func TestImageCrossPage(t *testing.T) {
	m := NewImage()
	addr := uint32(pageSize - 2) // straddles the first page boundary
	m.Write(addr, 4, 0x11223344)
	if got := m.Read(addr, 4); got != 0x11223344 {
		t.Errorf("cross-page read = %#x, want 0x11223344", got)
	}
}

func TestImageWrapAround(t *testing.T) {
	m := NewImage()
	m.Write(0xFFFFFFFE, 4, 0xAABBCCDD)
	if got := m.Read(0xFFFFFFFE, 4); got != 0xAABBCCDD {
		t.Errorf("address-space wraparound read = %#x", got)
	}
	if m.Byte(0) != 0xBB || m.Byte(1) != 0xAA {
		t.Errorf("wrapped bytes landed wrong")
	}
}

func TestImageCloneIsDeep(t *testing.T) {
	m := NewImage()
	m.WriteU32(40, 7)
	c := m.Clone()
	c.WriteU32(40, 9)
	if m.ReadU32(40) != 7 {
		t.Errorf("clone mutated the original")
	}
	if c.ReadU32(40) != 9 {
		t.Errorf("clone write lost")
	}
}

func TestImageEqual(t *testing.T) {
	a, b := NewImage(), NewImage()
	if !a.Equal(b) {
		t.Errorf("two empty images should be equal")
	}
	a.WriteU32(0x5000, 42)
	if a.Equal(b) {
		t.Errorf("images differ, Equal said equal")
	}
	b.WriteU32(0x5000, 42)
	if !a.Equal(b) {
		t.Errorf("identical images, Equal said unequal")
	}
	// An explicitly-written zero equals an untouched page.
	b.WriteU32(0x9000, 0)
	if !a.Equal(b) {
		t.Errorf("zero-written page should equal absent page")
	}
}

func TestImageFirstDifference(t *testing.T) {
	a, b := NewImage(), NewImage()
	if _, ok := a.FirstDifference(b); ok {
		t.Errorf("equal images should report no difference")
	}
	a.SetByte(0x2005, 1)
	a.SetByte(0x2002, 1)
	addr, ok := a.FirstDifference(b)
	if !ok || addr != 0x2002 {
		t.Errorf("FirstDifference = %#x,%v; want 0x2002,true", addr, ok)
	}
}

// Property: Read(Write(v)) == truncate(v) for all sizes, offsets.
func TestImageRoundTripProperty(t *testing.T) {
	m := NewImage()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestImageAccessPaths checks Read and Write at every size on the one-page
// fast path (offsets 0 and PageBytes-size) and on the per-byte path across a
// page boundary (PageBytes-size+1): against Byte/SetByte, on an unallocated
// page, under a snapshot sharing the page, and with a write observer.
func TestImageAccessPaths(t *testing.T) {
	const base = 5 * PageBytes
	const v = uint64(0x8877665544332211)
	for _, size := range []int{1, 2, 4, 8} {
		mask := uint64(1)<<(8*size) - 1
		for _, off := range []uint32{0, PageBytes - uint32(size), PageBytes - uint32(size) + 1} {
			addr := uint32(base) + off
			t.Run(fmt.Sprintf("size%d/off%#x", size, off), func(t *testing.T) {
				// Unallocated pages read as zero and stay unallocated.
				m := NewImage()
				if got := m.Read(addr, size); got != 0 {
					t.Errorf("unallocated Read = %#x, want 0", got)
				}
				if n := len(m.PageBases()); n != 0 {
					t.Errorf("Read allocated %d pages", n)
				}

				// Read assembles what SetByte stored, little-endian.
				var want uint64
				for i := 0; i < size; i++ {
					b := byte(0xA0 + i)
					m.SetByte(addr+uint32(i), b)
					want |= uint64(b) << (8 * i)
				}
				if got := m.Read(addr, size); got != want {
					t.Errorf("Read after SetByte = %#x, want %#x", got, want)
				}

				// Write stores exactly size bytes, seen by Byte; the
				// observer sees the call once.
				var calls []uint64
				m.Observe(func(a uint32, n int, x uint64) {
					if a != addr || n != size {
						t.Errorf("observer saw (%#x, %d), want (%#x, %d)", a, n, addr, size)
					}
					calls = append(calls, x)
				})
				m.SetByte(addr-1, 0x5A)
				m.SetByte(addr+uint32(size), 0x5B)
				m.Write(addr, size, v)
				if len(calls) != 1 || calls[0] != v {
					t.Errorf("observer calls = %#x, want one of %#x", calls, v)
				}
				for i := 0; i < size; i++ {
					if got, want := m.Byte(addr+uint32(i)), byte(v>>(8*i)); got != want {
						t.Errorf("Byte(addr+%d) = %#x, want %#x", i, got, want)
					}
				}
				if m.Byte(addr-1) != 0x5A || m.Byte(addr+uint32(size)) != 0x5B {
					t.Error("Write touched a neighbouring byte")
				}
				if got := m.Read(addr, size); got != v&mask {
					t.Errorf("Read after Write = %#x, want %#x", got, v&mask)
				}

				// A write into pages shared with a snapshot faults them
				// to private copies: the snapshot keeps the old bytes.
				snap := m.Snapshot()
				m.Write(addr, size, ^v)
				if got := m.Read(addr, size); got != ^v&mask {
					t.Errorf("Read after shared Write = %#x, want %#x", got, ^v&mask)
				}
				for i := 0; i < size; i++ {
					if got, want := snap.Byte(addr+uint32(i)), byte(v>>(8*i)); got != want {
						t.Errorf("snapshot Byte(addr+%d) = %#x, want %#x", i, got, want)
					}
				}
				if got := snap.Image().Read(addr, size); got != v&mask {
					t.Errorf("snapshot Read = %#x, want %#x", got, v&mask)
				}
			})
		}
	}
}
