package main

import "time"

// The host this benchmark was tuned on is shared: its speed for the same
// code drifts by up to 1.5× over minutes, within one process as well as
// between processes, and repeating the measurement inside a run does not
// average that out. Host times of single-threaded work are therefore
// reported in reference-host units: each raw time is scaled by how fast a
// fixed probe loop ran on the same goroutine, while nothing else of the
// benchmark ran, just before it (every set-up, every sim cell). The
// multi-threaded windows of serve-mixed and figure6 stay raw: probes run
// between them, on one CPU or on every CPU at once, did not make them
// steadier. The probe shares no code with the repository, so a change to
// the program moves a scaled metric as much as its raw value. Raw values
// are printed beside the scaled ones and reported as per-layer metrics.

// refProbeNS defines the reference host: one on which the probe takes
// exactly 1 ms (it takes 1.1–1.4 ms on the 2-CPU host the bounds were set
// on). Scaled times equal raw times when the probe runs this fast.
const refProbeNS = 1e6

// probeSize sets the probe's work: long enough to time well, short enough
// to interleave with every simulated cell.
const probeSize = 100_000

var (
	probeTab = func() []uint32 {
		t := make([]uint32, 1<<14) // 64 KB: L2-resident, like the simulator's state
		for i := range t {
			t[i] = uint32(i*2654435761) >> 3
		}
		return t
	}()
	probeMap = func() map[uint32]uint32 {
		m := make(map[uint32]uint32, 4096)
		for i := uint32(0); i < 4096; i++ {
			m[i*7919] = i
		}
		return m
	}()
)

// probe runs the fixed loop once and returns its host nanoseconds. The
// loop mixes dependent loads, data-dependent branches and map lookups, the
// operation mix of the simulator's cycle loop.
func probe() float64 {
	t0 := time.Now()
	x := uint32(1)
	var s uint64
	for i := 0; i < probeSize; i++ {
		x = probeTab[(x+uint32(i))&(1<<14-1)]
		switch x & 3 {
		case 0:
			s += uint64(x)
		case 1:
			s ^= uint64(x) << 2
		default:
			s -= uint64(i)
		}
		if i&7 == 0 {
			s += uint64(probeMap[(x&4095)*7919])
		}
	}
	sink += s
	return float64(time.Since(t0).Nanoseconds())
}

// probeMedian runs the probe n times back to back and returns the median.
func probeMedian(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = probe()
	}
	return median(xs)
}
