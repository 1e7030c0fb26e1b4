package main

import (
	"math/rand"
	"time"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/core"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
)

// Layer microbenchmarks: each times calls into one public layer API from
// outside, repeating a fixed amount of work and reporting the median of
// layerReps repeats, so a run's cost is fixed rather than time-boxed.
const (
	layerReps  = 5
	layerOps   = 1 << 18
	addrStream = 1 << 14
)

// sink keeps the compiler from discarding measured calls.
var sink uint64

// medianNS runs fn (which performs ops operations) layerReps times and
// returns the median host nanoseconds per operation.
func medianNS(ops int, fn func()) float64 {
	xs := make([]float64, layerReps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// imageReadNS times mem.Image.Read at random addresses spread over pages
// pages of a filled image.
func imageReadNS(pages int, rng *rand.Rand) float64 {
	img := mem.NewImage()
	for p := 0; p < pages; p++ {
		img.Write(uint32(p*mem.PageBytes), 8, uint64(p))
	}
	addrs := make([]uint32, addrStream)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(pages*mem.PageBytes)) &^ 7
	}
	return medianNS(layerOps, func() {
		var s uint64
		for i := 0; i < layerOps; i++ {
			s += img.Read(addrs[i&(addrStream-1)], 8)
		}
		sink += s
	})
}

// hierLoadNS times mem.Hierarchy.Load on the Table 1 hierarchy over a
// stream of footprint bytes: sequential 8-byte steps when seq, else random
// 8-byte-aligned addresses. Time advances a cycle per load, and past every
// in-flight fill whenever the MSHR pool is full.
func hierLoadNS(footprint int, seq bool, rng *rand.Rand) float64 {
	addrs := make([]uint32, addrStream)
	for i := range addrs {
		if seq {
			addrs[i] = uint32(i*8) % uint32(footprint)
		} else {
			addrs[i] = uint32(rng.Intn(footprint)) &^ 7
		}
	}
	cfg := mem.DefaultConfig()
	h := mem.NewHierarchy(cfg)
	var now int64
	return medianNS(layerOps, func() {
		var s uint64
		for i := 0; i < layerOps; i++ {
			a := addrs[i&(addrStream-1)]
			now++
			if !h.CanAcceptLoad(a, now) {
				now += int64(cfg.MemLatency)
			}
			lat, _ := h.Load(a, now)
			s += uint64(lat)
		}
		sink += s
	})
}

// frontendTickNS times pipeline.FrontEnd Tick/Head/Pop over each program,
// recycling fetched records and restarting at the entry whenever fetch
// halts or stalls (nothing resolves branches here).
func frontendTickNS(progs []*program.Program) float64 {
	per := layerOps / 4 / len(progs)
	return medianNS(per*len(progs), func() {
		for _, p := range progs {
			fe := pipeline.NewFrontEnd(pipeline.DefaultConfig(), p,
				mem.NewHierarchy(mem.DefaultConfig()), bpred.New(bpred.DefaultConfig()), nil)
			for now := int64(0); now < int64(per); now++ {
				fe.Tick(now)
				if g := fe.Head(now); g != nil {
					insts := g.Insts
					fe.Pop()
					sink += uint64(len(insts))
					fe.Arena().PutAll(insts)
				}
				if fe.Halted() || fe.Stalled() {
					fe.Redirect(p.Entry, now)
				}
			}
		}
	})
}

// sourcesNS times isa.Inst.Sources over every static instruction.
func sourcesNS(progs []*program.Program) float64 {
	var insts []*isa.Inst
	for _, p := range progs {
		for i := range p.Insts {
			insts = append(insts, &p.Insts[i])
		}
	}
	rounds := max(layerOps/len(insts), 1)
	buf := make([]isa.Reg, 0, 4)
	return medianNS(rounds*len(insts), func() {
		var s uint64
		for r := 0; r < rounds; r++ {
			for _, in := range insts {
				buf = in.Sources(buf[:0])
				s += uint64(len(buf))
			}
		}
		sink += s
	})
}

// layerMicro sets the mem, pipeline, isa, arch and checkpoint per-layer
// metrics over the workload's programs.
func layerMicro(res *results, ks *kernelSet, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	res.set("mem.image_read_ns.fit", imageReadNS(4, rng))
	res.set("mem.image_read_ns.wide", imageReadNS(4096, rng))
	res.set("mem.hier_load_ns.fit", hierLoadNS(8<<10, true, rng))
	res.set("mem.hier_load_ns.wide", hierLoadNS(8<<20, false, rng))

	var progs []*program.Program
	for _, n := range ks.names {
		progs = append(progs, ks.progs[n])
	}
	res.set("pipeline.frontend_tick_ns", frontendTickNS(progs))
	res.set("isa.sources_ns", sourcesNS(progs))

	maxSteps := core.DefaultConfig().MaxCycles
	var instr int64
	var refTime, ckptTime time.Duration
	for _, p := range progs {
		t0 := time.Now()
		ref, err := core.ComputeReference(p, maxSteps)
		refTime += time.Since(t0)
		if err != nil {
			return err
		}
		instr += ref.Result.Instructions
		t0 = time.Now()
		if _, err := core.ComputeReference(p, maxSteps, core.WithCheckpoints(max(ref.Result.Instructions/8, 1))); err != nil {
			return err
		}
		ckptTime += time.Since(t0)
	}
	res.set("arch.ref_minstr_per_s", float64(instr)/1e6/refTime.Seconds())
	res.set("checkpoint.ref_ckpt_ms", ms(ckptTime))
	res.set("workload.build_ms", ks.buildMS)
	return nil
}
