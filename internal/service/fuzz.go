package service

import (
	"context"
	"fmt"

	"fleaflicker/internal/diffsim"
	"fleaflicker/internal/progen"
)

// This file adds the "fuzz" job kind: a differential co-simulation campaign
// (internal/diffsim) submitted as a service job. The campaign's seed range
// is split into fixed-size chunks, one unit per chunk, so a large campaign
// spreads across the worker pool, streams progress like any sweep, and —
// because each chunk's verdict is a pure function of (seed range, shape) —
// caches and coalesces exactly like simulation units do.

// FuzzSpec is the wire format of a fuzz submission (kind "fuzz"). The
// generator seed range starts at JobSpec.Seed; program i uses Seed+i.
type FuzzSpec struct {
	// Programs is the total number of programs the campaign checks.
	Programs int `json:"programs"`
	// ChunkSize is the number of programs per unit (default 50).
	ChunkSize int `json:"chunk_size,omitempty"`
	// Smoke selects the four-cell smoke lattice and small programs instead
	// of the full 14-cell default lattice.
	Smoke bool `json:"smoke,omitempty"`
	// Shrink minimizes diverging programs into reproducers (reported as
	// .flea text in the unit result).
	Shrink bool `json:"shrink,omitempty"`
	// Checkpoint fans each program's lattice cells out from the reference
	// execution's last functional checkpoint instead of from cycle zero
	// (diffsim.AutoCheckpoint interval): same architectural verdicts on the
	// replayed suffix, a fraction of the simulation work.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// defaultFuzzChunk is the FuzzSpec.ChunkSize default: small enough that a
// chunk completes in seconds, large enough that per-unit overhead (checker
// construction, reporting) stays negligible.
const defaultFuzzChunk = 50

// FuzzUnit is one chunk of a fuzz campaign: the resolved per-unit
// parameters, part of the unit's cache key.
type FuzzUnit struct {
	SeedBase   int64 `json:"seed_base"`
	Programs   int   `json:"programs"`
	Smoke      bool  `json:"smoke,omitempty"`
	Shrink     bool  `json:"shrink,omitempty"`
	Checkpoint bool  `json:"checkpoint,omitempty"`
}

// FuzzFinding is one diverging program in a unit's report.
type FuzzFinding struct {
	Seed int64 `json:"seed"`
	// Cells names the lattice cells that diverged from the reference.
	Cells []string `json:"cells"`
	// Divergences holds one structured message per diverging cell.
	Divergences []string `json:"divergences"`
	// MinimizedInsts is the instruction count of the shrunk reproducer
	// (0 when shrinking was off).
	MinimizedInsts int `json:"minimized_insts,omitempty"`
	// Repro is the reproducer serialized in .flea corpus format, replayable
	// with `fleasim -repro` — the minimized program when shrinking was on,
	// otherwise the original.
	Repro string `json:"repro"`
}

// FuzzReport is the result payload of one fuzz unit.
type FuzzReport struct {
	Programs        int           `json:"programs"`
	Skipped         int           `json:"skipped"`
	Cells           int           `json:"cells"`
	CellRuns        int64         `json:"cell_runs"`
	RefInstructions int64         `json:"ref_instructions"`
	Findings        []FuzzFinding `json:"findings,omitempty"`
}

// FuzzRunner executes one fuzz chunk. The default runs a diffsim campaign;
// tests substitute stubs.
type FuzzRunner func(ctx context.Context, u UnitSpec) (*FuzzReport, error)

// WithFuzzRunner replaces the fuzz-campaign runner (test seam).
func WithFuzzRunner(r FuzzRunner) Option {
	return func(m *Manager) { m.fuzzRunner = r }
}

// expandFuzz resolves a kind-"fuzz" spec into one unit per seed chunk.
func (s *JobSpec) expandFuzz(maxUnits int) ([]UnitSpec, error) {
	if s.Model != "" || s.Bench != "" || len(s.Models) > 0 || len(s.Benches) > 0 || s.Sweep != nil {
		return nil, fmt.Errorf("%w: kind fuzz takes no model, bench or sweep axes", ErrInvalidSpec)
	}
	if s.Fuzz == nil || s.Fuzz.Programs <= 0 {
		return nil, fmt.Errorf("%w: kind fuzz requires fuzz.programs > 0", ErrInvalidSpec)
	}
	chunk := s.Fuzz.ChunkSize
	if chunk <= 0 {
		chunk = defaultFuzzChunk
	}
	chunks := s.Fuzz.Programs / chunk
	if s.Fuzz.Programs%chunk != 0 {
		chunks++
	}
	if err := checkUnitCount(maxUnits, chunks); err != nil {
		return nil, err
	}
	var units []UnitSpec
	for off := 0; off < s.Fuzz.Programs; off += chunk {
		n := s.Fuzz.Programs - off
		if n > chunk {
			n = chunk
		}
		base := s.Seed + int64(off)
		units = append(units, UnitSpec{
			ModelName: "fuzz",
			Bench:     fmt.Sprintf("seeds[%d,%d)", base, base+int64(n)),
			Seed:      s.Seed,
			Fuzz: &FuzzUnit{
				SeedBase:   base,
				Programs:   n,
				Smoke:      s.Fuzz.Smoke,
				Shrink:     s.Fuzz.Shrink,
				Checkpoint: s.Fuzz.Checkpoint,
			},
		})
	}
	return units, nil
}

// fuzzGen returns the generator shape for a fuzz unit. Smoke trims dynamic
// instruction counts so a CI chunk finishes in seconds.
func fuzzGen(smoke bool) progen.Config {
	gen := progen.DefaultConfig()
	if smoke {
		gen.OuterTrips = 2
		gen.BodyActions = 12
		gen.ArrayBytes = 4 << 10
		gen.ChainNodes = 8
	}
	return gen
}

// defaultFuzzRunner runs one chunk's differential campaign.
func defaultFuzzRunner(ctx context.Context, u UnitSpec) (*FuzzReport, error) {
	fz := u.Fuzz
	cells := diffsim.DefaultLattice()
	if fz.Smoke {
		cells = diffsim.SmokeLattice()
	}
	var ckpt int64
	if fz.Checkpoint {
		ckpt = diffsim.AutoCheckpoint
	}
	st, err := diffsim.RunCampaign(ctx, diffsim.CampaignConfig{
		SeedBase:        fz.SeedBase,
		Programs:        fz.Programs,
		Gen:             fuzzGen(fz.Smoke),
		Cells:           cells,
		Shrink:          fz.Shrink,
		CheckpointEvery: ckpt,
	})
	if err != nil {
		return nil, err
	}
	rep := &FuzzReport{
		Programs:        st.Programs,
		Skipped:         st.Skipped,
		Cells:           len(cells),
		CellRuns:        st.CellRuns,
		RefInstructions: st.RefInstructions,
	}
	for _, f := range st.Findings {
		ff := FuzzFinding{Seed: f.Seed}
		for _, d := range f.Divergences {
			ff.Cells = append(ff.Cells, d.Cell.String())
			ff.Divergences = append(ff.Divergences, d.String())
		}
		repro := f.Program
		if f.Minimized != nil {
			repro = f.Minimized
			ff.MinimizedInsts = len(f.Minimized.Insts)
		}
		ff.Repro = string(repro.MarshalFlea())
		rep.Findings = append(rep.Findings, ff)
	}
	return rep, nil
}
