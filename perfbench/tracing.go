package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans that belong to one request share Req.
type span struct {
	ID     int64
	Parent int64 // 0 = root
	Name   string
	Req    string // request identity shared by a job's spans, or the cell label
	Lane   int    // display row in the Chrome trace (client, worker, ...)
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is then a no-op, so timed runs pay
// one nil check per boundary.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name, req string, parent int64, lane int) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Req: req, Lane: lane, Start: now})
	return t.next
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// endReq closes span id and sets its request identity, for spans whose
// identity is known only once the call returns (a job's ID).
func (t *tracer) endReq(id int64, req string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Req = req
}

// record adds an already-finished span (used for fleaflow stages, whose
// bounds arrive as Observer events).
func (t *tracer) record(name, req string, parent int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Req: req, Lane: lane, Start: start, End: end})
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		d := s.End.Sub(s.Start) - covered(s, children[s.ID])
		out[s.Name] += d.Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeChrome writes the spans as one Chrome trace_event JSON file.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.snapshot()
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- CPU profile attribution ----

// cpuProfile is the part of a pprof profile the benchmark attributes: per
// sample, its CPU nanoseconds and its stack as function names, leaf first.
type cpuProfile struct {
	total   int64
	samples []profSample
}

type profSample struct {
	ns    int64
	stack []string
}

// readCPUProfile decodes a gzipped pprof protobuf written by runtime/pprof.
// The wire format is decoded by hand so the benchmark needs nothing beyond
// the standard library.
func readCPUProfile(path string) (*cpuProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}

	var strs []string
	funcName := map[uint64]int64{}   // function id -> string index
	locFunc := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var raws []rawSample
	err = eachField(body, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendUints(s.locs, w, v, bb)
				case 2:
					for _, u := range appendUints(nil, w, v, bb) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p := &cpuProfile{}
	for _, s := range raws {
		if len(s.vals) == 0 {
			continue
		}
		ns := s.vals[len(s.vals)-1] // CPU profiles carry [samples, nanoseconds]
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFunc[l] {
				if idx := funcName[f]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.total += ns
		p.samples = append(p.samples, profSample{ns: ns, stack: stack})
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field number,
// wire type, varint value (wire 0) and payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendUints decodes a repeated integer field in either packed (wire 2)
// or unpacked (wire 0) form.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// funcPackage returns the import path of a fully qualified Go function
// name, e.g. "fleaflicker/internal/twopass" for
// "fleaflicker/internal/twopass.(*Machine).bBlocked".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// selfShare returns the share of CPU time whose leaf frame lies in pkg.
func (p *cpuProfile) selfShare(pkg string) float64 {
	if p.total == 0 {
		return 0
	}
	var ns int64
	for _, s := range p.samples {
		if len(s.stack) > 0 && funcPackage(s.stack[0]) == pkg {
			ns += s.ns
		}
	}
	return float64(ns) / float64(p.total)
}

// cumShare returns the share of CPU time with fn anywhere on the stack.
func (p *cpuProfile) cumShare(fn string) float64 {
	if p.total == 0 {
		return 0
	}
	var ns int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if f == fn {
				ns += s.ns
				break
			}
		}
	}
	return float64(ns) / float64(p.total)
}
