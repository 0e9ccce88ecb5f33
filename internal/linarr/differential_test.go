package linarr

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mcopt/internal/netlist"
)

// checkAgainstOracle rebuilds an arrangement from a's committed order and
// compares every piece of incremental state — density, total span, per-gap
// counts and per-net extremes (span and second extremes) — against the
// from-scratch recompute.
func checkAgainstOracle(t *testing.T, a *Arrangement, label string) {
	t.Helper()
	oracle := MustNew(a.Netlist(), a.Order())
	if a.Density() != oracle.Density() {
		t.Fatalf("%s: Density = %d, oracle %d", label, a.Density(), oracle.Density())
	}
	if a.TotalSpan() != oracle.TotalSpan() {
		t.Fatalf("%s: TotalSpan = %d, oracle %d", label, a.TotalSpan(), oracle.TotalSpan())
	}
	for g := 0; g < a.NumCells()-1; g++ {
		if a.GapCut(g) != oracle.GapCut(g) {
			t.Fatalf("%s: GapCut(%d) = %d, oracle %d", label, g, a.GapCut(g), oracle.GapCut(g))
		}
	}
	for n := 0; n < a.Netlist().NumNets(); n++ {
		if a.ext[n] != oracle.ext[n] {
			t.Fatalf("%s: net %d extremes (lo, lo2, hi2, hi) = %v, oracle %v",
				label, n, a.ext[n], oracle.ext[n])
		}
	}
	for c := 0; c < a.NumCells(); c++ {
		if a.CellAt(a.PosOf(c)) != c {
			t.Fatalf("%s: cellAt/posOf out of sync for cell %d", label, c)
		}
	}
}

// driveKernel throws a random move sequence — evaluations, applies, implicit
// rejections, mid-proposal reads and clones — at an arrangement and checks
// the incremental state against the recompute oracle after every apply.
func driveKernel(t *testing.T, nl *netlist.Netlist, r *rand.Rand, steps int) {
	t.Helper()
	a := Random(nl, r)
	checkAgainstOracle(t, a, "initial")
	n := a.NumCells()
	for step := 0; step < steps; step++ {
		p, q := r.IntN(n), r.IntN(n)
		obj := Density
		if r.IntN(4) == 0 {
			obj = TotalSpan
		}
		var m Move
		kind := "swap"
		if r.IntN(2) == 0 {
			m = a.EvalSwapFor(p, q, obj)
		} else {
			kind = "reinsert"
			m = a.EvalReinsertFor(p, q, obj)
		}

		// The delta the move reports must match the oracle difference.
		before := MustNew(nl, a.Order())
		if r.IntN(8) == 0 {
			// Committed reads and clones must not disturb the proposal.
			_ = a.GapCut(r.IntN(max(n-1, 1)))
			cl := a.Clone()
			checkAgainstOracle(t, cl, "clone mid-proposal")
		}

		if r.IntN(2) == 0 {
			// Reject by abandoning the move; the next Eval rolls it back.
			continue
		}
		m.Apply()
		after := MustNew(nl, a.Order())
		if got, want := m.DensityDelta(), after.Density()-before.Density(); got != want {
			t.Fatalf("step %d: %s(%d,%d) DensityDelta = %d, oracle %d", step, kind, p, q, got, want)
		}
		if got, want := m.SpanDelta(), after.TotalSpan()-before.TotalSpan(); got != want {
			t.Fatalf("step %d: %s(%d,%d) SpanDelta = %d, oracle %d", step, kind, p, q, got, want)
		}
		checkAgainstOracle(t, a, "after apply")
	}
}

// TestKernelDifferential drives thousands of random move sequences against
// the recompute oracle over graph and hypergraph netlists of several sizes,
// crossing the tree's block-size regimes.
func TestKernelDifferential(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 1))
	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		steps int
	}{
		{"pair-n2", netlist.MustNew(2, [][]int{{0, 1}}), 50},
		{"graph-n6", netlist.RandomGraph(r, 6, 9), 400},
		{"graph-n15", netlist.RandomGraph(r, 15, 30), 400},
		{"graph-n33", netlist.RandomGraph(r, 33, 80), 300},
		{"hyper-n20", netlist.RandomHyper(r, 20, 15, 2, 6), 400},
		{"hyper-n40", netlist.RandomHyper(r, 40, 25, 3, 8), 300},
		{"sparse-n25", netlist.RandomGraph(r, 25, 5), 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			driveKernel(t, tc.nl, r, tc.steps)
		})
	}
}

// FuzzArrangementKernel interprets fuzz bytes as a netlist shape plus a move
// program and cross-checks the incremental kernel against the recompute
// oracle, mirroring the netlist text fuzzer.
func FuzzArrangementKernel(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 0xFF, 10, 20, 30})
	f.Add([]byte{2, 0, 1, 0xFF, 0, 1, 2, 3})
	f.Add([]byte{15, 0, 1, 2, 3, 4, 5, 0xFF, 200, 100, 9, 8, 7, 6, 5, 4, 3})
	f.Add([]byte{3})
	// Multi-pin nets: the NOLA path.
	f.Add([]byte{9, 0x40, 3, 5, 7, 0x21, 2, 8, 0xA0, 4, 6, 1, 3, 5, 0, 2, 0xFF,
		1, 0x88, 7, 0x83, 2, 6, 0x85, 0x81, 4, 0x80, 8, 0x82, 3, 0x87})
	f.Add([]byte{16, 0xE0, 1, 2, 3, 4, 5, 6, 7, 8, 0x61, 9, 10, 11, 12, 0xFF,
		0x8F, 0x80, 3, 0x8C, 0x85, 0x82, 15, 0x80, 0x89, 0x8B, 1, 0x8E})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%19 + 2 // 2..20 cells
		data = data[1:]

		// Bytes up to the 0xFF sentinel are nets. A net's first byte sets
		// its size, 2 + (byte >> 5) pins, and every one of its bytes names
		// a pin modulo n. Repeated pins collapse; a net left with fewer
		// than two distinct pins is dropped.
		var nets [][]int
		for len(data) >= 2 && data[0] != 0xFF {
			k := min(2+int(data[0]>>5), len(data))
			var pins []int
			for _, b := range data[:k] {
				if c := int(b) % n; !slices.Contains(pins, c) {
					pins = append(pins, c)
				}
			}
			if len(pins) >= 2 {
				nets = append(nets, pins)
			}
			data = data[k:]
		}
		if len(data) > 0 && data[0] == 0xFF {
			data = data[1:]
		}
		nl, err := netlist.New(n, nets)
		if err != nil {
			t.Fatal(err)
		}

		a := Identity(nl)
		// Remaining bytes are the move program: each byte pair encodes move
		// class, positions, and whether to apply.
		for i := 0; i+1 < len(data); i += 2 {
			p, q := int(data[i])%n, int(data[i+1])%n
			var m Move
			if data[i]&0x80 != 0 {
				m = a.EvalReinsert(p, q)
			} else {
				m = a.EvalSwap(p, q)
			}
			if data[i+1]&0x80 != 0 {
				m.Apply()
			}
		}
		checkAgainstOracle(t, a, "after fuzz program")
	})
}
