package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// iSWAP-family inner-block entries, read once from the same memoized
// matrices circuit.Unitary resolves, so the mix kernel multiplies the exact
// floating-point values the generic path would (e.g. the iSWAP diagonal is
// cos(π/2) ≈ 6.1e-17, not literal zero).
var (
	iswapDiag, iswapOff   = gates.ISwap().At(1, 1), gates.ISwap().At(1, 2)
	siswapDiag, siswapOff = gates.SqrtISwap().At(1, 1), gates.SqrtISwap().At(1, 2)
)

// ApplyOp applies one circuit op to the state, dispatching by gate name to
// a specialized kernel when the gate is a pure phase (diagonal) or a pure
// amplitude permutation, and falling back to the generic Apply1Q/Apply2Q
// matrix kernels otherwise. The fast paths are exact — they compute the
// same floating-point products as the generic kernels, minus the terms
// that are structurally zero or one.
func (s *State) ApplyOp(op circuit.Op) error {
	// Explicit unitaries (e.g. Haar-random SU4 blocks) and parameter
	// mismatches always take the generic path.
	if op.U == nil {
		switch op.Name {
		// ---- 1Q diagonal gates: |1⟩-phase only ----
		case "z":
			return s.phase1Q(op, 1, -1)
		case "s":
			return s.phase1Q(op, 1, 1i)
		case "sdg":
			return s.phase1Q(op, 1, -1i)
		case "t":
			return s.phase1Q(op, 1, cmplx.Exp(complex(0, math.Pi/4)))
		case "tdg":
			return s.phase1Q(op, 1, cmplx.Exp(complex(0, -math.Pi/4)))
		case "p":
			if len(op.Params) == 1 {
				return s.phase1Q(op, 1, cmplx.Exp(complex(0, op.Params[0])))
			}
		case "rz":
			if len(op.Params) == 1 {
				half := op.Params[0] / 2
				return s.phase1Q(op, cmplx.Exp(complex(0, -half)), cmplx.Exp(complex(0, half)))
			}
		// ---- 1Q permutation ----
		case "x":
			return s.flip1Q(op)
		// ---- 2Q diagonal gates ----
		case "cz":
			return s.phase2Q(op, 1, 1, 1, -1)
		case "cp":
			if len(op.Params) == 1 {
				return s.phase2Q(op, 1, 1, 1, cmplx.Exp(complex(0, op.Params[0])))
			}
		case "rzz":
			if len(op.Params) == 1 {
				e := cmplx.Exp(complex(0, -op.Params[0]/2))
				ec := cmplx.Exp(complex(0, op.Params[0]/2))
				return s.phase2Q(op, e, ec, ec, e)
			}
		// ---- 2Q permutations ----
		case "cx":
			return s.permCX(op)
		case "swap":
			return s.permSwap(op)
		// ---- 2Q inner-block mixes (iSWAP family) ----
		case "iswap":
			return s.mix2Q(op, iswapDiag, iswapOff)
		case "siswap":
			return s.mix2Q(op, siswapDiag, siswapOff)
		}
	}
	u, err := circuit.Unitary(op)
	if err != nil {
		return err
	}
	switch len(op.Qubits) {
	case 1:
		return s.Apply1Q(op.Qubits[0], u)
	case 2:
		return s.Apply2Q(op.Qubits[0], op.Qubits[1], u)
	default:
		return fmt.Errorf("unsupported arity %d", len(op.Qubits))
	}
}

func (s *State) check1Q(op circuit.Op) (int, error) {
	if len(op.Qubits) != 1 {
		return 0, fmt.Errorf("sim: %s needs one qubit, got %d", op.Name, len(op.Qubits))
	}
	q := op.Qubits[0]
	if q < 0 || q >= s.N {
		return 0, fmt.Errorf("sim: qubit %d out of range", q)
	}
	return 1 << s.bitPos(q), nil
}

func (s *State) check2Q(op circuit.Op) (maskA, maskB int, err error) {
	if len(op.Qubits) != 2 {
		return 0, 0, fmt.Errorf("sim: %s needs two qubits, got %d", op.Name, len(op.Qubits))
	}
	qa, qb := op.Qubits[0], op.Qubits[1]
	if qa == qb {
		return 0, 0, fmt.Errorf("sim: %s needs two distinct qubits, got qubit %d twice", op.Name, qa)
	}
	if qa < 0 || qa >= s.N || qb < 0 || qb >= s.N {
		return 0, 0, fmt.Errorf("sim: invalid qubit pair (%d,%d)", qa, qb)
	}
	return 1 << s.bitPos(qa), 1 << s.bitPos(qb), nil
}

// phase1Q applies diag(d0, d1) on one qubit: amplitudes with the qubit
// clear pick up d0, set pick up d1. The d0 == 1 case (z/s/t/p) touches
// only half the state.
func (s *State) phase1Q(op circuit.Op, d0, d1 complex128) error {
	mask, err := s.check1Q(op)
	if err != nil {
		return err
	}
	amp := s.Amp
	for base := 0; base < len(amp); base += mask << 1 {
		if d0 != 1 {
			for i := base; i < base+mask; i++ {
				amp[i] *= d0
			}
		}
		for i := base + mask; i < base+(mask<<1); i++ {
			amp[i] *= d1
		}
	}
	return nil
}

// flip1Q applies Pauli-X: exchange each (clear, set) amplitude pair.
func (s *State) flip1Q(op circuit.Op) error {
	if _, err := s.check1Q(op); err != nil {
		return err
	}
	return s.ApplyPauli(op.Qubits[0], 0)
}

// ApplyPauli applies Pauli k on qubit q, with k indexing (X, Y, Z): X
// exchanges each (clear, set) amplitude pair, Z negates the set half, and
// Y exchanges with phases, (a0, a1) → (−i·a1, i·a0). Noise trajectories
// inject their sampled errors through it; the results equal Apply1Q with
// gates.X/Y/Z amplitude for amplitude, without the 2×2 complex products.
func (s *State) ApplyPauli(q, k int) error {
	if q < 0 || q >= s.N {
		return fmt.Errorf("sim: qubit %d out of range", q)
	}
	if k < 0 || k > 2 {
		return fmt.Errorf("sim: Pauli index %d outside [0, 2]", k)
	}
	mask := 1 << s.bitPos(q)
	amp := s.Amp
	switch k {
	case 0:
		for base := 0; base < len(amp); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				amp[i], amp[i+mask] = amp[i+mask], amp[i]
			}
		}
	case 1:
		for base := 0; base < len(amp); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				a0, a1 := amp[i], amp[i+mask]
				amp[i] = complex(imag(a1), -real(a1))
				amp[i+mask] = complex(-imag(a0), real(a0))
			}
		}
	case 2:
		for base := mask; base < len(amp); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				amp[i] = -amp[i]
			}
		}
	}
	return nil
}

// quad2Q iterates the |00⟩ index of every (i00, i01, i10, i11) quad.
func quad2Q(n, maskA, maskB int, f func(i00 int)) {
	lo, hi := maskA, maskB
	if lo > hi {
		lo, hi = hi, lo
	}
	for outer := 0; outer < n; outer += hi << 1 {
		for mid := outer; mid < outer+hi; mid += lo << 1 {
			for i := mid; i < mid+lo; i++ {
				f(i)
			}
		}
	}
}

// phase2Q applies diag(d00, d01, d10, d11) in the |qa qb⟩ basis. Unit
// entries are skipped, so cz/cp touch only the quarter of the state with
// both qubits set.
func (s *State) phase2Q(op circuit.Op, d00, d01, d10, d11 complex128) error {
	maskA, maskB, err := s.check2Q(op)
	if err != nil {
		return err
	}
	amp := s.Amp
	quad2Q(len(amp), maskA, maskB, func(i00 int) {
		if d00 != 1 {
			amp[i00] *= d00
		}
		if d01 != 1 {
			amp[i00|maskB] *= d01
		}
		if d10 != 1 {
			amp[i00|maskA] *= d10
		}
		if d11 != 1 {
			amp[i00|maskA|maskB] *= d11
		}
	})
	return nil
}

// mix2Q applies a unitary of the iSWAP-family inner-block form
//
//	[[1, 0,    0,    0],
//	 [0, diag, off,  0],
//	 [0, off,  diag, 0],
//	 [0, 0,    0,    1]]
//
// (iSWAP: diag = cos(π/2), off = i; √iSWAP: diag = cos(π/4), off =
// i·sin(π/4); any gates.NRootISwap member fits). Only the |01⟩/|10⟩
// amplitude pair of each quad mixes — half the state is untouched and the
// 4×4 matrix product collapses to a 2×2 rotation per quad.
func (s *State) mix2Q(op circuit.Op, diag, off complex128) error {
	maskA, maskB, err := s.check2Q(op)
	if err != nil {
		return err
	}
	amp := s.Amp
	quad2Q(len(amp), maskA, maskB, func(i00 int) {
		i01, i10 := i00|maskB, i00|maskA
		a01, a10 := amp[i01], amp[i10]
		amp[i01] = diag*a01 + off*a10
		amp[i10] = off*a01 + diag*a10
	})
	return nil
}

// permCX applies CNOT (first qubit controls): where the control is set,
// exchange the target pair.
func (s *State) permCX(op circuit.Op) error {
	maskA, maskB, err := s.check2Q(op)
	if err != nil {
		return err
	}
	amp := s.Amp
	quad2Q(len(amp), maskA, maskB, func(i00 int) {
		i10, i11 := i00|maskA, i00|maskA|maskB
		amp[i10], amp[i11] = amp[i11], amp[i10]
	})
	return nil
}

// permSwap applies SWAP: exchange the |01⟩ and |10⟩ amplitudes.
func (s *State) permSwap(op circuit.Op) error {
	maskA, maskB, err := s.check2Q(op)
	if err != nil {
		return err
	}
	amp := s.Amp
	quad2Q(len(amp), maskA, maskB, func(i00 int) {
		i01, i10 := i00|maskB, i00|maskA
		amp[i01], amp[i10] = amp[i10], amp[i01]
	})
	return nil
}
