/**
 * @file
 * Exact mixed-state simulation engine.
 *
 * The density matrix evolves through the same gate/noise sequence as
 * the trajectory simulator but applies every channel exactly, yielding
 * the exact output distribution. Every kernel works in place on the
 * 2x2 (one qubit) or 4x4 (two qubits) blocks the operands select, so
 * no channel allocates or copies the matrix:
 *  - a 1-qubit channel is a 4x4 superoperator on each 2x2 block;
 *    consecutive 1-qubit gates and channels on a qubit compose into
 *    one superoperator before they touch the matrix (superopThen);
 *  - a 2-qubit unitary and the 2-qubit depolarizing channel after it
 *    share one 4x4-block pass (apply2qDepolarizing).
 *
 * exactOutcomes() runs a whole ExecutionTape through these kernels and
 * folds the classical readout channels in; it is the one exact engine
 * behind ExecutionTape's stored sampling table and
 * Executor::exactDistribution (DESIGN.md §8). Only 2-qubit ops couple
 * qubits, so it evolves one density matrix per connected component of
 * the tape's 2-qubit interaction graph and takes the register's basis
 * probabilities as the product of the components' diagonals: a bv-6
 * tape (7 active qubits, components 5+1+1) costs a 5-qubit evolution.
 */

#pragma once

#include <array>
#include <complex>
#include <vector>

#include "circuit/op.hpp"
#include "hw/calibration.hpp"
#include "sim/channels.hpp"
#include "sim/execution_tape.hpp"

namespace qedm::sim {

/**
 * A 1-qubit channel as a superoperator on one 2x2 block of a density
 * matrix, flattened row-major as (rho00, rho01, rho10, rho11):
 * S = sum_k K_k (x) conj(K_k), stored row-major.
 */
using Superop1q = std::array<Complex, 16>;

/** rho -> U rho U^dagger. */
Superop1q superopOf(const std::array<Complex, 4> &unitary);

/** rho -> sum_k K_k rho K_k^dagger. */
Superop1q superopOf(const Kraus1q &kraus);

/** The channel that applies @p first, then @p second. */
Superop1q superopThen(const Superop1q &first, const Superop1q &second);

/** Density matrix over n qubits (n <= 10); qubit 0 is the LSB. */
class DensityMatrix
{
  public:
    /** |0..0><0..0| on @p num_qubits qubits. */
    explicit DensityMatrix(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return dim_; }

    Complex at(std::size_t row, std::size_t col) const;

    /** rho -> U rho U^dagger for a 1-qubit unitary on @p q. */
    void apply1q(const std::array<Complex, 4> &m, int q);

    /** rho -> U rho U^dagger for a 2-qubit unitary on (q0, q1);
     *  operand 0 is the most-significant factor. */
    void apply2q(const std::array<Complex, 16> &m, int q0, int q1);

    /** Apply a named unitary gate. */
    void applyGate(circuit::OpKind kind, const std::vector<int> &qubits,
                   const std::vector<double> &params);

    /** rho -> sum_k K_k rho K_k^dagger for a 1-qubit Kraus set. */
    void applyKraus1q(const Kraus1q &kraus, int q);

    /** Apply the 1-qubit channel @p s to qubit @p q. */
    void applySuperop1q(const Superop1q &s, int q);

    /** Two-qubit depolarizing channel with probability @p p. */
    void applyDepolarizing2q(double p, int q0, int q1);

    /**
     * rho -> D_p(U rho U^dagger): the 2-qubit unitary @p m on (q0, q1)
     * followed by the 2-qubit depolarizing channel of strength @p p
     * (the 15 non-identity Paulis, each with probability p/15), in one
     * pass over the 4x4 blocks.
     */
    void apply2qDepolarizing(const std::array<Complex, 16> &m, double p,
                             int q0, int q1);

    /** Diagonal (basis-state probabilities). */
    std::vector<double> probabilities() const;

    /** Trace (should stay 1 within rounding). */
    double trace() const;

    /** Purity Tr(rho^2); 1 for pure states. */
    double purity() const;

  private:
    int numQubits_;
    std::size_t dim_;
    std::vector<Complex> rho_;
};

/**
 * Exact classical-outcome distribution of @p tape: one density matrix
 * per interaction component, evolved through every op with every
 * channel applied in full (1-qubit runs fused per qubit, each 2-qubit
 * op and its depolarizing channel in one pass), the product of their
 * diagonals projected onto the measured clbits, then the readout
 * confusion of @p cal and the tape's correlated pair flips.
 *
 * Hard limit: at most 10 *active* qubits (one component may span
 * them all, and its density matrix is dense over 4^n entries).
 * Exceeding it throws UserError with the offending count.
 */
ExactOutcomes exactOutcomes(const ExecutionTape &tape,
                            const hw::Calibration &cal);

} // namespace qedm::sim
