#include "sim/density_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "stats/distribution.hpp"

namespace qedm::sim {

namespace {

/** a * b, written out: std::complex's operator* adds a NaN-recovery
 *  branch per product that the block kernels do not need. */
inline Complex
mul(const Complex &a, const Complex &b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** sum_k row[k] * v[k] over four terms. */
inline Complex
dot4(const Complex *row, const Complex *v)
{
    return mul(row[0], v[0]) + mul(row[1], v[1]) + mul(row[2], v[2]) +
           mul(row[3], v[3]);
}

/** The zero-bit index for group @p g: @p g with a 0 spliced in at
 *  each bit of @p lo then @p hi (lo < hi, single-bit masks). */
inline std::size_t
spliceZeros(std::size_t g, std::size_t lo, std::size_t hi)
{
    g = ((g & ~(lo - 1)) << 1) | (g & (lo - 1));
    return ((g & ~(hi - 1)) << 1) | (g & (hi - 1));
}

/** (K (x) I) * u or (I (x) K) * u for a 1-qubit @p k on 2-qubit
 *  operand @p operand (0 = most-significant factor). */
std::array<Complex, 16>
kick(const std::array<Complex, 16> &u, const std::array<Complex, 4> &k,
     int operand)
{
    // Row r of the product mixes the two rows of u that differ from r
    // only in the kicked operand's bit.
    const std::size_t shift = operand == 0 ? 1 : 0;
    const std::size_t mask = std::size_t(1) << shift;
    std::array<Complex, 16> out{};
    for (std::size_t r = 0; r < 4; ++r) {
        const std::size_t bit = (r >> shift) & 1;
        for (std::size_t b = 0; b < 2; ++b) {
            const std::size_t src = (r & ~mask) | (b << shift);
            const Complex f = k[bit * 2 + b];
            for (std::size_t c = 0; c < 4; ++c)
                out[r * 4 + c] += mul(f, u[src * 4 + c]);
        }
    }
    return out;
}

/**
 * Per-bit readout confusion on a classical distribution, in place:
 * outcomes pair up as (o, o^bit), and each pair exchanges mass
 * independently of every other pair, lower-index source first.
 */
void
applyBitConfusion(stats::Distribution &dist, int bit, double p01,
                  double p10)
{
    const std::size_t n = dist.size();
    const std::size_t mask = std::size_t(1) << bit;
    for (std::size_t o = 0; o < n; ++o) {
        if (o & mask)
            continue;
        const double p0 = dist.prob(o);
        const double p1 = dist.prob(o | mask);
        dist.setProb(o, p0 * (1.0 - p01) + p1 * p10);
        dist.setProb(o | mask, p0 * p01 + p1 * (1.0 - p10));
    }
}

/** A joint two-bit flip channel on a classical distribution, in place
 *  (outcomes pair up under the flip involution). */
void
applyJointFlip(stats::Distribution &dist, int bit_a, int bit_b, double p)
{
    if (p <= 0.0)
        return;
    const std::size_t n = dist.size();
    for (std::size_t o = 0; o < n; ++o) {
        const Outcome f = flipBit(flipBit(o, bit_a), bit_b);
        if (f <= o)
            continue; // visit each pair once, from its lower index
        const double po = dist.prob(o);
        const double pf = dist.prob(f);
        dist.setProb(o, po * (1.0 - p) + pf * p);
        dist.setProb(f, po * p + pf * (1.0 - p));
    }
}

/**
 * The connected components of the tape's 2-qubit interaction graph.
 * Each local qubit maps to a component and to its index inside that
 * component's register; a component lists its qubits ascending, so
 * local index s of component c is bit s of c's basis states.
 */
struct Components
{
    std::vector<int> of;                 ///< component of each qubit
    std::vector<int> slot;               ///< index inside it
    std::vector<std::vector<int>> qubits; ///< qubits of each, ascending
};

Components
interactionComponents(const ExecutionTape &tape)
{
    const auto n = static_cast<std::size_t>(tape.numLocal);
    std::vector<int> parent(n);
    for (std::size_t q = 0; q < n; ++q)
        parent[q] = static_cast<int>(q);
    const auto find = [&](int q) {
        while (parent[static_cast<std::size_t>(q)] != q) {
            auto &up = parent[static_cast<std::size_t>(q)];
            up = parent[static_cast<std::size_t>(up)]; // path halving
            q = up;
        }
        return q;
    };
    for (const TapeOp &op : tape.ops) {
        if (op.l1 >= 0)
            parent[static_cast<std::size_t>(find(op.l0))] = find(op.l1);
    }
    Components c;
    c.of.assign(n, 0);
    c.slot.assign(n, 0);
    std::vector<int> id_of_root(n, -1);
    for (std::size_t q = 0; q < n; ++q) {
        int &id = id_of_root[static_cast<std::size_t>(
            find(static_cast<int>(q)))];
        if (id < 0) {
            id = static_cast<int>(c.qubits.size());
            c.qubits.emplace_back();
        }
        auto &members = c.qubits[static_cast<std::size_t>(id)];
        c.of[q] = id;
        c.slot[q] = static_cast<int>(members.size());
        members.push_back(static_cast<int>(q));
    }
    return c;
}

/**
 * Basis-state probabilities of the tape's local register. Only 2-qubit
 * ops couple qubits (crosstalk is a 1-qubit kick on the spectator and
 * correlated readout acts on the classical table), so the state stays
 * a product over the interaction components: each component evolves
 * its own density matrix and the register's diagonal is the product
 * of theirs. Each qubit keeps one pending superoperator that absorbs
 * its 1-qubit gates, kicks and channels in order; it reaches its
 * component's matrix only when a 2-qubit op needs the qubit, or at the
 * end. Pending channels on different qubits commute, so deferring them
 * is exact.
 */
std::vector<double>
evolveTape(const ExecutionTape &tape)
{
    const auto n = static_cast<std::size_t>(tape.numLocal);
    const Components comp = interactionComponents(tape);
    std::vector<DensityMatrix> rhos;
    rhos.reserve(comp.qubits.size());
    for (const auto &members : comp.qubits)
        rhos.emplace_back(static_cast<int>(members.size()));
    const auto rhoOf = [&](int q) -> DensityMatrix & {
        return rhos[static_cast<std::size_t>(
            comp.of[static_cast<std::size_t>(q)])];
    };
    const auto slotOf = [&](int q) {
        return comp.slot[static_cast<std::size_t>(q)];
    };
    std::vector<Superop1q> pending(n);
    std::vector<char> dirty(n, 0);
    const auto queue = [&](const Superop1q &s, int q) {
        const auto i = static_cast<std::size_t>(q);
        pending[i] = dirty[i] ? superopThen(pending[i], s) : s;
        dirty[i] = 1;
    };
    const auto flush = [&](int q) {
        const auto i = static_cast<std::size_t>(q);
        if (dirty[i]) {
            rhoOf(q).applySuperop1q(pending[i], slotOf(q));
            dirty[i] = 0;
        }
    };

    for (const TapeOp &op : tape.ops) {
        for (const auto &[local, kraus] : op.preRelaxation)
            queue(superopOf(kraus), local);
        if (op.l1 < 0) {
            queue(superopOf(op.gate1q), op.l0);
            if (op.overRotation != 0.0)
                queue(superopOf(op.overRotationMat), op.l0);
            if (op.depolProb > 0.0)
                queue(superopOf(depolarizing1q(op.depolProb)), op.l0);
        } else {
            flush(op.l0);
            flush(op.l1);
            // The op's local kicks fold into its unitary; the 2-qubit
            // depolarizing channel commutes with every unitary on its
            // operands (and trivially with the spectator kicks), so
            // one block pass after the folded unitary is exact.
            std::array<Complex, 16> u = op.gate2q;
            if (op.overRotation != 0.0)
                u = kick(u, op.overRotationMat, 1);
            if (op.controlPhase != 0.0)
                u = kick(u, op.controlPhaseMat, 0);
            for (const auto &[spectator, k] : op.crosstalk) {
                if (spectator == op.l0)
                    u = kick(u, k, 0);
                else if (spectator == op.l1)
                    u = kick(u, k, 1);
                else
                    queue(superopOf(k), spectator);
            }
            rhoOf(op.l0).apply2qDepolarizing(u, op.depolProb,
                                             slotOf(op.l0), slotOf(op.l1));
        }
        for (const auto &[local, kraus] : op.relaxation)
            queue(superopOf(kraus), local);
    }
    for (const auto &m : tape.measures) {
        for (const auto &kraus : m.relaxation)
            queue(superopOf(kraus), m.local);
    }
    for (int q = 0; q < tape.numLocal; ++q)
        flush(q);

    std::vector<std::vector<double>> diags;
    diags.reserve(rhos.size());
    for (const DensityMatrix &rho : rhos)
        diags.push_back(rho.probabilities());
    std::vector<double> probs(std::size_t(1) << n);
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        double p = 1.0;
        for (std::size_t c = 0; c < diags.size(); ++c) {
            std::size_t index = 0;
            const auto &members = comp.qubits[c];
            for (std::size_t s = 0; s < members.size(); ++s)
                index |= ((basis >> members[s]) & 1) << s;
            p *= diags[c][index];
        }
        probs[basis] = p;
    }
    return probs;
}

} // namespace

Superop1q
superopOf(const std::array<Complex, 4> &unitary)
{
    Superop1q s{};
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l)
                    s[static_cast<std::size_t>((2 * i + j) * 4 + 2 * k +
                                               l)] =
                        mul(unitary[static_cast<std::size_t>(2 * i + k)],
                            std::conj(unitary[static_cast<std::size_t>(
                                2 * j + l)]));
    return s;
}

Superop1q
superopOf(const Kraus1q &kraus)
{
    QEDM_REQUIRE(!kraus.empty(), "empty Kraus set");
    Superop1q s = superopOf(kraus[0]);
    for (std::size_t k = 1; k < kraus.size(); ++k) {
        const Superop1q t = superopOf(kraus[k]);
        for (std::size_t i = 0; i < s.size(); ++i)
            s[i] += t[i];
    }
    return s;
}

Superop1q
superopThen(const Superop1q &first, const Superop1q &second)
{
    Superop1q s{};
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            Complex acc(0.0);
            for (std::size_t k = 0; k < 4; ++k)
                acc += mul(second[r * 4 + k], first[k * 4 + c]);
            s[r * 4 + c] = acc;
        }
    }
    return s;
}

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits), dim_(std::size_t(1) << num_qubits)
{
    QEDM_REQUIRE(num_qubits >= 1 && num_qubits <= 10,
                 "density matrices are limited to 10 qubits");
    rho_.assign(dim_ * dim_, Complex(0.0));
    rho_[0] = Complex(1.0);
}

Complex
DensityMatrix::at(std::size_t row, std::size_t col) const
{
    QEDM_REQUIRE(row < dim_ && col < dim_, "index out of range");
    return rho_[row * dim_ + col];
}

void
DensityMatrix::apply1q(const std::array<Complex, 4> &m, int q)
{
    applySuperop1q(superopOf(m), q);
}

void
DensityMatrix::applyKraus1q(const Kraus1q &kraus, int q)
{
    applySuperop1q(superopOf(kraus), q);
}

void
DensityMatrix::applySuperop1q(const Superop1q &s, int q)
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    const std::size_t m = std::size_t(1) << q;
    // Rows and columns both step over the 2x2 blocks (x, x|m): base
    // strides by 2m, the offset sweeps m consecutive blocks.
    for (std::size_t rb = 0; rb < dim_; rb += 2 * m) {
        for (std::size_t ro = 0; ro < m; ++ro) {
            Complex *r0 = rho_.data() + (rb + ro) * dim_;
            Complex *r1 = r0 + m * dim_;
            for (std::size_t cb = 0; cb < dim_; cb += 2 * m) {
                for (std::size_t c = cb; c < cb + m; ++c) {
                    const Complex v[4] = {r0[c], r0[c + m], r1[c],
                                          r1[c + m]};
                    r0[c] = dot4(&s[0], v);
                    r0[c + m] = dot4(&s[4], v);
                    r1[c] = dot4(&s[8], v);
                    r1[c + m] = dot4(&s[12], v);
                }
            }
        }
    }
}

void
DensityMatrix::apply2q(const std::array<Complex, 16> &m, int q0, int q1)
{
    apply2qDepolarizing(m, 0.0, q0, q1);
}

void
DensityMatrix::applyDepolarizing2q(double p, int q0, int q1)
{
    std::array<Complex, 16> identity{};
    for (std::size_t i = 0; i < 4; ++i)
        identity[i * 5] = Complex(1.0);
    apply2qDepolarizing(identity, p, q0, q1);
}

void
DensityMatrix::apply2qDepolarizing(const std::array<Complex, 16> &m,
                                   double p, int q0, int q1)
{
    QEDM_REQUIRE(q0 >= 0 && q0 < numQubits_ && q1 >= 0 &&
                     q1 < numQubits_ && q0 != q1,
                 "invalid two-qubit operands");
    QEDM_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    const std::size_t lo = std::min(m0, m1);
    const std::size_t hi = std::max(m0, m1);
    // Block index k = 2 * bit(q0) + bit(q1), matching m's layout.
    const std::size_t off[4] = {0, m1, m0, m0 | m1};
    std::array<Complex, 16> mdag;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            mdag[c * 4 + r] = std::conj(m[r * 4 + c]);
    // (1-p) rho + p/15 sum_{P != I} P rho P = keep * rho + mix * Tr(rho) I
    // on each 4x4 block, because the 16 two-qubit Paulis average any
    // block to Tr(block) I / 4.
    const double keep = 1.0 - 16.0 * p / 15.0;
    const double mix = 4.0 * p / 15.0;

    const std::size_t groups = dim_ / 4;
    for (std::size_t gr = 0; gr < groups; ++gr) {
        const std::size_t r = spliceZeros(gr, lo, hi);
        Complex *rows[4];
        for (std::size_t i = 0; i < 4; ++i)
            rows[i] = rho_.data() + (r + off[i]) * dim_;
        for (std::size_t gc = 0; gc < groups; ++gc) {
            const std::size_t c = spliceZeros(gc, lo, hi);
            // t = m * block, stored transposed so each output column
            // of t is contiguous for the right multiply.
            Complex t[16];
            for (std::size_t j = 0; j < 4; ++j) {
                const Complex col[4] = {rows[0][c + off[j]],
                                        rows[1][c + off[j]],
                                        rows[2][c + off[j]],
                                        rows[3][c + off[j]]};
                for (std::size_t i = 0; i < 4; ++i)
                    t[j * 4 + i] = dot4(&m[i * 4], col);
            }
            // w = t * m^dagger: w[i][j] = sum_k t[i][k] mdag[k][j].
            Complex w[16];
            for (std::size_t i = 0; i < 4; ++i) {
                const Complex trow[4] = {t[0 * 4 + i], t[1 * 4 + i],
                                         t[2 * 4 + i], t[3 * 4 + i]};
                for (std::size_t j = 0; j < 4; ++j) {
                    const Complex mcol[4] = {mdag[0 * 4 + j],
                                             mdag[1 * 4 + j],
                                             mdag[2 * 4 + j],
                                             mdag[3 * 4 + j]};
                    w[i * 4 + j] = dot4(trow, mcol);
                }
            }
            if (p > 0.0) {
                const Complex tr =
                    rows[0][c + off[0]] + rows[1][c + off[1]] +
                    rows[2][c + off[2]] + rows[3][c + off[3]];
                for (Complex &x : w)
                    x *= keep;
                for (std::size_t i = 0; i < 4; ++i)
                    w[i * 5] += mix * tr;
            }
            for (std::size_t i = 0; i < 4; ++i)
                for (std::size_t j = 0; j < 4; ++j)
                    rows[i][c + off[j]] = w[i * 4 + j];
        }
    }
}

void
DensityMatrix::applyGate(circuit::OpKind kind,
                         const std::vector<int> &qubits,
                         const std::vector<double> &params)
{
    using circuit::OpKind;
    QEDM_REQUIRE(circuit::opIsUnitary(kind) && kind != OpKind::Barrier,
                 "applyGate expects a unitary gate");
    const int arity = circuit::opArity(kind);
    if (arity == 1) {
        apply1q(circuit::gateMatrix1q(kind, params), qubits[0]);
    } else if (arity == 2) {
        apply2q(circuit::gateMatrix2q(kind), qubits[0], qubits[1]);
    } else {
        throw UserError("applyGate: decompose 3-qubit gates first");
    }
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> p(dim_);
    for (std::size_t i = 0; i < dim_; ++i)
        p[i] = std::max(rho_[i * dim_ + i].real(), 0.0);
    return p;
}

double
DensityMatrix::trace() const
{
    double t = 0.0;
    for (std::size_t i = 0; i < dim_; ++i)
        t += rho_[i * dim_ + i].real();
    return t;
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_ij rho_ij * rho_ji = sum_ij |rho_ij|^2 for
    // Hermitian rho.
    double p = 0.0;
    for (const Complex &v : rho_)
        p += std::norm(v);
    return p;
}

ExactOutcomes
exactOutcomes(const ExecutionTape &tape, const hw::Calibration &cal)
{
    QEDM_REQUIRE(tape.numLocal <= 10,
                 "exact density-matrix simulation supports at most 10 "
                 "active qubits, circuit has " +
                     std::to_string(tape.numLocal) +
                     "; use trajectory sampling (Executor::run) for "
                     "larger circuits");
    const std::vector<double> probs = evolveTape(tape);

    // The table's register holds the measured clbits only, in
    // ascending clbit order, so table order is outcome order.
    std::vector<int> clbits;
    clbits.reserve(tape.measures.size());
    for (const auto &m : tape.measures)
        clbits.push_back(m.clbit);
    std::sort(clbits.begin(), clbits.end());
    const auto rank = [&](int clbit) {
        return static_cast<int>(
            std::lower_bound(clbits.begin(), clbits.end(), clbit) -
            clbits.begin());
    };

    stats::Distribution table(static_cast<int>(clbits.size()));
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        Outcome index = 0;
        for (const auto &m : tape.measures)
            index = setBit(index, rank(m.clbit), getBit(basis, m.local));
        table.addProb(index, probs[basis]);
    }
    for (const auto &m : tape.measures) {
        const auto &qc = cal.qubit(m.phys);
        if (qc.readoutP01 > 0.0 || qc.readoutP10 > 0.0)
            applyBitConfusion(table, rank(m.clbit), qc.readoutP01,
                              qc.readoutP10);
    }
    for (const auto &pr : tape.pairReadout)
        applyJointFlip(table, rank(pr.clbitA), rank(pr.clbitB),
                       pr.jointFlipProb);
    table.normalize();

    ExactOutcomes out;
    double acc = 0.0;
    for (Outcome index = 0; index < table.size(); ++index) {
        const double p = table.prob(index);
        if (p <= 0.0)
            continue;
        Outcome outcome = 0;
        for (std::size_t b = 0; b < clbits.size(); ++b)
            outcome = setBit(outcome, clbits[b],
                             getBit(index, static_cast<int>(b)));
        acc += p;
        out.outcomes.push_back(outcome);
        out.probs.push_back(p);
        out.cumulative.push_back(acc);
    }
    return out;
}

} // namespace qedm::sim
