#include "hw/calibration.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace qedm::hw {
namespace {

double
clampProb(double p)
{
    return std::min(std::max(p, 1e-6), 0.45);
}

} // namespace

Calibration::Calibration(const Topology &topology)
    : qubits_(topology.numQubits()), edges_(topology.numEdges())
{
}

Calibration
Calibration::sample(const Topology &topology, const CalibrationSpec &spec,
                    Rng &rng)
{
    Calibration cal(topology);
    for (auto &q : cal.qubits_) {
        q.error1q =
            clampProb(spec.meanError1q * std::exp(spec.spread *
                                                  rng.normal()));
        const double base = spec.meanReadoutError /
                            (0.5 * (1.0 + spec.readoutBias));
        q.readoutP01 =
            clampProb(base * std::exp(spec.spread * rng.normal()));
        q.readoutP10 = clampProb(base * spec.readoutBias *
                                 std::exp(spec.spread * rng.normal()));
        q.t1Us = spec.meanT1Us * std::exp(0.3 * rng.normal());
        q.t2Us = std::min(spec.meanT2Us * std::exp(0.3 * rng.normal()),
                          2.0 * q.t1Us);
    }
    for (auto &e : cal.edges_) {
        e.cxError =
            clampProb(spec.meanCxError * std::exp(spec.spread *
                                                  rng.normal()));
    }
    return cal;
}

Calibration
Calibration::melbourne()
{
    return melbourne(Topology::melbourne());
}

Calibration
Calibration::melbourne(const Topology &topo)
{
    QEDM_REQUIRE(topo.numQubits() == 14 && topo.numEdges() == 18,
                 "the melbourne calibration needs the melbourne "
                 "topology");
    Calibration cal(topo);

    // Per-qubit tables modeled on typical ibmq-16-melbourne postings:
    // 1q error ~1e-3 with ~3x variation, readout 1.5%..10% for healthy
    // qubits, and the two pathological readout qubits Q11/Q12 (~20-30%)
    // called out in the paper's footnote 3.
    struct Row { double e1q, p01, p10, t1, t2; };
    const Row rows[14] = {
        // e1q      p01     p10     T1    T2
        {0.6e-3, 0.020, 0.036, 58.0, 24.0},  // Q0
        {1.6e-3, 0.028, 0.062, 46.0, 21.0},  // Q1
        {0.9e-3, 0.016, 0.030, 62.0, 40.0},  // Q2
        {0.7e-3, 0.032, 0.075, 71.0, 35.0},  // Q3
        {1.2e-3, 0.022, 0.048, 54.0, 28.0},  // Q4
        {2.3e-3, 0.040, 0.090, 38.0, 19.0},  // Q5
        {1.0e-3, 0.018, 0.034, 66.0, 33.0},  // Q6
        {1.4e-3, 0.026, 0.055, 43.0, 25.0},  // Q7
        {0.8e-3, 0.014, 0.026, 74.0, 42.0},  // Q8
        {1.1e-3, 0.024, 0.050, 51.0, 30.0},  // Q9
        {1.8e-3, 0.034, 0.080, 40.0, 22.0},  // Q10
        {2.8e-3, 0.110, 0.290, 31.0, 16.0},  // Q11 (bad readout)
        {2.5e-3, 0.090, 0.210, 34.0, 18.0},  // Q12 (bad readout)
        {1.3e-3, 0.021, 0.044, 57.0, 27.0},  // Q13
    };
    for (int q = 0; q < 14; ++q) {
        cal.qubits_[q].error1q = rows[q].e1q;
        cal.qubits_[q].readoutP01 = rows[q].p01;
        cal.qubits_[q].readoutP10 = rows[q].p10;
        cal.qubits_[q].t1Us = rows[q].t1;
        cal.qubits_[q].t2Us = rows[q].t2;
    }

    // Per-edge CX error; the paper reports SWAP (3 CX) error 8-11% on
    // average with up to 20x link-to-link variation.
    struct EdgeRow { int a, b; double cx; };
    const EdgeRow edge_rows[18] = {
        {0, 1, 0.019},  {1, 2, 0.032},  {2, 3, 0.024},  {3, 4, 0.017},
        {4, 5, 0.041},  {5, 6, 0.055},  {7, 8, 0.028},  {8, 9, 0.021},
        {9, 10, 0.035}, {10, 11, 0.068},{11, 12, 0.090},{12, 13, 0.074},
        {1, 13, 0.026}, {2, 12, 0.049}, {3, 11, 0.062}, {4, 10, 0.030},
        {5, 9, 0.038},  {6, 8, 0.023},
    };
    for (const auto &er : edge_rows) {
        const int idx = topo.edgeIndex(er.a, er.b);
        QEDM_REQUIRE(idx >= 0, "the melbourne calibration needs the "
                               "melbourne topology");
        cal.edges_[idx].cxError = er.cx;
    }
    return cal;
}

const QubitCalibration &
Calibration::qubit(int q) const
{
    QEDM_REQUIRE(q >= 0 && q < static_cast<int>(qubits_.size()),
                 "qubit index out of range");
    return qubits_[q];
}

QubitCalibration &
Calibration::qubit(int q)
{
    QEDM_REQUIRE(q >= 0 && q < static_cast<int>(qubits_.size()),
                 "qubit index out of range");
    return qubits_[q];
}

const EdgeCalibration &
Calibration::edge(std::size_t idx) const
{
    QEDM_REQUIRE(idx < edges_.size(), "edge index out of range");
    return edges_[idx];
}

EdgeCalibration &
Calibration::edge(std::size_t idx)
{
    QEDM_REQUIRE(idx < edges_.size(), "edge index out of range");
    return edges_[idx];
}

Calibration
Calibration::drifted(Rng &rng, double drift) const
{
    QEDM_REQUIRE(drift >= 0.0, "drift must be non-negative");
    Calibration out = *this;
    auto jitter = [&]() { return std::exp(drift * rng.normal()); };
    for (auto &q : out.qubits_) {
        q.error1q = clampProb(q.error1q * jitter());
        q.readoutP01 = clampProb(q.readoutP01 * jitter());
        q.readoutP10 = clampProb(q.readoutP10 * jitter());
        q.t1Us /= jitter();
        q.t2Us = std::min(q.t2Us / jitter(), 2.0 * q.t1Us);
    }
    for (auto &e : out.edges_)
        e.cxError = clampProb(e.cxError * jitter());
    return out;
}

Calibration
Calibration::staleJump(Rng &rng, double severity) const
{
    QEDM_REQUIRE(severity >= 0.0, "severity must be non-negative");
    Calibration out = *this;
    // One-sided jitter: rates only worsen, coherence only shrinks.
    auto worsen = [&]() {
        return std::exp(std::abs(severity * rng.normal()));
    };
    for (auto &q : out.qubits_) {
        q.error1q = clampProb(q.error1q * worsen());
        q.readoutP01 = clampProb(q.readoutP01 * worsen());
        q.readoutP10 = clampProb(q.readoutP10 * worsen());
        q.t1Us /= worsen();
        q.t2Us = std::min(q.t2Us / worsen(), 2.0 * q.t1Us);
    }
    for (auto &e : out.edges_)
        e.cxError = clampProb(e.cxError * worsen());
    return out;
}

double
Calibration::meanCxError() const
{
    if (edges_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &e : edges_)
        sum += e.cxError;
    return sum / static_cast<double>(edges_.size());
}

double
Calibration::meanReadoutError() const
{
    double sum = 0.0;
    for (const auto &q : qubits_)
        sum += q.readoutError();
    return sum / static_cast<double>(qubits_.size());
}

std::uint64_t
Calibration::fingerprint() const
{
    Fingerprint fp(0xCA1Bull);
    fp.add(std::uint64_t(qubits_.size()));
    for (const QubitCalibration &q : qubits_) {
        fp.add(q.error1q).add(q.readoutP01).add(q.readoutP10);
        fp.add(q.t1Us).add(q.t2Us);
    }
    fp.add(std::uint64_t(edges_.size()));
    for (const EdgeCalibration &e : edges_)
        fp.add(e.cxError);
    return fp.value();
}

} // namespace qedm::hw
