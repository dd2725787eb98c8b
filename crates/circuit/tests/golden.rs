//! Bit-exact pins of the Table 1 measurement.
//!
//! The solver's speed-ups (linear stamps built once per step size, sparse
//! elimination, one high-performance run for both Table 1 columns) are
//! only allowed if every timing stays the same to the last bit. These pins
//! hold the `f64::to_bits` of every timing as the dense, restamp-every-
//! iteration engine produced it.

use clr_circuit::dram::Topology;
use clr_circuit::montecarlo::{perturb, worst_case_table1};
use clr_circuit::params::CircuitParams;
use clr_circuit::timing::{measure_mode, measure_table1, ModeTimings, Table1Measurement};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `measure_table1(&default_22nm())`: rows baseline, max-capacity, HP
/// without E.T., HP with E.T.; columns tRCD, tRAS, tRP, tWR.
#[rustfmt::skip]
const NOMINAL: [[u64; 4]; 4] = [
    [0x4030ca3d70a3d6bb, 0x40439851eb851f4f, 0x402c333333332db0, 0x402e1eb851eb89c8],
    [0x4030f0a3d70a3d20, 0x4044200000000079, 0x40208f5c28f5bf98, 0x402f51eb851ebd30],
    [0x4022bd70a3d709f8, 0x40378a3d70a3d7c0, 0x4020fae147ae16e2, 0x402e147ae147b008],
    [0x4022bd70a3d709f8, 0x402dd1eb851eb7ca, 0x4020fae147ae16e2, 0x401e70a3d70a3cde],
];

/// `worst_case_table1(&default_22nm(), 3, 7)`, laid out as [`NOMINAL`].
#[rustfmt::skip]
const WORST_3_SEED_7: [[u64; 4]; 4] = [
    [0x4032a3d70a3d7082, 0x404527ae147ae187, 0x402c8f5c28f5bcf8, 0x402fb851eb852314],
    [0x4032d99999999981, 0x4045b1eb851eb873, 0x4020bd70a3d7073c, 0x40306b851eb853de],
    [0x402423d70a3d7056, 0x4039266666666763, 0x40212e147ae14a1e, 0x402fa3d70a3d7327],
    [0x402423d70a3d7056, 0x402feb851eb85157, 0x40212e147ae14a1e, 0x401f7ae147ae140a],
];

fn bits(m: &Table1Measurement) -> [[u64; 4]; 4] {
    [m.baseline, m.max_capacity, m.hp_no_et, m.hp_et]
        .map(|t| [t.t_rcd_ns, t.t_ras_ns, t.t_rp_ns, t.t_wr_ns].map(f64::to_bits))
}

fn worst(a: ModeTimings, b: ModeTimings) -> ModeTimings {
    ModeTimings {
        t_rcd_ns: a.t_rcd_ns.max(b.t_rcd_ns),
        t_ras_ns: a.t_ras_ns.max(b.t_ras_ns),
        t_rp_ns: a.t_rp_ns.max(b.t_rp_ns),
        t_wr_ns: a.t_wr_ns.max(b.t_wr_ns),
    }
}

#[test]
fn nominal_table1_is_pinned() {
    let m = measure_table1(&CircuitParams::default_22nm());
    assert_eq!(bits(&m), NOMINAL, "{m:?}");
}

/// `worst_case_table1` shares one high-performance run between both E.T.
/// columns; rebuilding it from four independent `measure_mode` calls per
/// sample (the shape an external, per-column timing of the Monte-Carlo
/// loop takes) must give the same bits, and both must match the pin.
#[test]
fn worst_case_table1_is_pinned_and_equals_the_mode_fold() {
    let p = CircuitParams::default_22nm();
    let m = worst_case_table1(&p, 3, 7);
    assert_eq!(bits(&m), WORST_3_SEED_7, "{m:?}");

    let columns = [
        (Topology::OpenBitlineBaseline, false),
        (Topology::ClrMaxCapacity, false),
        (Topology::ClrHighPerformance, false),
        (Topology::ClrHighPerformance, true),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let folded = (0..3)
        .map(|_| {
            let sample = perturb(&p, &mut rng);
            columns.map(|(topology, et)| measure_mode(topology, &sample, et))
        })
        .reduce(|acc, cols| [0, 1, 2, 3].map(|k| worst(acc[k], cols[k])))
        .expect("three samples");
    let [baseline, max_capacity, hp_no_et, hp_et] = folded;
    let folded = Table1Measurement {
        baseline,
        max_capacity,
        hp_no_et,
        hp_et,
    };
    assert_eq!(bits(&folded), bits(&m));
}
