//! `circuit-mc`: Table 1 at a reduced Monte-Carlo count —
//! `clr_circuit::montecarlo::worst_case_table1`, the only workload that
//! enters `clr_circuit` (the transient solver).
//!
//! The traced run rebuilds each call as `perturb` + four `measure_mode`
//! calls + the worst-case fold, timing each, and checks that the
//! resulting `Table1Measurement` equals the entry point's.

use std::hint::black_box;
use std::time::Instant;

use clr_circuit::dram::{build, Topology};
use clr_circuit::montecarlo::{perturb, worst_case_table1};
use clr_circuit::params::CircuitParams;
use clr_circuit::timing::{measure_mode, ModeTimings, Table1Measurement};
use clr_core::paper::TABLE1;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::Ledger;
use crate::util::{guarded, median, quantile, Fingerprint};
use crate::{Pass, Traced};

/// Monte-Carlo iterations per `worst_case_table1` call.
const ITERATIONS: usize = 48;
/// Set-up samples per pass (the pass reports their median).
const SETUP_REPS: usize = 31;

/// The four (topology, early termination) columns of Table 1.
const MODES: [(Topology, bool); 4] = [
    (Topology::OpenBitlineBaseline, false),
    (Topology::ClrMaxCapacity, false),
    (Topology::ClrHighPerformance, false),
    (Topology::ClrHighPerformance, true),
];

/// Host seconds of the call's set-up: the nominal parameters plus the
/// subarray netlist of each column. Parameter construction alone takes
/// a few nanoseconds, too short to time steadily; the netlists are the
/// rest of the solver's input.
fn setup_sample() -> f64 {
    let t = Instant::now();
    let p = black_box(CircuitParams::default_22nm());
    for (topology, _) in MODES {
        black_box(build(topology, &p));
    }
    t.elapsed().as_secs_f64()
}

/// Mean |measured − paper| over the four Table 1 reductions, in
/// percentage points.
fn paper_gap_pp(m: &Table1Measurement) -> f64 {
    let (rcd, ras, rp, wr) = m.reductions();
    [rcd, ras, rp, wr]
        .iter()
        .zip(TABLE1.iter())
        .map(|(got, row)| (got - row.reduction).abs() * 100.0)
        .sum::<f64>()
        / 4.0
}

fn hash_table1(fp: &mut Fingerprint, m: &Table1Measurement) {
    for t in [m.baseline, m.max_capacity, m.hp_no_et, m.hp_et] {
        fp.f64s(&[t.t_rcd_ns, t.t_ras_ns, t.t_rp_ns, t.t_wr_ns]);
    }
}

/// One call; also returns the measurement.
fn run(seed: u64) -> (Pass, Option<Table1Measurement>) {
    let start = Instant::now();
    let mut pass = Pass::default();
    let samples: Vec<f64> = (0..SETUP_REPS).map(|_| setup_sample()).collect();
    pass.setup_s = median(&samples);
    let p = CircuitParams::default_22nm();
    pass.attempted = 1;
    let t = Instant::now();
    // `worst_case_table1` panics unless every iteration senses correctly
    // (the §7.1 criterion), so a clean return is that check passing.
    let result = guarded("worst_case_table1", || {
        worst_case_table1(&p, ITERATIONS, seed)
    });
    pass.work_s = t.elapsed().as_secs_f64();
    pass.work = ITERATIONS as f64;
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.manifest = vec![
        ("iterations", ITERATIONS.to_string()),
        ("lanes_requested", "1".into()),
        ("lanes_effective", "1".into()),
    ];
    match result {
        Ok(m) => {
            let mut fp = Fingerprint::default();
            hash_table1(&mut fp, &m);
            pass.fingerprint = fp.value();
            pass.paper_gap_pp = Some(paper_gap_pp(&m));
            (pass, Some(m))
        }
        Err(e) => {
            pass.failures.push(e);
            (pass, None)
        }
    }
}

/// One plain pass.
pub fn pass(seed: u64) -> Pass {
    run(seed).0
}

fn worst(a: ModeTimings, b: ModeTimings) -> ModeTimings {
    ModeTimings {
        t_rcd_ns: a.t_rcd_ns.max(b.t_rcd_ns),
        t_ras_ns: a.t_ras_ns.max(b.t_ras_ns),
        t_rp_ns: a.t_rp_ns.max(b.t_rp_ns),
        t_wr_ns: a.t_wr_ns.max(b.t_wr_ns),
    }
}

/// `worst_case_table1` rebuilt from `perturb` and `measure_mode`, with a
/// span around each; per-mode seconds in `mode_s`, every mode call's
/// milliseconds in `mode_ms`.
fn redrive(
    seed: u64,
    perturb_s: &mut f64,
    mode_s: &mut [f64; 4],
    mode_ms: &mut Vec<f64>,
) -> Table1Measurement {
    let p = CircuitParams::default_22nm();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc: Option<[ModeTimings; 4]> = None;
    for _ in 0..ITERATIONS {
        let t = Instant::now();
        let sample = perturb(&p, &mut rng);
        *perturb_s += t.elapsed().as_secs_f64();
        let cols = MODES.map(|(topology, et)| {
            let t = Instant::now();
            let m = measure_mode(topology, &sample, et);
            (m, t.elapsed().as_secs_f64())
        });
        for (k, (_, s)) in cols.iter().enumerate() {
            mode_s[k] += s;
            mode_ms.push(s * 1e3);
        }
        let cols = cols.map(|(m, _)| m);
        acc = Some(match acc {
            None => cols,
            Some(prev) => [0, 1, 2, 3].map(|k| worst(prev[k], cols[k])),
        });
    }
    let [baseline, max_capacity, hp_no_et, hp_et] = acc.expect("at least one iteration");
    Table1Measurement {
        baseline,
        max_capacity,
        hp_no_et,
        hp_et,
    }
}

/// The plain call, then its re-drive under spans.
pub fn traced(seed: u64) -> Traced {
    let (plain, measured) = run(seed);
    let mut perturb_s = 0.0;
    let mut mode_s = [0.0; 4];
    let mut mode_ms = Vec::new();
    let t = Instant::now();
    let redriven = guarded("circuit-mc re-drive", || {
        redrive(seed, &mut perturb_s, &mut mode_s, &mut mode_ms)
    });
    let redrive_s = t.elapsed().as_secs_f64();
    let mut mismatches = Vec::new();
    match (&redriven, &measured) {
        (Ok(r), Some(m)) if r != m => {
            mismatches.push(
                "circuit-mc re-drive: Table1Measurement differs from worst_case_table1".into(),
            );
        }
        (Err(e), _) => mismatches.push(e.clone()),
        _ => {}
    }
    let mut l = Ledger::default();
    l.set("circuit.perturb_s", perturb_s);
    l.set("circuit.baseline_s", mode_s[0]);
    l.set("circuit.max_capacity_s", mode_s[1]);
    l.set("circuit.hp_s", mode_s[2]);
    l.set("circuit.hp_et_s", mode_s[3]);
    l.set("circuit.mode_ms_p50", quantile(&mode_ms, 0.5));
    l.set("traced.overhead_frac", redrive_s / plain.work_s - 1.0);
    Traced {
        plain,
        ledger: l,
        mismatches,
        attempted: 1,
    }
}
