//! `fleet`: `clr_fleet::run_fleet` over a synthesized smoke-scale roster
//! on one pool with a lane per host core — many tiny heterogeneous
//! instances plus their alone-run baselines, as whole-instance jobs. The
//! only workload that uses more than one thread.
//!
//! The traced run re-drives the batch from public calls — `run_instance`
//! per instance on an `Executor` of the same lane count, then
//! `FleetReport::fuse` — timing each instance and the fuse, and checks
//! that the JSON is byte-identical to `run_fleet`'s.

use std::time::Instant;

use clr_fleet::{run_fleet, run_instance, FleetReport, FleetSpec};
use clr_memsim::Executor;
use clr_sim::{host_parallelism, Scale};

use crate::json;
use crate::ledger::Ledger;
use crate::single::DramTotals;
use crate::util::{guarded, median, quantile, ratio, Fingerprint};
use crate::{Pass, Traced};

/// Instances in the roster.
const INSTANCES: usize = 1024;
const SCALE: Scale = Scale::Smoke;
/// Set-up repetitions per pass (the pass reports their median).
const SETUP_REPS: usize = 31;

/// Roster synthesis plus pool construction: the fleet's set-up.
fn setup(seed: u64, lanes: usize) -> (FleetSpec, f64) {
    let t = Instant::now();
    let spec = FleetSpec::synth(INSTANCES, seed, SCALE);
    let pool = Executor::new(lanes);
    let s = t.elapsed().as_secs_f64();
    drop(pool);
    (spec, s)
}

/// M instructions the roster's budgets ask for: every tenant's warmup
/// plus budget, in the shared run and, for multi-tenant instances, again
/// in its alone baseline.
fn roster_minsts(spec: &FleetSpec) -> f64 {
    spec.instances
        .iter()
        .map(|i| {
            let runs = if i.tenants.len() > 1 { 2 } else { 1 };
            (runs * i.tenants.len()) as f64 * (i.budget_insts + i.warmup_insts) as f64
        })
        .sum::<f64>()
        / 1e6
}

/// The output checks: the JSON parses, carries N instances, and its
/// fused read count equals the sum over instances.
fn check(report: &FleetReport, text: &str) -> Vec<String> {
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return vec![format!("fleet JSON does not parse: {e}")],
    };
    let mut bad = Vec::new();
    let n = doc.get("instances_n").and_then(json::Json::num);
    let listed = doc
        .get("instances")
        .and_then(json::Json::arr)
        .map(<[_]>::len);
    if n != Some(INSTANCES as f64) || listed != Some(INSTANCES) {
        bad.push(format!(
            "fleet JSON: instances_n {n:?}, {listed:?} listed, want {INSTANCES}"
        ));
    }
    let fused = doc
        .get("fleet")
        .and_then(|f| f.get("read_latency"))
        .and_then(|r| r.get("count"))
        .and_then(json::Json::num);
    let summed: u64 = report
        .instances
        .iter()
        .map(|i| i.mem.read_latency_hist.count())
        .sum();
    if fused != Some(summed as f64) {
        bad.push(format!(
            "fleet JSON: fused read count {fused:?} != instance sum {summed}"
        ));
    }
    bad
}

/// One pass; also returns the report, its JSON and the `run_fleet` wall.
fn run(seed: u64) -> (Pass, Option<(FleetReport, String)>, f64) {
    let lanes = host_parallelism();
    let mut pass = Pass::default();
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(seed, lanes).1).collect();
    let (spec, synth_s) = setup(seed, lanes);
    pass.setup_s = median(&setups);
    pass.attempted = INSTANCES as u64;
    pass.work = roster_minsts(&spec);
    let t = Instant::now();
    let result = guarded("run_fleet", || run_fleet(&spec, lanes));
    let fleet_s = t.elapsed().as_secs_f64();
    pass.wall_s = synth_s + fleet_s;
    pass.work_s = pass.wall_s - pass.setup_s;
    pass.manifest = vec![
        ("scale", SCALE.label().into()),
        ("instances", INSTANCES.to_string()),
        ("lanes_requested", lanes.to_string()),
    ];
    match result {
        Ok(report) => {
            let text = report.to_json();
            pass.failures = check(&report, &text);
            let mut fp = Fingerprint::default();
            fp.bytes(text.as_bytes());
            pass.fingerprint = fp.value();
            pass.manifest
                .push(("lanes_effective", report.pool_threads_effective.to_string()));
            (pass, Some((report, text)), fleet_s)
        }
        Err(e) => {
            // The batch propagates the first panic: every instance is lost.
            pass.failures = vec![e; INSTANCES];
            (pass, None, fleet_s)
        }
    }
}

/// One plain pass.
pub fn pass(seed: u64) -> Pass {
    run(seed).0
}

/// The plain pass, then the batch re-driven with per-instance spans.
pub fn traced(seed: u64) -> Traced {
    let (plain, reported, fleet_s) = run(seed);
    let lanes = host_parallelism();
    let spec = FleetSpec::synth(INSTANCES, seed, SCALE);
    let pool = Executor::new(lanes);
    let tasks: Vec<_> = spec
        .instances
        .iter()
        .cloned()
        .map(|inst| {
            move || {
                let t = Instant::now();
                let r = run_instance(&inst);
                (r, t.elapsed().as_secs_f64())
            }
        })
        .collect();
    let mut mismatches = Vec::new();
    let mut l = Ledger::default();
    let t = Instant::now();
    match guarded("fleet re-drive", || pool.run_batch(tasks)) {
        Ok(timed) => {
            let batch_s = t.elapsed().as_secs_f64();
            let inst_ms: Vec<f64> = timed.iter().map(|(_, s)| s * 1e3).collect();
            let busy_s: f64 = timed.iter().map(|(_, s)| s).sum();
            let instances = timed.into_iter().map(|(r, _)| r).collect();
            let t = Instant::now();
            let report = FleetReport::fuse(&spec, instances, lanes, pool.lanes());
            l.set("fleet.fuse_s", t.elapsed().as_secs_f64());
            l.set("fleet.instance_ms_p50", quantile(&inst_ms, 0.5));
            l.set("fleet.instance_ms_p99", quantile(&inst_ms, 0.99));
            l.set(
                "fleet.pool_busy_frac",
                ratio(busy_s, batch_s * pool.lanes() as f64),
            );
            l.set("traced.overhead_frac", ratio(batch_s, fleet_s) - 1.0);
            let mut dram = DramTotals::default();
            for i in &report.instances {
                dram.add_stats(&i.skip_profile, &i.mem);
            }
            dram.write(&mut l);
            match &reported {
                Some((_, text)) if *text == report.to_json() => {}
                Some(_) => mismatches.push("fleet re-drive: JSON differs from run_fleet".into()),
                None => {}
            }
        }
        Err(e) => mismatches.push(e),
    }
    Traced {
        plain,
        ledger: l,
        mismatches,
        attempted: INSTANCES as u64,
    }
}
