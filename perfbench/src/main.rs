//! End-to-end and per-layer benchmark of the CLR-DRAM simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs whole passes through the
//! simulator's public entry points until `--seconds` have elapsed, checks
//! every pass's outputs, and reports the medians of the end-to-end
//! metrics. With `--trace 1` it runs one plain pass, then re-drives the
//! same work through the crates' public functions with a host-time span
//! around each call into a layer, checks the re-drive against the plain
//! pass bit for bit, and reports the per-layer ledger (see [`ledger`]).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a human-readable report (manifest, simulated-output fingerprint,
//! every metric with its unit).

mod circuit;
mod fleet;
mod json;
mod ledger;
mod policy;
mod single;
mod util;

use std::time::Instant;

use ledger::Ledger;
use util::median;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper-single", "policy-contention", "fleet", "circuit-mc"];

/// One whole pass of a workload through its public entry points.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Host seconds outside simulation loops (see each workload).
    pub setup_s: f64,
    /// The workload's work in its own unit: M simulated instructions, or
    /// Monte-Carlo iterations on `circuit-mc`.
    pub work: f64,
    /// Host seconds the work took (the rate's denominator).
    pub work_s: f64,
    /// Operations attempted (runs, cells, instances or Monte-Carlo calls).
    pub attempted: u64,
    /// Operations that panicked or failed an output check.
    pub failures: Vec<String>,
    /// Mean |measured − paper| over the workload's paper targets, in
    /// percentage points (`None` where the paper has no such number).
    pub paper_gap_pp: Option<f64>,
    /// Stable hash of the pass's simulated outputs.
    pub fingerprint: u64,
    /// Workload-specific manifest entries (scale, lanes, ...).
    pub manifest: Vec<(&'static str, String)>,
}

/// What a workload's traced run produced.
pub struct Traced {
    /// The plain pass the re-drive was checked against.
    pub plain: Pass,
    /// The per-layer ledger.
    pub ledger: Ledger,
    /// Re-drive mismatches against the plain pass (each one a failure).
    pub mismatches: Vec<String>,
    /// Operations the re-drive attempted.
    pub attempted: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Removes every `CLR_*` variable from the process environment before
/// any simulator code runs. The benchmark builds each `RunConfig`
/// literally, but some library paths still consult the environment
/// (`CLR_TRACE`, `CLR_METRICS`, `CLR_THREADS`, `CLR_BLAME`, ...); a stray
/// variable on the runner must not change what is measured.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CLR_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn run_pass(workload: &str, seed: u64) -> Pass {
    match workload {
        "paper-single" => single::pass(seed),
        "policy-contention" => policy::pass(seed),
        "fleet" => fleet::pass(seed),
        "circuit-mc" => circuit::pass(seed),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn run_traced(workload: &str, seed: u64) -> Traced {
    match workload {
        "paper-single" => single::traced(seed),
        "policy-contention" => policy::traced(seed),
        "fleet" => fleet::traced(seed),
        "circuit-mc" => circuit::traced(seed),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
const E2E: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

fn main() {
    let scrubbed = scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = clr_sim::host_parallelism();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# manifest host_parallelism={host} env_scrubbed={scrubbed:?}");

    let (attempted, failures, metrics) = if args.trace {
        traced_run(&args)
    } else {
        plain_run(&args)
    };

    let failed = failures.len() as u64;
    for f in &failures {
        println!("# FAILED {f}");
    }
    println!(
        "# failed_frac {:.6} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                util::json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The ledger's per-workload name for `work_per_s`.
fn rate_metric(workload: &str) -> &'static str {
    if workload == "circuit-mc" {
        "mc_iters_per_s"
    } else {
        "sim_minsts_per_s"
    }
}

/// Whole passes while another fits in `--seconds` (at least one); the
/// medians of the end-to-end metrics.
fn plain_run(args: &Args) -> (u64, Vec<String>, Metrics) {
    let budget = args.seconds as f64;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_s: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        passes.push(run_pass(&args.workload, args.seed));
        pass_s.push(t.elapsed().as_secs_f64());
        // Start another pass only if a typical one still fits the budget.
        if start.elapsed().as_secs_f64() + median(&pass_s) > budget {
            break;
        }
    }
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let first = &passes[0];
    if passes.iter().any(|p| p.fingerprint != first.fingerprint) {
        failures.push("simulated outputs differ between passes of the same seed".into());
    }
    for (k, v) in &first.manifest {
        println!("# manifest {k}={v}");
    }
    println!("# fingerprint {} {:016x}", args.workload, first.fingerprint);
    for (k, p) in passes.iter().enumerate() {
        println!(
            "# pass {k}: wall_s={:.6} setup_s={:.6} work_per_s={:.6}",
            p.wall_s,
            p.setup_s,
            p.work / p.work_s
        );
    }

    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(|p| p.wall_s);
    let setup_s = med(|p| p.setup_s);
    let work_per_s = med(|p| p.work / p.work_s);
    let rss = peak_rss_mib();
    let rate = rate_metric(&args.workload);
    println!("# {rate} {work_per_s:.6} {}", ledger::spec(rate).unit);
    if let Some(gap) = first.paper_gap_pp {
        println!("# paper_gap_pp {gap:.6} pp");
    }
    let values = [wall_s, setup_s, work_per_s, rss];
    let metrics: Metrics = E2E
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    for (name, v, unit) in &metrics {
        println!("# {name} {v:.6} {unit}");
    }
    (attempted, failures, metrics)
}

/// One plain pass plus the traced re-drive; the per-layer ledger.
fn traced_run(args: &Args) -> (u64, Vec<String>, Metrics) {
    let t = run_traced(&args.workload, args.seed);
    let mut failures = t.plain.failures.clone();
    failures.extend(t.mismatches.iter().cloned());
    let attempted = t.plain.attempted + t.attempted;
    for (k, v) in &t.plain.manifest {
        println!("# manifest {k}={v}");
    }
    println!(
        "# fingerprint {} {:016x}",
        args.workload, t.plain.fingerprint
    );
    let mut ledger = t.ledger;
    ledger.set(
        "failed_frac",
        failures.len() as f64 / attempted.max(1) as f64,
    );
    if let Some(gap) = t.plain.paper_gap_pp {
        ledger.set("paper_gap_pp", gap);
    }
    ledger.set(rate_metric(&args.workload), t.plain.work / t.plain.work_s);
    println!(
        "# {:<34} {:>16} {:<8} {:<6} should move",
        "layer metric", "value", "unit", "better"
    );
    let metrics = ledger.into_metrics();
    for (name, v, unit) in &metrics {
        let m = ledger::spec(name);
        println!(
            "# {name:<34} {v:>16.6} {unit:<8} {:<6} {}",
            m.better, m.moves
        );
    }
    (attempted, failures, metrics)
}
