//! The observer contract, enforced end to end for all three observers:
//! event tracing, continuous telemetry (metrics) and wait-cause
//! attribution (blame).
//!
//! 1. **Inertness** — every subset of observers, under both the
//!    per-cycle and the skip-ahead walk, simulates exactly what the
//!    observers-off per-cycle run does: same IPC, cycle counts,
//!    per-channel statistics (blame ledgers aside) and policy decisions.
//! 2. **Walk-invariance** — what each observer records (the trace log,
//!    the series, the blame budgets) is bit-identical across both walks.
//! 3. **Exactness** — each observer's own check: every trace category
//!    fires and the export is valid Chrome JSON; metrics windows tile
//!    the run at exact boundaries; blame budgets sum exactly to the
//!    latency histograms they decompose.
//!
//! All sixteen runs share one scenario and are computed once, as jobs
//! on the workspace's job runner; every test reads the shared table.
//! This is the observability analogue of
//! `tests/skip_ahead_differential.rs`: that test proves the accelerated
//! walk is invisible; this one proves the instrumentation is.

use std::sync::OnceLock;

use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::RelocationConfig;
use clr_dram::memsim::stats::MemStats;
use clr_dram::memsim::Executor;
use clr_dram::obs::{
    CategorySet, MetricsConfig, SloSpec, TraceCategory, TraceConfig, TraceLog, WaitCause,
    WindowMetric, WindowedObjective,
};
use clr_dram::policy::budget::BudgetSplit;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_dram::sim::system::{host_parallelism, RunConfig};
use clr_dram::trace::phase::PhaseShiftSpec;
use clr_dram::trace::workload::Workload;

/// Policy epoch length in DRAM cycles.
const EPOCH: u64 = 2_500;
/// Metrics window length: off the epoch grid, so a sampler boundary the
/// skip-ahead jump cap failed to honour cannot hide behind an epoch
/// boundary that clamps the jump anyway.
const INTERVAL: u64 = 2_000;

/// Which observers a run switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observers {
    trace: bool,
    metrics: bool,
    blame: bool,
}

const OFF: Observers = Observers {
    trace: false,
    metrics: false,
    blame: false,
};
const ALL: Observers = Observers {
    trace: true,
    metrics: true,
    blame: true,
};
const METRICS: Observers = Observers {
    metrics: true,
    ..OFF
};
const BLAME: Observers = Observers { blame: true, ..OFF };

impl Observers {
    /// All eight subsets.
    fn subsets() -> impl Iterator<Item = Observers> {
        (0..8u8).map(|b| Observers {
            trace: b & 1 != 0,
            metrics: b & 2 != 0,
            blame: b & 4 != 0,
        })
    }
}

/// The 2-channel cross-channel policy run that lights up every observer
/// at once: DRAM commands, background-migration lifecycles, policy
/// epochs, the frame rebalancer's placement events, demand-proportional
/// budgets and channel skew (so series and budgets carry nonzero
/// migration and conflict signals).
fn config(
    trace: Option<TraceConfig>,
    metrics: bool,
    blame: bool,
    skip_ahead: bool,
) -> PolicyRunConfig {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.relocation = RelocationConfig::background();
    mem.placement = DestinationPicker::CrossChannel;
    let base = RunConfig {
        skip_ahead,
        trace,
        metrics: metrics.then(|| MetricsConfig::every(INTERVAL)),
        blame,
        ..RunConfig::new(mem, policy_cluster(), 15_000, 1_000, 5)
    };
    PolicyRunConfig::new(
        base,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
        PolicyConstraints::with_budget(0.25),
        EPOCH,
    )
    .with_budget_split(BudgetSplit::demand_proportional())
}

fn run(cfg: PolicyRunConfig) -> PolicyRunResult {
    let spec = PhaseShiftSpec {
        footprint_mib: 1,
        accesses_per_phase: 800,
        ..PhaseShiftSpec::paper_default()
    }
    .with_channel_skew(2, 0);
    run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
}

fn trace_config(categories: CategorySet) -> TraceConfig {
    TraceConfig {
        categories,
        capacity: 1 << 20,
    }
}

/// Every run the tests compare, computed once.
struct Runs {
    /// One run per observer subset × {per-cycle, skip-ahead}.
    cells: Vec<((Observers, bool), PolicyRunResult)>,
    /// Metrics and blame on, tracing filtered to the policy category.
    policy_only: PolicyRunResult,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let keys: Vec<(Observers, bool)> = Observers::subsets()
            .flat_map(|o| [(o, false), (o, true)])
            .collect();
        let mut cfgs: Vec<PolicyRunConfig> = keys
            .iter()
            .map(|&(o, skip)| {
                let trace = o.trace.then(|| trace_config(CategorySet::all()));
                config(trace, o.metrics, o.blame, skip)
            })
            .collect();
        let policy_only = CategorySet::none().with(TraceCategory::Policy);
        cfgs.push(config(Some(trace_config(policy_only)), true, true, true));
        let tasks: Vec<_> = cfgs.into_iter().map(|c| move || run(c)).collect();
        let mut results = Executor::new(host_parallelism()).run_batch(tasks);
        let policy_only = results.pop().expect("filtered run");
        Runs {
            cells: keys.into_iter().zip(results).collect(),
            policy_only,
        }
    })
}

fn cell(obs: Observers, skip_ahead: bool) -> &'static PolicyRunResult {
    runs()
        .cells
        .iter()
        .find(|(key, _)| *key == (obs, skip_ahead))
        .map(|(_, r)| r)
        .expect("every subset × walk is in the table")
}

fn trace_log(obs: Observers, skip_ahead: bool) -> &'static TraceLog {
    cell(obs, skip_ahead)
        .run
        .trace
        .as_ref()
        .expect("traced run returns a log")
}

/// `m` with its blame ledgers (present only when blame is on) cleared.
fn strip(m: &MemStats) -> MemStats {
    let mut m = m.clone();
    m.read_blame.clear();
    m.write_blame.clear();
    m
}

/// Asserts the simulated outcome of two runs is bit-identical, blame
/// ledgers aside.
fn assert_same_outcome(a: &PolicyRunResult, b: &PolicyRunResult, what: &str) {
    assert_eq!(a.run.ipc, b.run.ipc, "IPC diverges: {what}");
    assert_eq!(a.run.cpu_cycles, b.run.cpu_cycles, "{what}");
    assert_eq!(a.run.dram_cycles, b.run.dram_cycles, "{what}");
    assert_eq!(
        strip(&a.run.mem),
        strip(&b.run.mem),
        "fused statistics diverge: {what}"
    );
    assert_eq!(a.run.mem_per_channel.len(), b.run.mem_per_channel.len());
    for (x, y) in a.run.mem_per_channel.iter().zip(&b.run.mem_per_channel) {
        assert_eq!(strip(x), strip(y), "per-channel statistics diverge: {what}");
    }
    assert_eq!(a.rows_remapped, b.rows_remapped, "{what}");
    assert_eq!(a.final_hp_fraction, b.final_hp_fraction, "{what}");
    assert_eq!(
        a.policy_stats_per_channel, b.policy_stats_per_channel,
        "{what}"
    );
}

#[test]
fn every_observer_subset_is_inert_at_both_walks() {
    let oracle = cell(OFF, false);
    for ((obs, skip_ahead), r) in &runs().cells {
        let what = format!("{obs:?} skip_ahead={skip_ahead}");
        assert_same_outcome(oracle, r, &what);
        // Each observer's output exists exactly when it is on.
        assert_eq!(r.run.trace.is_some(), obs.trace, "{what}");
        assert_eq!(r.run.metrics.is_some(), obs.metrics, "{what}");
        assert_eq!(r.policy_series.is_some(), obs.metrics, "{what}");
        if obs.blame {
            assert!(!r.run.mem.read_blame.is_empty(), "{what}");
        } else {
            assert!(r.run.mem.read_blame.is_empty(), "{what}");
            assert!(r.run.mem.write_blame.is_empty(), "{what}");
        }
    }
}

/// Switching one observer on, alongside any other observers and under
/// either walk, changes no simulated outcome. Implied by the oracle
/// matrix above, but a failure here names the observer at fault.
fn assert_switch_is_inert(switch_off: fn(Observers) -> Observers) {
    for ((obs, skip_ahead), on) in &runs().cells {
        let off = switch_off(*obs);
        if off != *obs {
            let what = format!("{obs:?} vs {off:?} skip_ahead={skip_ahead}");
            assert_same_outcome(cell(off, *skip_ahead), on, &what);
        }
    }
}

#[test]
fn tracing_changes_no_simulated_outcome() {
    assert_switch_is_inert(|o| Observers { trace: false, ..o });
}

#[test]
fn metrics_change_no_simulated_outcome_at_any_walk_level() {
    assert_switch_is_inert(|o| Observers {
        metrics: false,
        ..o
    });
}

#[test]
fn blame_changes_no_simulated_outcome_at_any_walk_level() {
    assert_switch_is_inert(|o| Observers { blame: false, ..o });
}

#[test]
fn skip_profile_depends_only_on_walk_and_metrics() {
    // Trace and blame never move the walk. Metrics windows are
    // exact-cycle boundaries the jump cap clamps to, so the profile is
    // compared only between subsets with the same metrics setting.
    for ((obs, skip_ahead), r) in &runs().cells {
        let base = cell(if obs.metrics { METRICS } else { OFF }, *skip_ahead);
        assert_eq!(
            base.run.skip_profile, r.run.skip_profile,
            "{obs:?} skip_ahead={skip_ahead}"
        );
    }
    assert_ne!(
        cell(METRICS, true).run.skip_profile,
        cell(OFF, true).run.skip_profile,
        "off-grid metrics windows must clamp some skip-ahead jump"
    );
    // The skip-ahead walk saw real jumps with attributed sources.
    let p = &cell(ALL, true).run.skip_profile;
    assert!(p.jumps.count() > 0, "the walk must have jumped");
    assert!(p.skipped_cycles > 0 && p.ticked_cycles > 0);
    assert_eq!(p.triggers.iter().sum::<u64>(), p.jumps.count());
    assert!(p.jump_coverage() > 0.0 && p.jump_coverage() < 1.0);
}

// --- Tracing ---

#[test]
fn tracing_lights_every_category() {
    // Metrics contribute the counter tracks and blame the tail-request
    // spans, so the all-observers run lights up every category.
    let log = trace_log(ALL, true);
    for cat in TraceCategory::ALL {
        assert!(
            log.count(cat) > 0,
            "no {} events captured — the scenario must light up every category",
            cat.label()
        );
    }
    // Events arrive sorted, as the viewers expect.
    assert!(log
        .events
        .windows(2)
        .all(|w| (w[0].ts, w[0].pid) <= (w[1].ts, w[1].pid)));
}

#[test]
fn trace_logs_are_bit_identical_across_walks() {
    for obs in Observers::subsets().filter(|o| o.trace) {
        let a = trace_log(obs, false);
        let b = trace_log(obs, true);
        assert!(!a.events.is_empty(), "{obs:?}");
        assert_eq!(a.events.len(), b.events.len(), "{obs:?}: event counts");
        for (i, (x, y)) in a.events.iter().zip(&b.events).enumerate() {
            assert_eq!(x, y, "{obs:?}: event {i} diverges");
        }
        assert_eq!(a.dropped, b.dropped, "{obs:?}");
    }
}

#[test]
fn category_filter_restricts_the_log() {
    let r = &runs().policy_only;
    let log = r.run.trace.as_ref().expect("traced run returns a log");
    assert!(log.count(TraceCategory::Policy) > 0);
    // Metrics were recorded (the series exist) but the category filter
    // keeps their counter tracks out of the log, like every other category.
    assert!(r.run.metrics.is_some());
    for cat in TraceCategory::ALL {
        if cat != TraceCategory::Policy {
            assert_eq!(log.count(cat), 0, "{} passed the filter", cat.label());
        }
    }
}

#[test]
fn chrome_trace_json_is_valid_and_complete() {
    let log = trace_log(ALL, true);
    let json = log.to_chrome_json();
    let value = parse_json(&json).expect("export must be valid JSON");
    // Structural checks a viewer relies on.
    let Json::Object(top) = value else {
        panic!("top level must be an object");
    };
    let Some(Json::Array(events)) = lookup(&top, "traceEvents") else {
        panic!("traceEvents array missing");
    };
    // Flow events (tail-request spans) export as a begin/end pair, so
    // the JSON carries one extra object per flow in the log.
    let flows = log.events.iter().filter(|e| e.flow_id.is_some()).count();
    assert!(flows > 0, "the contention scenario must sample tail reads");
    assert_eq!(events.len(), log.events.len() + flows);
    for e in events {
        let Json::Object(fields) = e else {
            panic!("event must be an object");
        };
        for key in ["name", "cat", "ph", "ts", "pid", "tid", "args"] {
            assert!(lookup(fields, key).is_some(), "event missing {key:?}");
        }
        match lookup(fields, "ph") {
            Some(Json::String(ph)) if ph == "X" => {
                assert!(lookup(fields, "dur").is_some(), "span without dur")
            }
            Some(Json::String(ph)) if ph == "i" => {
                assert!(lookup(fields, "s").is_some(), "instant without scope")
            }
            Some(Json::String(ph)) if ph == "C" => {
                assert!(lookup(fields, "dur").is_none(), "counter with dur");
                let Some(Json::Object(args)) = lookup(fields, "args") else {
                    panic!("counter without args object");
                };
                assert!(!args.is_empty(), "counter with no series values");
            }
            Some(Json::String(ph)) if ph == "b" || ph == "e" => {
                assert!(lookup(fields, "id").is_some(), "flow event without id")
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    // The metrics layer contributed real counter tracks.
    assert!(
        log.events.iter().any(|e| e.counter),
        "no counter-track events in the merged log"
    );
    assert!(lookup(&top, "displayTimeUnit").is_some());
}

#[test]
fn empty_trace_log_serializes_validly() {
    let json = TraceLog::default().to_chrome_json();
    let v = parse_json(&json).expect("empty log must still be valid JSON");
    let Json::Object(top) = v else {
        panic!("top level must be an object");
    };
    let Some(Json::Array(events)) = lookup(&top, "traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(events.is_empty());
}

// --- Metrics ---

#[test]
fn series_are_bit_identical_across_walks() {
    for o in Observers::subsets().filter(|o| o.metrics) {
        let per_cycle = cell(o, false);
        let skip = cell(o, true);
        let a = per_cycle.run.metrics.as_ref().unwrap();
        let b = skip.run.metrics.as_ref().unwrap();
        assert_eq!(
            a.per_channel, b.per_channel,
            "{o:?}: per-cycle vs skip-ahead series diverge"
        );
        assert_eq!(a.system(), b.system(), "{o:?}");
        assert_eq!(per_cycle.policy_series, skip.policy_series, "{o:?}");
        // Tracing leaves the series alone.
        let untraced = cell(Observers { trace: false, ..o }, true);
        assert_eq!(
            untraced.run.metrics.as_ref().unwrap().per_channel,
            b.per_channel,
            "{o:?}: tracing moved the series"
        );
    }
}

#[test]
fn windows_tile_the_run_at_exact_boundaries() {
    let r = cell(METRICS, true);
    let m = r.run.metrics.as_ref().unwrap();
    assert_eq!(m.interval_cycles, INTERVAL);
    assert_eq!(m.per_channel.len(), 2);
    for series in &m.per_channel {
        assert!(series.len() >= 2, "run must span several windows");
        let windows: Vec<_> = series.windows().collect();
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            // Every window except the final partial one has exactly the
            // configured length, and consecutive windows tile with no
            // gaps — the boundary fired at the exact cycle.
            if i + 1 < windows.len() {
                assert_eq!(w.cycles(), INTERVAL, "window {i} off-boundary");
                assert_eq!(w.end_cycle, windows[i + 1].start_cycle);
            } else {
                assert!(w.cycles() <= INTERVAL);
            }
        }
        // The series totals reconcile with eviction accounting.
        let live: u64 = series.windows().map(|w| w.counters.reads).sum();
        assert_eq!(series.evicted_totals().reads + live, series.totals().reads);
    }

    // The windowed counters fuse to the whole-run channel activity:
    // metrics cover warmup too, so the totals bound the measurement
    // window's statistics from above.
    let fused = m.system();
    assert!(fused.totals().reads >= r.run.mem.reads);
    assert!(fused.totals().migration_jobs >= r.run.mem.migration_jobs_completed);
    assert!(
        fused.totals().migration_jobs > 0,
        "scenario must migrate in background"
    );
    assert!(fused.total_latency().count() > 0);

    // The policy series anchors one window per epoch boundary.
    let ps = r.policy_series.as_ref().unwrap();
    assert!(!ps.is_empty());
    assert!(ps.totals().mode_transitions > 0);
    for w in ps.windows() {
        assert_eq!(w.end_cycle % EPOCH, 0, "epoch off-boundary");
    }
}

#[test]
fn slo_spec_evaluates_the_scenario_series() {
    let system = cell(METRICS, true).run.metrics.as_ref().unwrap().system();

    // The background-relocation scenario never stalls, so a hard
    // zero-stall objective must pass; an absurdly tight latency bound
    // must fail and name its worst window.
    let mut spec = SloSpec::named("observer-inertness-smoke");
    spec.windowed
        .push(WindowedObjective::hard(WindowMetric::StallCycles, 0));
    let report = spec.evaluate(&system);
    assert!(report.pass(), "background relocation must never stall");
    assert_eq!(report.windows, system.len() as u64);

    let mut tight = SloSpec::named("impossible");
    tight
        .windowed
        .push(WindowedObjective::hard(WindowMetric::ReadP99, 0));
    let bad = tight.evaluate(&system);
    assert!(!bad.pass(), "a zero-latency bound cannot hold");
    assert!(bad.objectives[0].violations > 0);
    assert!(bad.objectives[0].worst_value > 0);

    // Determinism: evaluating twice yields the same report.
    assert_eq!(spec.evaluate(&system), spec.evaluate(&system));
}

// --- Blame ---

#[test]
fn budgets_sum_exactly_to_latency_at_any_walk_level() {
    for ((obs, skip_ahead), on) in runs().cells.iter().filter(|((o, _), _)| o.blame) {
        let what = format!("{obs:?} skip_ahead={skip_ahead}");
        let mem = &on.run.mem;
        // Fused and per-channel: every waited cycle charged exactly once.
        for (ch, m) in std::iter::once(mem)
            .chain(&on.run.mem_per_channel)
            .enumerate()
        {
            let scope = if ch == 0 {
                "fused".to_string()
            } else {
                format!("channel {}", ch - 1)
            };
            assert_eq!(
                m.read_blame.total_cycles(),
                m.read_latency_hist.sum(),
                "{scope} read budget leaks cycles: {what}"
            );
            assert_eq!(
                m.write_blame.total_cycles(),
                m.write_latency_hist.sum(),
                "{scope} write budget leaks cycles: {what}"
            );
        }
        // One settle per completed request: the Service histogram has
        // exactly one sample per read.
        assert_eq!(
            mem.read_blame.of(WaitCause::Service).count(),
            mem.read_latency_hist.count(),
            "{what}"
        );
        // Reads always pay a service tail; the scenario's contention
        // must surface at least one non-service wait cause.
        assert!(mem.read_blame.of(WaitCause::Service).sum() > 0);
        let waits = mem
            .read_blame
            .dominant()
            .iter()
            .filter(|(c, _)| *c != WaitCause::Service)
            .count();
        assert!(
            waits > 0,
            "contention scenario must blame real waits: {what}"
        );
    }
}

#[test]
fn budgets_are_bit_identical_across_walks() {
    // Every blame-on run — either walk, with or without trace and
    // metrics — charges the same budgets as the per-cycle blame-only run.
    let reference = cell(BLAME, false);
    for ((obs, skip_ahead), r) in runs().cells.iter().filter(|((o, _), _)| o.blame) {
        let what = format!("{obs:?} skip_ahead={skip_ahead}");
        for cause in WaitCause::ALL {
            assert_eq!(
                reference.run.mem.read_blame.of(cause),
                r.run.mem.read_blame.of(cause),
                "read budgets diverge on {}: {what}",
                cause.label()
            );
            assert_eq!(
                reference.run.mem.write_blame.of(cause),
                r.run.mem.write_blame.of(cause),
                "write budgets diverge on {}: {what}",
                cause.label()
            );
        }
        assert_eq!(
            reference.run.mem_per_channel, r.run.mem_per_channel,
            "full per-channel statistics (budgets included) diverge: {what}"
        );
    }
}

// --- A minimal JSON syntax checker (the workspace has no JSON
// dependency, and the export must open in external viewers, so the test
// parses it from scratch rather than substring-matching). ---

#[derive(Debug)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    /// A number, `true`, `false` or `null`: checked, not kept.
    Scalar,
}

fn lookup<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    other => return Err(format!("bad object separator {other:?} at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    other => return Err(format!("bad array separator {other:?} at {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::String(parse_string(b, pos)?)),
        Some(b't' | b'f' | b'n') => {
            let word = [&b"true"[..], b"false", b"null"]
                .into_iter()
                .find(|w| b[*pos..].starts_with(w))
                .ok_or_else(|| format!("bad literal at {pos}"))?;
            *pos += word.len();
            Ok(Json::Scalar)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(|_| Json::Scalar)
                .ok_or_else(|| format!("bad number at {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc as char),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' | b'f' => out.push('?'),
                    b'u' => {
                        if *pos + 4 > b.len() {
                            return Err("short unicode escape".into());
                        }
                        *pos += 4;
                        out.push('?');
                    }
                    other => return Err(format!("bad escape {:?}", other as char)),
                }
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".into())
}
