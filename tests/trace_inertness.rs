//! The tracing contract, enforced end to end: installing trace sinks
//! must change **no simulated outcome** — same IPC, same cycle counts,
//! same memory statistics per channel — while still capturing at least
//! one event in every enabled category, and the exported Chrome
//! trace-event JSON must be syntactically valid (checked by a small
//! recursive-descent parser, since the workspace is dependency-free).
//!
//! This is the observability analogue of
//! `tests/skip_ahead_differential.rs`: that test proves the accelerated
//! walk is invisible; this one proves the instrumentation is.

use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::RelocationConfig;
use clr_dram::obs::{CategorySet, MetricsConfig, TraceCategory, TraceConfig, TraceLog};
use clr_dram::policy::budget::BudgetSplit;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_dram::sim::system::RunConfig;
use clr_dram::trace::phase::PhaseShiftSpec;
use clr_dram::trace::workload::Workload;

/// A 2-channel cross-channel policy run — the configuration that lights
/// up every trace category at once: DRAM commands, background-migration
/// lifecycles, policy epochs, and the frame rebalancer's placement
/// events.
fn run(trace: Option<TraceConfig>) -> PolicyRunResult {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.relocation = RelocationConfig::background();
    mem.placement = DestinationPicker::CrossChannel;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: 15_000,
        warmup_insts: 1_000,
        seed: 5,
        skip_ahead: true,
        // Continuous telemetry rides along whenever tracing is on, so
        // the traced runs exercise both instrumentation layers at once
        // (and the Metrics category's counter tracks land in the log).
        metrics: trace.is_some().then(|| MetricsConfig::every(2_500)),
        trace,
        threads: 1,
        clamp_threads: true,
        // Attribution on in *both* runs (the differential stays
        // symmetric): tail-request flow spans carry the per-cause blame
        // budget in their args, so the `requests` category only lights
        // up when the ledger rides along.
        blame: true,
    };
    let cfg = PolicyRunConfig::new(
        base,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
        PolicyConstraints::with_budget(0.25),
        2_500,
    )
    .with_budget_split(BudgetSplit::demand_proportional());
    let spec = PhaseShiftSpec {
        footprint_mib: 1,
        accesses_per_phase: 800,
        ..PhaseShiftSpec::paper_default()
    }
    .with_channel_skew(2, 0);
    run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
}

fn all_categories() -> TraceConfig {
    TraceConfig {
        categories: CategorySet::all(),
        capacity: 1 << 20,
    }
}

#[test]
fn tracing_changes_no_simulated_outcome() {
    let off = run(None);
    let on = run(Some(all_categories()));
    // Bit-identical simulation: every observable the differential tests
    // compare for the skip-ahead walk must also survive tracing.
    assert_eq!(off.run.ipc, on.run.ipc, "IPC diverges under tracing");
    assert_eq!(off.run.cpu_cycles, on.run.cpu_cycles);
    assert_eq!(off.run.dram_cycles, on.run.dram_cycles);
    assert_eq!(off.run.mem, on.run.mem, "fused statistics diverge");
    assert_eq!(off.run.mem_per_channel, on.run.mem_per_channel);
    assert_eq!(off.rows_remapped, on.rows_remapped);
    assert_eq!(off.final_hp_fraction, on.final_hp_fraction);
    assert_eq!(off.policy_stats_per_channel, on.policy_stats_per_channel);
    // The profiler sees the same walk either way.
    assert_eq!(off.run.skip_profile, on.run.skip_profile);

    // The untraced run carries no log; the traced one captured at least
    // one event in *every* enabled category.
    assert!(off.run.trace.is_none());
    assert!(off.run.metrics.is_none());
    assert!(on.run.metrics.is_some(), "traced run carries metrics too");
    let log = on.run.trace.as_ref().expect("traced run returns a log");
    assert!(!log.events.is_empty());
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

    // The skip-ahead profile saw real jumps with attributed sources.
    let p = &on.run.skip_profile;
    assert!(p.jumps.count() > 0, "the walk must have jumped");
    assert!(p.skipped_cycles > 0 && p.ticked_cycles > 0);
    assert!(p.triggers.iter().sum::<u64>() == p.jumps.count());
    assert!(p.jump_coverage() > 0.0 && p.jump_coverage() < 1.0);
}

#[test]
fn category_filter_restricts_the_log() {
    let cfg = TraceConfig {
        categories: CategorySet::none().with(TraceCategory::Policy),
        capacity: 1 << 16,
    };
    let r = run(Some(cfg));
    let log = r.run.trace.as_ref().expect("traced run returns a log");
    assert!(log.count(TraceCategory::Policy) > 0);
    assert_eq!(log.count(TraceCategory::Commands), 0);
    assert_eq!(log.count(TraceCategory::Migration), 0);
    assert_eq!(log.count(TraceCategory::Placement), 0);
    // Metrics were recorded (the series exist) but the category filter
    // keeps their counter tracks out of the log.
    assert!(r.run.metrics.is_some());
    assert_eq!(log.count(TraceCategory::Metrics), 0);
}

#[test]
fn chrome_trace_json_is_valid_and_complete() {
    let r = run(Some(all_categories()));
    let log = r.run.trace.as_ref().expect("traced run returns a log");
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

// --- A minimal JSON syntax checker (the workspace has no JSON
// dependency, and the export must open in external viewers, so the test
// parses it from scratch rather than substring-matching). ---

#[derive(Debug)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    // The payloads only matter for Debug output on assertion failure.
    Number(#[allow(dead_code)] f64),
    Bool(#[allow(dead_code)] bool),
    Null,
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
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
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
                .and_then(|s| s.parse().ok())
                .map(Json::Number)
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
