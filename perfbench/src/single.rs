//! `paper-single`: the Figure 12 sweep at default instruction budgets —
//! 71 single-core workloads × (baseline + 5 HP fractions) = 426
//! `clr_sim::run_workloads` calls on one channel, no policy, no
//! observers.
//!
//! The traced run rebuilds `run_workloads`' loop from the crates' public
//! calls with a host-time span around each, and checks that every call's
//! IPC, `MemStats` and skip profile equal the plain call's bit for bit.

use std::cell::Cell;
use std::time::Instant;

use clr_core::addr::PhysAddr;
use clr_core::mapping::{PagePlacement, PageProfile};
use clr_core::paper::HEADLINES;
use clr_cpu::cluster::{ClusterConfig, CpuCluster};
use clr_cpu::trace::{TraceItem, TraceSource};
use clr_memsim::config::MemConfig;
use clr_memsim::request::{Completion, MemRequest, RequestKind};
use clr_memsim::stats::MemStats;
use clr_memsim::system::MemorySystem;
use clr_obs::{LatencyHistogram, SkipProfile};
use clr_sim::experiment::{mem_config, FRACTIONS};
use clr_sim::translate::{tag_for_core, TranslatedTrace};
use clr_sim::{geomean, per_core_seed, run_workloads, RunConfig, RunResult, Scale};
use clr_trace::workload::{single_core_suite, Workload};

use crate::ledger::Ledger;
use crate::util::{guarded, quantile, ratio, Fingerprint};
use crate::{Pass, Traced};

const SCALE: Scale = Scale::Default;

/// 4 GHz cores over a 1200 MHz bus: 3 DRAM cycles per 10 CPU cycles.
const DRAM_PER_CPU_NUM: u64 = 3;
const DRAM_PER_CPU_DEN: u64 = 10;

/// The sweep's run configuration, built literally (no environment).
fn run_config(mem: MemConfig, seed: u64) -> RunConfig {
    RunConfig {
        mem,
        cluster: ClusterConfig::paper(),
        budget_insts: SCALE.budget_insts(),
        warmup_insts: SCALE.warmup_insts(),
        seed,
        skip_ahead: true,
        trace: None,
        metrics: None,
        threads: 1,
        clamp_threads: true,
        blame: false,
    }
}

/// Feeds a `MemStats` into the fingerprint by content: histograms by
/// their nonzero buckets (so lazily allocated empty storage cannot move
/// the hash), everything else by its `Debug` rendering.
pub fn hash_stats(fp: &mut Fingerprint, stats: &MemStats) {
    let mut s = stats.clone();
    let hists = [
        &mut s.read_latency_hist,
        &mut s.write_latency_hist,
        &mut s.migration_latency_hist,
    ]
    .into_iter()
    .chain(s.read_blame.hists.iter_mut())
    .chain(s.write_blame.hists.iter_mut());
    for h in hists {
        let taken = std::mem::take(h);
        fp.bytes(&[taken.count(), taken.sum()].map(u64::to_le_bytes).concat());
        for (upper, n) in taken.nonzero_buckets() {
            fp.bytes(&[upper, n].map(u64::to_le_bytes).concat());
        }
    }
    fp.debug(&s);
}

/// The simulated-time figures and walk/merge host time every traced
/// simulator workload reports from its plain runs.
#[derive(Default)]
pub struct DramTotals {
    profile: SkipProfile,
    row_hits: u64,
    row_accesses: u64,
    reads: LatencyHistogram,
    walk_s: f64,
    merge_s: f64,
}

impl DramTotals {
    /// Adds one run.
    pub fn add(&mut self, r: &RunResult) {
        self.add_stats(&r.skip_profile, &r.mem);
        self.walk_s += r.host_walk_s;
        self.merge_s += r.host_merge_s;
    }

    /// Adds one run's skip profile and statistics.
    pub fn add_stats(&mut self, profile: &SkipProfile, mem: &MemStats) {
        self.profile.merge(profile);
        self.row_hits += mem.row_hits;
        self.row_accesses += mem.row_hits + mem.row_misses + mem.row_conflicts;
        self.reads.merge(&mem.read_latency_hist);
    }

    /// Writes the `dram.*` and walk/merge metrics.
    pub fn write(&self, l: &mut Ledger) {
        let p = &self.profile;
        l.set("dram.cycles", p.total_cycles() as f64);
        l.set("dram.ticked_cycles", p.ticked_cycles as f64);
        l.set("dram.skipped_cycles", p.skipped_cycles as f64);
        l.set("dram.events_per_kcycle", p.events_per_kilocycle());
        l.set(
            "dram.row_hit_rate",
            ratio(self.row_hits as f64, self.row_accesses as f64),
        );
        l.set("dram.read_p99_cycles", self.reads.p99() as f64);
        l.set("memsim.walk_s", self.walk_s);
        l.set("memsim.merge_s", self.merge_s);
    }
}

/// Runs the sweep, handing every successful call to `each` (untimed).
fn sweep(seed: u64, mut each: impl FnMut(Workload, &RunConfig, &RunResult)) -> (Pass, Vec<f64>) {
    let start = Instant::now();
    let mut aside = 0.0;
    let mut pass = Pass::default();
    let mut fp = Fingerprint::default();
    let mut call_ms = Vec::new();
    let mut app_rows: Vec<[f64; 5]> = Vec::new();
    let mut complete = true;
    for w in single_core_suite() {
        let mut ipc = [0.0; 6];
        for (i, frac) in std::iter::once(None).chain(FRACTIONS.map(Some)).enumerate() {
            let cfg = run_config(mem_config(frac, 64.0), seed);
            pass.attempted += 1;
            let t = Instant::now();
            let r = match guarded(&format!("{} @ {frac:?}", w.name()), || {
                run_workloads(&[w], &cfg)
            }) {
                Ok(r) => r,
                Err(e) => {
                    pass.failures.push(e);
                    complete = false;
                    continue;
                }
            };
            let wall = t.elapsed().as_secs_f64();
            call_ms.push(wall * 1e3);
            pass.setup_s += wall - r.host_loop_s;
            pass.work_s += r.host_loop_s;
            pass.work += (SCALE.budget_insts() + SCALE.warmup_insts()) as f64 / 1e6;
            ipc[i] = r.ipc[0];
            let t = Instant::now();
            fp.f64s(&r.ipc);
            hash_stats(&mut fp, &r.mem);
            each(w, &cfg, &r);
            aside += t.elapsed().as_secs_f64();
        }
        if matches!(w, Workload::App(_)) {
            let mut row = [0.0; 5];
            for (k, v) in row.iter_mut().enumerate() {
                *v = ipc[k + 1] / ipc[0];
            }
            app_rows.push(row);
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64() - aside;
    pass.fingerprint = fp.value();
    if complete {
        // Fig. 12 GMEAN over the applications, against the paper's gains
        // at 0 % (all max-capacity) and 25/50/75/100 % HP rows.
        let paper = [
            HEADLINES.single_core_speedup_all_maxcap,
            HEADLINES.single_core_speedup[0],
            HEADLINES.single_core_speedup[1],
            HEADLINES.single_core_speedup[2],
            HEADLINES.single_core_speedup[3],
        ];
        let gap: f64 = (0..5)
            .map(|k| {
                let g = geomean(&app_rows.iter().map(|r| r[k]).collect::<Vec<_>>());
                ((g - 1.0) - paper[k]).abs() * 100.0
            })
            .sum::<f64>()
            / 5.0;
        pass.paper_gap_pp = Some(gap);
    }
    pass.manifest = vec![
        ("scale", SCALE.label().into()),
        ("calls", pass.attempted.to_string()),
        ("lanes_requested", "1".into()),
        ("lanes_effective", "1".into()),
    ];
    (pass, call_ms)
}

/// One plain pass.
pub fn pass(seed: u64) -> Pass {
    sweep(seed, |_, _, _| {}).0
}

thread_local! {
    /// Host nanoseconds and items pulled through [`TimedTrace`].
    static TRACE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Times every item pulled from the translated trace (the `trace`
/// layer: `clr_trace` generation plus `clr_sim::translate`).
struct TimedTrace(Box<dyn TraceSource + Send>);

impl TraceSource for TimedTrace {
    fn next_item(&mut self) -> Option<TraceItem> {
        let t = Instant::now();
        let item = self.0.next_item();
        let ns = t.elapsed().as_nanos() as u64;
        TRACE.with(|c| {
            let (total, items) = c.get();
            c.set((total + ns, items + 1));
        });
        item
    }
}

/// Host time and counts per layer, summed over every re-driven call.
#[derive(Default)]
struct Spans {
    profile_ns: u64,
    placement_ns: u64,
    construct_ns: u64,
    loop_ns: u64,
    tick_ns: u64,
    skip_ns: u64,
    ticks: u64,
    skips: u64,
    trace_ns: u64,
    trace_items: u64,
    enqueue_ns: u64,
    requests: u64,
    refused: u64,
    mem_tick_ns: u64,
    mem_ticks: u64,
    until_ns: u64,
    untils: u64,
    until_cycles: u64,
    bound_ns: u64,
    queries: u64,
    deliver_ns: u64,
    completions: u64,
    glue_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A lap clock for the loop: each `lap` closes the span since the
/// previous one, so consecutive spans share one timestamp (half the timer
/// reads) and tile the loop with no gap.
struct Lap(Instant);

impl Lap {
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// `run_workloads` rebuilt from public calls (no observer, no metrics,
/// serial walk, skip-ahead on), with a span around every call into a
/// layer. Returns the per-core IPC, the measurement-window `MemStats`
/// and the whole-run skip profile.
fn redrive(
    workloads: &[Workload],
    cfg: &RunConfig,
    sp: &mut Spans,
) -> (Vec<f64>, MemStats, SkipProfile) {
    let t = Instant::now();
    let mut merged = PageProfile::new();
    for (core, w) in workloads.iter().enumerate() {
        let total = cfg.budget_insts + cfg.warmup_insts;
        let items = ((total as f64 / w.instructions_per_item()) * 1.3) as usize + 1_000;
        let mut gen = w.spawn(per_core_seed(cfg.seed, core));
        for _ in 0..items {
            let Some(item) = gen.next_item() else { break };
            merged.record(tag_for_core(item.read, core));
            if let Some(wr) = item.write {
                merged.record(tag_for_core(wr, core));
            }
        }
    }
    sp.profile_ns += ns_since(t);
    let t = Instant::now();
    let placement =
        PagePlacement::profile_guided(&merged, cfg.mem.clr.fraction_hp(), &cfg.mem.geometry)
            .expect("valid CLR fraction");
    sp.placement_ns += ns_since(t);

    let t = Instant::now();
    let traces: Vec<Box<dyn TraceSource + Send>> = workloads
        .iter()
        .enumerate()
        .map(|(core, w)| {
            let translated = TranslatedTrace::new(
                w.spawn(per_core_seed(cfg.seed, core)),
                placement.clone(),
                core,
            );
            Box::new(TimedTrace(Box::new(translated))) as Box<dyn TraceSource + Send>
        })
        .collect();
    let mut cluster = CpuCluster::new(cfg.cluster, traces);
    let mut mem_sys = MemorySystem::new(cfg.mem.clone());
    mem_sys.set_threads(cfg.threads.max(1).min(clr_sim::host_parallelism()));
    sp.construct_ns += ns_since(t);

    let n = workloads.len();
    let mut completions: Vec<Completion> = Vec::new();
    let mut dram_done: u64 = 0;
    let mut warm_retired = vec![0u64; n];
    let mut warm_cpu_cycle = 0;
    let mut warm_stats = MemStats::new();
    let mut warmed = cfg.warmup_insts == 0;
    let mut finish_cycle: Vec<Option<u64>> = vec![None; n];
    let cycle_cap = (cfg.budget_insts + cfg.warmup_insts) * 2_000 + 10_000_000;
    let mut stall_cache: Option<u64> = None;
    let (trace_ns0, trace_items0) = TRACE.with(Cell::get);

    let loop_start = Instant::now();
    let mut clock = Lap(loop_start);
    loop {
        cluster.tick();
        sp.tick_ns += clock.lap();
        sp.ticks += 1;

        let now_dram = mem_sys.cycle();
        let (requests, refused) = (&mut sp.requests, &mut sp.refused);
        cluster.drain_mem_requests(|req| {
            let kind = if req.write {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            *requests += 1;
            let ok = mem_sys
                .try_enqueue(MemRequest::new(
                    req.id,
                    PhysAddr(req.line_addr),
                    kind,
                    now_dram,
                ))
                .is_ok();
            *refused += u64::from(!ok);
            ok
        });
        sp.enqueue_ns += clock.lap();

        let due = cluster.cycle() * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
        while dram_done < due {
            mem_sys.tick_fast(&mut completions);
            sp.mem_tick_ns += clock.lap();
            sp.mem_ticks += 1;
            dram_done += 1;
            if !completions.is_empty() {
                for c in completions.drain(..) {
                    cluster.complete_read(c.id);
                    sp.completions += 1;
                    stall_cache = None;
                }
                sp.deliver_ns += clock.lap();
            }
        }
        let mut all_done = false;
        if !warmed {
            if (0..n).all(|i| cluster.retired(i) >= cfg.warmup_insts) {
                warmed = true;
                for (i, wr) in warm_retired.iter_mut().enumerate() {
                    *wr = cluster.retired(i);
                }
                warm_cpu_cycle = cluster.cycle();
                warm_stats = mem_sys.fused_stats();
            }
        } else {
            all_done = true;
            for i in 0..n {
                if finish_cycle[i].is_none() {
                    if cluster.retired(i) >= warm_retired[i] + cfg.budget_insts {
                        finish_cycle[i] = Some(cluster.cycle());
                    } else {
                        all_done = false;
                    }
                }
            }
        }
        assert!(cluster.cycle() < cycle_cap, "no forward progress");
        sp.glue_ns += clock.lap();
        if all_done {
            break;
        }

        if completions.is_empty() {
            let stalled = match stall_cache {
                Some(w) if cluster.cycle() < w => Some(w),
                _ => {
                    let s = cluster.stalled_until();
                    stall_cache = s;
                    s
                }
            };
            let Some(wake) = stalled else {
                sp.bound_ns += clock.lap();
                continue;
            };
            sp.queries += 1;
            let dram_cap = mem_sys.next_completion_bound();
            let cpu_cap = if dram_cap >= u64::MAX / (2 * DRAM_PER_CPU_DEN) {
                u64::MAX
            } else {
                ((dram_cap + 1) * DRAM_PER_CPU_DEN - 1) / DRAM_PER_CPU_NUM
            };
            let target = wake.min(cpu_cap).min(cycle_cap);
            sp.bound_ns += clock.lap();
            if target > cluster.cycle() {
                cluster.skip_to(target);
                sp.skip_ns += clock.lap();
                sp.skips += 1;
                let due = target * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
                if due > dram_done {
                    mem_sys.tick_until(due, &mut completions);
                    sp.until_ns += clock.lap();
                    sp.untils += 1;
                    sp.until_cycles += due - dram_done;
                    dram_done = due;
                }
            }
        }
    }
    sp.loop_ns += ns_since(loop_start);
    let (trace_ns1, trace_items1) = TRACE.with(Cell::get);
    sp.trace_ns += trace_ns1 - trace_ns0;
    sp.trace_items += trace_items1 - trace_items0;

    let ipc = (0..n)
        .map(|i| {
            let cycles = finish_cycle[i].expect("every core finished") - warm_cpu_cycle;
            cfg.budget_insts as f64 / cycles as f64
        })
        .collect();
    let mem = mem_sys.fused_stats().delta_since(&warm_stats);
    (ipc, mem, mem_sys.fused_skip_profile())
}

/// One plain pass with every call re-driven under spans right after it.
pub fn traced(seed: u64) -> Traced {
    let mut sp = Spans::default();
    let mut mismatches = Vec::new();
    let mut attempted = 0;
    let mut plain_loop_s = 0.0;
    let mut dram = DramTotals::default();
    let (plain, call_ms) = sweep(seed, |w, cfg, r| {
        attempted += 1;
        plain_loop_s += r.host_loop_s;
        dram.add(r);
        let what = format!(
            "paper-single re-drive {} @ {:.2}",
            w.name(),
            cfg.mem.clr.fraction_hp()
        );
        match guarded(&what, || redrive(&[w], cfg, &mut sp)) {
            Ok((ipc, mem, profile)) => {
                let same_ipc = ipc
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(r.ipc.iter().map(|v| v.to_bits()));
                if !same_ipc || mem != r.mem || profile != r.skip_profile {
                    mismatches.push(format!("{what}: differs from run_workloads"));
                }
            }
            Err(e) => mismatches.push(e),
        }
    });

    let s = |ns: u64| ns as f64 / 1e9;
    let mut l = Ledger::default();
    l.set("trace.items", sp.trace_items as f64);
    l.set("trace.s", s(sp.trace_ns));
    l.set(
        "trace.ns_per_item",
        ratio(sp.trace_ns as f64, sp.trace_items as f64),
    );
    l.set("setup.profile_s", s(sp.profile_ns));
    l.set("setup.placement_s", s(sp.placement_ns));
    l.set("setup.construct_s", s(sp.construct_ns));
    let cpu_ns = (sp.tick_ns + sp.skip_ns).saturating_sub(sp.trace_ns);
    l.set("cpu.ticks", sp.ticks as f64);
    l.set("cpu.s", s(cpu_ns));
    l.set("cpu.ns_per_tick", ratio(cpu_ns as f64, sp.ticks as f64));
    l.set("cpu.skips", sp.skips as f64);
    l.set("memsim.enqueue.requests", sp.requests as f64);
    l.set("memsim.enqueue.refused", sp.refused as f64);
    l.set("memsim.enqueue.s", s(sp.enqueue_ns));
    l.set("memsim.tick.calls", sp.mem_ticks as f64);
    l.set("memsim.tick.s", s(sp.mem_tick_ns));
    l.set(
        "memsim.tick.ns_per_call",
        ratio(sp.mem_tick_ns as f64, sp.mem_ticks as f64),
    );
    l.set("memsim.tick_until.calls", sp.untils as f64);
    l.set("memsim.tick_until.s", s(sp.until_ns));
    l.set("memsim.tick_until.dram_cycles", sp.until_cycles as f64);
    l.set("memsim.bound.queries", sp.queries as f64);
    l.set("memsim.bound.jumps", sp.skips as f64);
    l.set(
        "memsim.bound.jump_ratio",
        ratio(sp.skips as f64, sp.queries as f64),
    );
    l.set("memsim.bound.s", s(sp.bound_ns));
    l.set("memsim.deliver.completions", sp.completions as f64);
    l.set("memsim.deliver.s", s(sp.deliver_ns));
    dram.write(&mut l);
    l.set(
        "memsim.ns_per_event",
        ratio(
            (sp.mem_tick_ns + sp.until_ns) as f64,
            dram.profile.ticked_cycles as f64,
        ),
    );
    l.set("sim.run_ms_p50", quantile(&call_ms, 0.5));
    l.set("sim.run_ms_p95", quantile(&call_ms, 0.95));
    l.set("sim.glue_s", s(sp.glue_ns));
    l.set(
        "traced.overhead_frac",
        ratio(s(sp.loop_ns), plain_loop_s) - 1.0,
    );
    Traced {
        plain,
        ledger: l,
        mismatches,
        attempted,
    }
}
