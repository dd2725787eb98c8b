//! The dynamic-policy sweep: mode-management policies × workloads, run in
//! parallel, reporting IPC, DRAM energy, and capacity loss per cell.
//!
//! This is the experiment behind the repo's "dynamic capacity-latency
//! trade-off" claim: on a workload whose hot set drifts
//! ([`clr_trace::phase`]), a telemetry-driven policy under a 25 % capacity
//! budget should beat every static split of comparable capacity loss,
//! while forfeiting half as much capacity as the all-high-performance
//! configuration.
//!
//! Two contrast workloads bracket that claim: a **stable hot set**
//! (zero-drift phase workload), where profile-guided static placement is
//! already near-optimal and a dynamic policy can at best match it; and
//! **uniform-random** traffic, where there are no persistent hot rows to
//! find and a telemetry-driven policy should decline to burn relocation
//! work. Together the three columns show *when* dynamism pays, not just
//! that it can.
//!
//! Every report row (policy, contention and placement cells) is one
//! [`CellSpec`] at the master seed. [`run`] plans the distinct
//! simulations behind its rows, where a contention or placement row adds
//! one alone run per core for its weighted speedup and max slowdown. It
//! runs them as one [`Executor`] batch, so no simulation runs twice.
//!
//! The system is deliberately scaled down from the paper's 16 GiB device
//! (a 16 MiB device, 64 KiB LLC) so that capacity pressure — the thing
//! dynamic policies exist to manage — actually occurs at simulable
//! instruction budgets. Relative orderings, not absolute numbers, are the
//! output.

use clr_core::geometry::DramGeometry;
use clr_cpu::cache::CacheConfig;
use clr_cpu::cluster::ClusterConfig;
use clr_memsim::config::{ClrModeConfig, MemConfig};
use clr_memsim::frames::DestinationPicker;
use clr_memsim::migrate::RelocationConfig;
use clr_memsim::Executor;
use clr_obs::{MetricsConfig, SloSpec, WindowMetric, WindowedObjective};
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_trace::phase::PhaseShiftSpec;
use clr_trace::synthetic::{SyntheticKind, SyntheticSpec};
use clr_trace::workload::Workload;

use crate::metrics::{max_slowdown, weighted_speedup};
use crate::policyrun::{run_policy_workloads, PolicyRunConfig};
use crate::scale::Scale;
use crate::system::{
    host_parallelism, per_core_seed, process_env, skip_ahead_from, RunConfig, SweepPart,
};

/// The capacity budget every dynamic policy runs under.
pub const DYNAMIC_BUDGET: f64 = 0.25;

/// Windowed 99th-percentile read-latency ceiling every cell is held to
/// (DRAM cycles per epoch-length window, 10 % error budget — transient
/// excursions around epoch boundaries are tolerated, sustained tail
/// inflation is not).
pub const SLO_READ_P99_CYCLES: u64 = 1_500;

/// Ceiling on the fraction of window channel-cycles migration commands
/// may occupy a command bus, permille (hard — the pacer must keep
/// background relocation a minority tenant in every window).
pub const SLO_MIGRATION_SLOT_PERMILLE: u64 = 500;

/// Max-slowdown ceiling for contention/placement cells, milli-units
/// (1.6×, the fairness bound the sweep's verdict enforces).
pub const SLO_MAX_SLOWDOWN_MILLI: u64 = 1_600;

/// The per-cell service-level spec the sweep evaluates on every cell's
/// fused (system-level) time-series. Background-relocation cells add
/// the hard zero-stall invariant; the stall model stalls by design, so
/// it is held only to the latency and migration-tenancy objectives.
pub fn cell_slo_spec(background: bool) -> SloSpec {
    let mut spec = SloSpec::named("policy-sweep-cell");
    if background {
        spec.windowed
            .push(WindowedObjective::hard(WindowMetric::StallCycles, 0));
    }
    spec.windowed.push(WindowedObjective::budgeted(
        WindowMetric::ReadP99,
        SLO_READ_P99_CYCLES,
        0.10,
    ));
    spec.windowed.push(WindowedObjective::hard(
        WindowMetric::MigrationSlotPermille,
        SLO_MIGRATION_SLOT_PERMILLE,
    ));
    spec
}

/// Results of one (policy, workload, relocation-model) cell.
#[derive(Debug, Clone)]
pub struct PolicyCell {
    /// Policy label ("static-25", "hysteresis", ...).
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Relocation model the cell ran under ("stall" or "background").
    pub reloc: String,
    /// Cores the cell ran (1 for the single-core sweep columns).
    pub cores: usize,
    /// Memory channels the cell ran.
    pub channels: u32,
    /// Cross-channel budget split ("even" or "demand").
    pub budget_split: String,
    /// Destination placement the cell ran under ("same-bank",
    /// "cross-bank", or "cross-channel").
    pub placement: String,
    /// Whole-row frame moves that landed on another channel (fills
    /// completed; nonzero only under cross-channel placement).
    pub frames_moved: u64,
    /// Remap-table swaps installed by the capacity rebalancer.
    pub rows_remapped: u64,
    /// Weighted speedup `Σ IPC_shared/IPC_alone` against per-core alone
    /// baselines (contention cells only).
    pub weighted_speedup: Option<f64>,
    /// Max slowdown `max IPC_alone/IPC_shared` (contention cells only).
    pub max_slowdown: Option<f64>,
    /// IPC (mean over cores; see `ipc_per_core` for the breakdown).
    pub ipc: f64,
    /// Per-core IPC (one entry for single-core cells).
    pub ipc_per_core: Vec<f64>,
    /// DRAM energy over the measurement window, joules.
    pub energy_j: f64,
    /// Time-averaged fraction of device capacity forfeited.
    pub avg_capacity_loss: f64,
    /// High-performance fraction at the end of the run.
    pub final_hp_fraction: f64,
    /// Mode transitions applied over the run.
    pub transitions: u64,
    /// Cycles the controller spent stalled on relocation work (zero
    /// under background relocation).
    pub relocation_stall_cycles: u64,
    /// Background-migration jobs completed over the run.
    pub migration_jobs: u64,
    /// Fraction of window cycles a migration command occupied the bus.
    pub migration_slot_utilization: f64,
    /// Row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Median demand-read service latency over the window, DRAM cycles.
    pub read_latency_p50: u64,
    /// 95th-percentile demand-read service latency, DRAM cycles.
    pub read_latency_p95: u64,
    /// 99th-percentile demand-read service latency, DRAM cycles — the
    /// tail the paper's refresh/relocation interference shows up in.
    pub read_latency_p99: u64,
    /// Whether the cell passed its service-level spec
    /// ([`cell_slo_spec`], plus the max-slowdown ceiling on fairness
    /// cells) — the machine-checkable verdict of the continuous
    /// telemetry the cell ran with.
    pub slo_pass: bool,
    /// Telemetry windows the SLO evaluation covered.
    pub slo_windows: u64,
    /// Total objective violations across all windowed objectives.
    pub slo_violations: u64,
    /// Worst *windowed* p99 read latency across the run, DRAM cycles
    /// (the transient tail the end-of-run `read_latency_p99` smooths
    /// over).
    pub slo_worst_read_p99: u64,
    /// Total demand-read enqueue→completion cycles over the measurement
    /// window (the latency histogram's exact sum). The per-cause blame
    /// budgets below sum to exactly this value — the attribution
    /// exactness contract, asserted by CI's independent parser.
    pub read_latency_cycles: u64,
    /// Per-cause read wait budgets in cycles, one entry per
    /// [`clr_obs::WaitCause`] in `WaitCause::ALL` order.
    pub read_blame_cycles: [u64; clr_obs::WaitCause::COUNT],
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct PolicySweepReport {
    /// One cell per (policy, workload), in sweep order.
    pub cells: Vec<PolicyCell>,
    /// The contention sweep: core counts × channel counts × budget
    /// splits × dynamic policies, with per-core IPC and fairness
    /// metrics against per-core alone baselines.
    pub contention: Vec<PolicyCell>,
    /// The placement sweep: destination placements (same-bank /
    /// cross-bank / cross-channel) on the channel-skewed hot-set mix,
    /// comparing frame rebalancing against budget-only rebalancing.
    pub placement: Vec<PolicyCell>,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

/// The scaled-down device the sweep runs against: 16 MiB, 4 bank groups ×
/// 4 banks, 512 rows per bank, 2 KiB rows.
pub fn policy_geometry() -> DramGeometry {
    DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 4,
        banks_per_group: 4,
        rows: 512,
        columns: 256,
        device_width_bits: 8,
        bus_width_bits: 64,
        burst_length: 8,
    }
}

/// Memory configuration for one sweep cell with the given initial
/// high-performance fraction.
pub fn policy_mem_config(fraction_hp: f64) -> MemConfig {
    let mut cfg = MemConfig::paper_baseline();
    cfg.geometry = policy_geometry();
    cfg.clr = ClrModeConfig::Clr {
        fraction_hp,
        hp_refw_ms: 64.0,
        early_termination: true,
    };
    cfg
}

/// The sweep's CPU: one paper core in front of a small (64 KiB) LLC so
/// the drifting hot set reaches DRAM instead of being absorbed.
pub fn policy_cluster() -> ClusterConfig {
    ClusterConfig {
        window_depth: 128,
        width: 4,
        cache: CacheConfig {
            size_bytes: 64 << 10,
            associativity: 8,
            line_bytes: 64,
            hit_latency: 31,
            mshrs_per_core: 8,
        },
    }
}

/// The phase-shifting workload sized so roughly eight phases fit in the
/// scale's instruction budget.
pub fn phase_workload(scale: Scale) -> Workload {
    let spec = PhaseShiftSpec::paper_default();
    let phases = 8;
    let accesses_per_phase =
        (scale.budget_insts() as f64 / (spec.bubbles as f64 + 1.0) / phases as f64) as u64;
    Workload::PhaseShift(PhaseShiftSpec {
        accesses_per_phase: accesses_per_phase.max(500),
        ..spec
    })
}

/// The stable-hot contrast workload: the phase workload's hot window with
/// zero drift, so the time-averaged heat map equals the instantaneous one
/// and static placement is as informed as any telemetry-driven policy.
pub fn stable_hot_workload(scale: Scale) -> Workload {
    let Workload::PhaseShift(spec) = phase_workload(scale) else {
        unreachable!("phase_workload returns PhaseShift");
    };
    Workload::PhaseShift(PhaseShiftSpec {
        drift_fraction: 0.0,
        ..spec
    })
}

/// The uniform-random contrast workload: no persistent hot rows at all, so
/// promotions cannot pay for their relocation cost. Sized to bust the
/// sweep's 64 KiB LLC while fitting the 16 MiB device.
pub fn uniform_random_workload() -> Workload {
    Workload::Synthetic(SyntheticSpec {
        kind: SyntheticKind::Random,
        index: 90, // outside the paper suite's 0..15 index space
        bubbles: 3,
        footprint_mib: 4,
    })
}

/// The sweep's workload columns: the drifting-hot-set headline first (the
/// binary's comparisons key off it), then the contrast columns.
pub fn workload_roster(scale: Scale) -> Vec<Workload> {
    vec![
        phase_workload(scale),
        stable_hot_workload(scale),
        uniform_random_workload(),
    ]
}

/// The policies the sweep compares.
pub fn policy_roster() -> Vec<(PolicySpec, f64)> {
    // (policy, capacity budget): static splits are budgeted at their own
    // fraction; dynamic policies all run under DYNAMIC_BUDGET.
    vec![
        (PolicySpec::StaticSplit { fraction: 0.0 }, 0.0),
        (PolicySpec::StaticSplit { fraction: 0.25 }, 0.25),
        (PolicySpec::StaticSplit { fraction: 0.5 }, 0.5),
        (PolicySpec::StaticSplit { fraction: 0.75 }, 0.75),
        (PolicySpec::StaticSplit { fraction: 1.0 }, 1.0),
        (
            PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
            DYNAMIC_BUDGET,
        ),
        (PolicySpec::TopKHotness, DYNAMIC_BUDGET),
        (PolicySpec::Hysteresis, DYNAMIC_BUDGET),
    ]
}

/// Epoch length in DRAM cycles, sized for roughly four policy epochs
/// per workload phase — long enough for per-row counts to clear the
/// migration-payoff thresholds, short enough to react within a phase.
pub fn epoch_cycles(scale: Scale) -> u64 {
    let Workload::PhaseShift(spec) = phase_workload(scale) else {
        unreachable!("phase_workload returns PhaseShift");
    };
    // ~10 DRAM cycles per trace access on this system (measured; LLC
    // hits keep many accesses off the bus).
    (spec.accesses_per_phase * 10 / 4).max(2_000)
}

/// The relocation models a policy is swept across: dynamic policies run
/// under both the legacy stall-the-world apply and background migration;
/// static splits never relocate at runtime (their layout is the initial
/// table), so only the stall cell is run.
pub fn reloc_axis(spec: PolicySpec) -> Vec<RelocationConfig> {
    match spec {
        PolicySpec::StaticSplit { .. } => vec![RelocationConfig::default()],
        _ => vec![
            RelocationConfig::default(),
            RelocationConfig::background_paced(),
        ],
    }
}

/// Label for a relocation configuration in reports.
pub fn reloc_label(cfg: &RelocationConfig) -> &'static str {
    if cfg.is_background() {
        "background"
    } else {
        "stall"
    }
}

/// One sweep simulation: a policy driving one or more cores' workloads
/// under a relocation model on a (possibly multi-channel) memory system.
/// Equal specs at equal seeds are the same simulation, so the sweep runs
/// each distinct `(CellSpec, seed)` once however many rows report it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The mode-management policy on every channel.
    pub policy: PolicySpec,
    /// Global capacity budget (maximum high-performance fraction).
    pub budget: f64,
    /// One workload per core.
    pub workloads: Vec<Workload>,
    /// Relocation model.
    pub reloc: RelocationConfig,
    /// Memory channels.
    pub channels: u32,
    /// How the global budget splits across channels.
    pub split: BudgetSplit,
    /// Where a coupling's displaced half-row lands.
    pub placement: DestinationPicker,
}

impl CellSpec {
    /// The shape of every contention and placement cell, their alone
    /// baselines and the 2-core policy cell: a policy at
    /// [`DYNAMIC_BUDGET`] under background-paced relocation.
    pub fn background(
        policy: PolicySpec,
        workloads: Vec<Workload>,
        channels: u32,
        split: BudgetSplit,
        placement: DestinationPicker,
    ) -> Self {
        CellSpec {
            policy,
            budget: DYNAMIC_BUDGET,
            workloads,
            reloc: RelocationConfig::background_paced(),
            channels,
            split,
            placement,
        }
    }

    /// The `"{cores}core/{ch}ch:{mix}"` label, naming each core's
    /// workload by the first component of its name ("phase",
    /// "stablehot", "random") to keep the label readable.
    pub fn mix_label(&self) -> String {
        let mix = self
            .workloads
            .iter()
            .map(|w| w.name().split('_').next().unwrap_or("w").to_string())
            .collect::<Vec<_>>()
            .join("+");
        format!("{}core/{}ch:{mix}", self.workloads.len(), self.channels)
    }

    /// The high-performance fraction the mode table starts at: static
    /// splits start (and stay) at their configured layout, which the
    /// profile-guided placement also sees; dynamic policies start
    /// all-max-capacity and earn their fast rows.
    fn initial_fraction(&self) -> f64 {
        match self.policy {
            PolicySpec::StaticSplit { fraction } => fraction,
            _ => 0.0,
        }
    }

    /// The cell's policy run at `scale` and trace seed `seed`, with the
    /// sweep's observers on. Clear `base.metrics` and `base.blame` for an
    /// observers-off run of the same cell.
    pub fn run_config(&self, scale: Scale, seed: u64) -> PolicyRunConfig {
        let mut mem = policy_mem_config(self.initial_fraction());
        mem.geometry.channels = self.channels;
        mem.refresh_enabled = true;
        mem.relocation = self.reloc;
        mem.placement = self.placement;
        let base = RunConfig {
            // Skip-ahead is bit-identical to per-cycle stepping;
            // CLR_FORCE_PER_CYCLE forces the reference walk.
            skip_ahead: skip_ahead_from(process_env),
            // Every cell runs with continuous telemetry on — metrics are
            // inert (proven by the workspace differential test), and the
            // windowed series is what the SLO verdict evaluates. One window
            // per policy epoch aligns the sampling grid with the decision
            // grid.
            metrics: Some(MetricsConfig::every(epoch_cycles(scale))),
            // Wait-cause attribution rides along: the blame ledger is inert
            // (differential-tested) and the sweep schema reports per-cause
            // latency fractions for every cell.
            blame: true,
            ..RunConfig::new(
                mem,
                policy_cluster(),
                scale.budget_insts(),
                scale.warmup_insts(),
                seed,
            )
        };
        PolicyRunConfig::new(
            base,
            self.policy,
            PolicyConstraints {
                max_hp_fraction: self.budget,
                max_transitions_per_epoch: 512,
            },
            epoch_cycles(scale),
        )
        .with_budget_split(self.split)
    }
}

/// Simulates one job. The cell's `workload` label is left empty: the
/// rows that report the job fill in their own.
fn run_cell(spec: &CellSpec, scale: Scale, seed: u64) -> PolicyCell {
    let r = run_policy_workloads(&spec.workloads, &spec.run_config(scale, seed));
    let (read_p50, read_p95, read_p99) = r.run.mem.read_latency_percentiles();
    let system_series = r.run.metrics.as_ref().expect("metrics enabled").system();
    let slo = cell_slo_spec(spec.reloc.is_background()).evaluate(&system_series);
    let slo_worst_read_p99 = system_series
        .windows()
        .map(|w| w.read_p99())
        .max()
        .unwrap_or(0);
    PolicyCell {
        policy: spec.policy.label(),
        workload: String::new(),
        reloc: reloc_label(&spec.reloc).to_string(),
        cores: spec.workloads.len(),
        channels: spec.channels,
        budget_split: spec.split.label().to_string(),
        placement: spec.placement.label().to_string(),
        frames_moved: r.run.mem.migration_fills,
        rows_remapped: r.rows_remapped,
        weighted_speedup: None,
        max_slowdown: None,
        ipc: r.run.ipc.iter().sum::<f64>() / r.run.ipc.len() as f64,
        ipc_per_core: r.run.ipc.clone(),
        energy_j: r.run.energy.total_j(),
        avg_capacity_loss: if matches!(spec.policy, PolicySpec::StaticSplit { .. }) {
            // A static split forfeits its fraction's capacity for the
            // whole run, independent of epoch accounting.
            spec.initial_fraction() / 2.0
        } else {
            r.avg_capacity_loss()
        },
        final_hp_fraction: r.final_hp_fraction,
        transitions: r.policy_stats.transitions_applied,
        relocation_stall_cycles: r.run.mem.relocation_stall_cycles,
        migration_jobs: r.run.mem.migration_jobs_completed,
        migration_slot_utilization: r.migration_slot_utilization(),
        row_hit_rate: r.run.mem.row_hit_rate(),
        read_latency_p50: read_p50,
        read_latency_p95: read_p95,
        read_latency_p99: read_p99,
        slo_pass: slo.pass(),
        slo_windows: slo.windows,
        slo_violations: slo.objectives.iter().map(|o| o.violations).sum(),
        slo_worst_read_p99,
        read_latency_cycles: r.run.mem.read_latency_hist.sum(),
        read_blame_cycles: r.run.mem.read_blame.cycles(),
    }
}

/// The contention sweep's cells: core counts {1, 2, 4} × channel counts
/// {1, 2} × budget splits (even always; demand only where there is more
/// than one channel to rebalance) × the two interesting dynamic
/// policies. At smoke scale the roster is trimmed to the two cells CI
/// must exercise: the 2-core × 2-channel sharded path and the 4-core ×
/// 2-channel hysteresis headline.
pub fn contention_roster(scale: Scale) -> Vec<CellSpec> {
    let cell = |policy, cores, channels, split| {
        CellSpec::background(
            policy,
            contention_workloads(scale, cores),
            channels,
            split,
            DestinationPicker::SameBank,
        )
    };
    if scale == Scale::Smoke {
        return vec![
            // Util-threshold promotes eagerly even at smoke budgets, so
            // this cell drives real background migration through the
            // sharded path on every CI push (hysteresis's payoff
            // threshold rightly declines promotions this small).
            cell(
                PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
                2,
                2,
                BudgetSplit::EvenSplit,
            ),
            cell(
                PolicySpec::Hysteresis,
                4,
                2,
                BudgetSplit::demand_proportional(),
            ),
        ];
    }
    let mut out = Vec::new();
    for policy in [
        PolicySpec::Hysteresis,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
    ] {
        for cores in [1usize, 2, 4] {
            for channels in [1u32, 2] {
                // The workload mix must physically fit the device: each
                // phase/stable-hot footprint is half of one channel's
                // capacity, so the 4-core mix (~28 MiB) needs the
                // 2-channel device — on 1 channel page placement would
                // rightly refuse (PlacementOverflow).
                if cores == 4 && channels == 1 {
                    continue;
                }
                let mut splits = vec![BudgetSplit::EvenSplit];
                if channels > 1 {
                    splits.push(BudgetSplit::demand_proportional());
                }
                for split in splits {
                    out.push(cell(policy, cores, channels, split));
                }
            }
        }
    }
    out
}

/// The workload mix for an n-core contention cell: the roster columns
/// (drifting-hot, stable-hot, uniform-random) assigned round-robin, so
/// every cell mixes latency-sensitive and streaming behaviour.
pub fn contention_workloads(scale: Scale, cores: usize) -> Vec<Workload> {
    let roster = workload_roster(scale);
    (0..cores).map(|i| roster[i % roster.len()]).collect()
}

/// The placement sweep's workload mix: the drifting and stable hot sets
/// with their hot lines pinned to channel 0 of a 2-channel system — a
/// saturated channel next to a mostly idle one, the regime where moving
/// *frames* (not just budget) across channels pays.
pub fn skewed_workloads(scale: Scale) -> Vec<Workload> {
    let Workload::PhaseShift(drifting) = phase_workload(scale) else {
        unreachable!("phase_workload returns PhaseShift");
    };
    let Workload::PhaseShift(stable) = stable_hot_workload(scale) else {
        unreachable!("stable_hot_workload returns PhaseShift");
    };
    vec![
        Workload::PhaseShift(drifting.with_channel_skew(2, 0)),
        Workload::PhaseShift(stable.with_channel_skew(2, 0)),
    ]
}

/// The placement axis: same-bank (the budget-only baseline — demand
/// rebalancing still runs, but capacity never physically moves),
/// cross-bank (overlapped couplings), and cross-channel (overlapped
/// couplings plus the frame rebalancer). At smoke scale the roster is
/// trimmed to the two ends CI must exercise.
pub fn placement_roster(scale: Scale) -> Vec<DestinationPicker> {
    if scale == Scale::Smoke {
        return vec![DestinationPicker::SameBank, DestinationPicker::CrossChannel];
    }
    vec![
        DestinationPicker::SameBank,
        DestinationPicker::CrossBank,
        DestinationPicker::CrossChannel,
    ]
}

/// One report row: the cell it runs, the workload label it reports
/// under, and whether it is priced against per-core alone runs.
#[derive(Clone)]
struct SweepRow {
    spec: CellSpec,
    label: String,
    /// Fill in weighted speedup, max slowdown and the slowdown SLO from
    /// each core's workload run alone on the identical memory system.
    fair: bool,
}

/// The sweep's rows, one list per report section (policy cells,
/// contention, placement); the sections `part` leaves out are empty.
fn sweep_rows(scale: Scale, part: SweepPart) -> [Vec<SweepRow>; 3] {
    let row = |spec, label, fair| SweepRow { spec, label, fair };
    let mut policy = Vec::new();
    if part == SweepPart::All {
        // Workload-major with the drifting-hot-set column first.
        for w in workload_roster(scale) {
            for (spec, budget) in policy_roster() {
                for reloc in reloc_axis(spec) {
                    let spec = CellSpec {
                        policy: spec,
                        budget,
                        workloads: vec![w],
                        reloc,
                        channels: 1,
                        split: BudgetSplit::EvenSplit,
                        placement: DestinationPicker::SameBank,
                    };
                    policy.push(row(spec, w.name(), false));
                }
            }
        }
        // The 2-core shared-fast-row-budget cell: a drifting and a
        // stable hot set compete for one controller's budget; the
        // per-core IPC column shows who wins the fast rows.
        let (w0, w1) = (phase_workload(scale), stable_hot_workload(scale));
        let spec = CellSpec::background(
            PolicySpec::Hysteresis,
            vec![w0, w1],
            1,
            BudgetSplit::EvenSplit,
            DestinationPicker::SameBank,
        );
        let label = format!("2core:{}+{}", w0.name(), w1.name());
        policy.push(row(spec, label, false));
    }
    let contention = match part {
        SweepPart::Placement => Vec::new(),
        _ => contention_roster(scale)
            .into_iter()
            .map(|spec| row(spec.clone(), spec.mix_label(), true))
            .collect(),
    };
    let placement = match part {
        SweepPart::Contention => Vec::new(),
        // Util-threshold promotes eagerly even at smoke budgets, so the
        // placement machinery is exercised on every CI push. With a
        // demand-proportional budget on every cell, the same-bank column
        // is exactly "budget-only rebalancing": the placement axis is
        // isolated.
        _ => placement_roster(scale)
            .into_iter()
            .map(|p| {
                let spec = CellSpec::background(
                    PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
                    skewed_workloads(scale),
                    2,
                    BudgetSplit::demand_proportional(),
                    p,
                );
                row(spec, format!("2core/2ch:skewed:{}", p.label()), true)
            })
            .collect(),
    };
    [policy, contention, placement]
}

/// The distinct simulations behind a list of rows.
struct Plan {
    /// Every distinct `(CellSpec, seed)` job, in first-use order.
    jobs: Vec<(CellSpec, u64)>,
    /// Per row: its own job, then its per-core alone jobs (none unless
    /// the row is fair).
    rows: Vec<(usize, Vec<usize>)>,
}

/// Plans `rows` at master seed `seed` without simulating anything. A
/// row runs its spec at `seed`; a fair row's alone run for core `i` is
/// its spec with workload `i` alone at `per_core_seed(seed, i)`, the
/// exact trace that core replayed. Equal jobs are planned once, so a
/// 1-core fair row is its own baseline and rows of different sections
/// share their common configurations.
fn plan(rows: &[SweepRow], seed: u64) -> Plan {
    let mut jobs: Vec<(CellSpec, u64)> = Vec::new();
    let mut job = |job: (CellSpec, u64)| {
        jobs.iter().position(|j| *j == job).unwrap_or_else(|| {
            jobs.push(job);
            jobs.len() - 1
        })
    };
    let rows = rows
        .iter()
        .map(|row| {
            let own = job((row.spec.clone(), seed));
            let cores = if row.fair {
                row.spec.workloads.len()
            } else {
                0
            };
            let alone = (0..cores).map(|core| {
                let workloads = vec![row.spec.workloads[core]];
                let spec = CellSpec {
                    workloads,
                    ..row.spec.clone()
                };
                job((spec, per_core_seed(seed, core)))
            });
            (own, alone.collect())
        })
        .collect();
    Plan { jobs, rows }
}

/// Runs every planned job of `rows` as one [`Executor`] batch, then
/// reports each row under its label; fair rows also get weighted
/// speedup and max slowdown against their alone runs, and fail their
/// SLO above the [`SLO_MAX_SLOWDOWN_MILLI`] fairness ceiling (a scalar
/// objective the windowed series cannot see).
fn run_rows(rows: &[SweepRow], scale: Scale, seed: u64) -> Vec<PolicyCell> {
    let plan = plan(rows, seed);
    let results = Executor::new(host_parallelism()).run_batch(
        plan.jobs
            .iter()
            .map(|(spec, seed)| move || run_cell(spec, scale, *seed))
            .collect(),
    );
    rows.iter()
        .zip(&plan.rows)
        .map(|(row, (own, alone))| {
            let mut cell = PolicyCell {
                workload: row.label.clone(),
                ..results[*own].clone()
            };
            if row.fair {
                let alone: Vec<f64> = alone.iter().map(|&j| results[j].ipc).collect();
                let slowdown = max_slowdown(&cell.ipc_per_core, &alone);
                cell.weighted_speedup = Some(weighted_speedup(&cell.ipc_per_core, &alone));
                cell.max_slowdown = Some(slowdown);
                if (slowdown * 1000.0).round() as u64 > SLO_MAX_SLOWDOWN_MILLI {
                    cell.slo_pass = false;
                    cell.slo_violations += 1;
                }
            }
            cell
        })
        .collect()
}

/// Runs the sweep, or the one section `part` selects, as one batch of
/// rows on an [`Executor`]:
/// - the policy cells: every roster policy × every roster workload
///   (drifting-hot, stable-hot, uniform-random) × the policy's
///   relocation axis, workload-major with the drifting-hot-set column
///   first, plus the 2-core shared-budget cell;
/// - the contention cells of [`contention_roster`];
/// - the placement cells: each [`placement_roster`] mode on the
///   channel-skewed 2-core mix over 2 channels.
///
/// Contention and placement cells are priced against their per-core
/// alone runs under the same configuration. Every distinct simulation
/// runs once, however many rows report it.
pub fn run(scale: Scale, seed: u64, part: SweepPart) -> PolicySweepReport {
    let [policy, contention, placement] = sweep_rows(scale, part);
    let (n_policy, n_contention) = (policy.len(), contention.len());
    let mut cells = run_rows(&[policy, contention, placement].concat(), scale, seed);
    let placement = cells.split_off(n_policy + n_contention);
    let contention = cells.split_off(n_policy);
    PolicySweepReport {
        cells,
        contention,
        placement,
        scale,
    }
}

impl PolicySweepReport {
    /// The cell for an exact (policy, workload) pair, if present. When
    /// the policy ran under both relocation models, the background cell
    /// is the representative (it is the configuration that dominates).
    pub fn cell_for(&self, policy: &str, workload: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .filter(|c| c.policy == policy && c.workload == workload)
            .max_by_key(|c| c.reloc == "background")
    }

    /// The cell for an exact (policy, workload, relocation) triple.
    pub fn cell_with(&self, policy: &str, workload: &str, reloc: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.workload == workload && c.reloc == reloc)
    }

    /// Every (policy, workload) pair that ran under both relocation
    /// models, as `(policy, workload, background IPC, stall IPC)` — the
    /// background-vs-stall dominance comparison.
    pub fn background_vs_stall(&self) -> Vec<(&str, &str, f64, f64)> {
        let mut out = Vec::new();
        for c in &self.cells {
            if c.reloc != "background" {
                continue;
            }
            if let Some(stall) = self.cell_with(&c.policy, &c.workload, "stall") {
                out.push((c.policy.as_str(), c.workload.as_str(), c.ipc, stall.ipc));
            }
        }
        out
    }

    /// The best static-split cell on a workload column whose capacity
    /// loss does not exceed `max_loss + ε` — the fair static competitor
    /// for a budgeted dynamic policy.
    pub fn best_static_within_for(&self, max_loss: f64, workload: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .filter(|c| c.workload == workload)
            .filter(|c| c.policy.starts_with("static-"))
            .filter(|c| c.avg_capacity_loss <= max_loss + 1e-9)
            .max_by(|a, b| a.ipc.partial_cmp(&b.ipc).expect("finite IPC"))
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<28} {:<10} {:>7} {:>10} {:>9} {:>8} {:>11} {:>9} {:>8}\n",
            "policy",
            "workload",
            "reloc",
            "IPC",
            "energy(mJ)",
            "cap-loss",
            "hit-rate",
            "transitions",
            "stall-cyc",
            "mig-util"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<14} {:<28} {:<10} {:>7.4} {:>10.3} {:>8.1}% {:>7.1}% {:>11} {:>9} {:>7.2}%\n",
                c.policy,
                c.workload,
                c.reloc,
                c.ipc,
                c.energy_j * 1e3,
                c.avg_capacity_loss * 100.0,
                c.row_hit_rate * 100.0,
                c.transitions,
                c.relocation_stall_cycles,
                c.migration_slot_utilization * 100.0,
            ));
        }
        out
    }

    /// Renders the contention-sweep table (empty string when the sweep
    /// has no contention cells).
    pub fn render_contention(&self) -> String {
        if self.contention.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<34} {:>5} {:>3} {:<7} {:>7} {:>8} {:>9} {:>9} {:>8}\n",
            "policy",
            "cell",
            "cores",
            "ch",
            "split",
            "IPC",
            "wspeedup",
            "max-slow",
            "stall-cyc",
            "mig-util"
        ));
        for c in &self.contention {
            out.push_str(&format!(
                "{:<14} {:<34} {:>5} {:>3} {:<7} {:>7.4} {:>8.3} {:>9.3} {:>9} {:>7.2}%\n",
                c.policy,
                c.workload,
                c.cores,
                c.channels,
                c.budget_split,
                c.ipc,
                c.weighted_speedup.unwrap_or(f64::NAN),
                c.max_slowdown.unwrap_or(f64::NAN),
                c.relocation_stall_cycles,
                c.migration_slot_utilization * 100.0,
            ));
        }
        out
    }

    /// Renders the placement-sweep table (empty string when the sweep
    /// has no placement cells).
    pub fn render_placement(&self) -> String {
        if self.placement.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<34} {:<13} {:>7} {:>8} {:>9} {:>7} {:>8} {:>9}\n",
            "policy",
            "cell",
            "placement",
            "IPC",
            "wspeedup",
            "max-slow",
            "moves",
            "remaps",
            "stall-cyc"
        ));
        for c in &self.placement {
            out.push_str(&format!(
                "{:<14} {:<34} {:<13} {:>7.4} {:>8.3} {:>9.3} {:>7} {:>8} {:>9}\n",
                c.policy,
                c.workload,
                c.placement,
                c.ipc,
                c.weighted_speedup.unwrap_or(f64::NAN),
                c.max_slowdown.unwrap_or(f64::NAN),
                c.frames_moved,
                c.rows_remapped,
                c.relocation_stall_cycles,
            ));
        }
        out
    }

    /// The placement cell for a placement label, if present.
    pub fn placement_cell(&self, placement: &str) -> Option<&PolicyCell> {
        self.placement.iter().find(|c| c.placement == placement)
    }

    fn cell_json(c: &PolicyCell) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "null".to_string(), |x| format!("{x:.6}"))
        }
        let per_core = c
            .ipc_per_core
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        let (blame_cycles, blame_permille) = clr_obs::cause_maps_json(&c.read_blame_cycles);
        format!(
            "{{\"policy\": \"{}\", \"workload\": \"{}\", \"reloc\": \"{}\", \
             \"cores\": {}, \"channels\": {}, \"budget_split\": \"{}\", \
             \"placement\": \"{}\", \"frames_moved\": {}, \"rows_remapped\": {}, \
             \"ipc\": {:.6}, \"ipc_per_core\": [{}], \
             \"weighted_speedup\": {}, \"max_slowdown\": {}, \
             \"energy_j\": {:.6e}, \"avg_capacity_loss\": {:.6}, \
             \"final_hp_fraction\": {:.6}, \"transitions\": {}, \
             \"relocation_stall_cycles\": {}, \"migration_jobs\": {}, \
             \"migration_slot_utilization\": {:.6}, \"row_hit_rate\": {:.6}, \
             \"read_latency_p50\": {}, \"read_latency_p95\": {}, \
             \"read_latency_p99\": {}, \"slo_pass\": {}, \
             \"slo_windows\": {}, \"slo_violations\": {}, \
             \"slo_worst_read_p99\": {}, \
             \"read_latency_cycles\": {}, \"blame_cycles\": {}, \
             \"blame_permille\": {}}}",
            esc(&c.policy),
            esc(&c.workload),
            esc(&c.reloc),
            c.cores,
            c.channels,
            esc(&c.budget_split),
            esc(&c.placement),
            c.frames_moved,
            c.rows_remapped,
            c.ipc,
            per_core,
            opt(c.weighted_speedup),
            opt(c.max_slowdown),
            c.energy_j,
            c.avg_capacity_loss,
            c.final_hp_fraction,
            c.transitions,
            c.relocation_stall_cycles,
            c.migration_jobs,
            c.migration_slot_utilization,
            c.row_hit_rate,
            c.read_latency_p50,
            c.read_latency_p95,
            c.read_latency_p99,
            c.slo_pass,
            c.slo_windows,
            c.slo_violations,
            c.slo_worst_read_p99,
            c.read_latency_cycles,
            blame_cycles,
            blame_permille,
        )
    }

    /// Machine-readable JSON (schema:
    /// `{schema, scale, cells: [...], contention: [...], placement:
    /// [...]}`), emitted by the `policy_sweep` binary so future PRs can
    /// track a performance trajectory. `v2` added the relocation-model
    /// axis (`reloc`, `migration_jobs`, `migration_slot_utilization`)
    /// and the per-core IPC breakdown; `v3` added the channel-sharding
    /// axis (`cores`, `channels`, `budget_split`) and the contention
    /// array with `weighted_speedup` / `max_slowdown` fairness columns
    /// (null on non-contention cells); `v4` adds the placement axis
    /// (`placement`, `frames_moved`, `rows_remapped` on every cell) and
    /// the placement array comparing same-bank / cross-bank /
    /// cross-channel destination placement on the channel-skewed mix;
    /// `v5` adds tail latency (`read_latency_p50`/`p95`/`p99`, DRAM
    /// cycles, from the per-request latency histograms) to every cell;
    /// `v6` adds the continuous-telemetry SLO verdict (`slo_pass`,
    /// `slo_windows`, `slo_violations`, `slo_worst_read_p99` — see
    /// [`cell_slo_spec`]) to every cell; `v7` adds cycle-exact
    /// wait-cause attribution (`read_latency_cycles`, per-cause
    /// `blame_cycles` summing to exactly it, and the derived
    /// `blame_permille` shares) to every cell.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"clr-dram/policy-sweep/v7\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.label()));
        for (key, cells, trailing) in [
            ("cells", &self.cells, ","),
            ("contention", &self.contention, ","),
            ("placement", &self.placement, ""),
        ] {
            out.push_str(&format!("  \"{key}\": [\n"));
            for (i, c) in cells.iter().enumerate() {
                out.push_str("    ");
                out.push_str(&Self::cell_json(c));
                out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
            }
            out.push_str(&format!("  ]{trailing}\n"));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_static_and_dynamic() {
        let roster = policy_roster();
        assert_eq!(roster.len(), 8);
        let labels: Vec<String> = roster.iter().map(|(s, _)| s.label()).collect();
        assert!(labels.contains(&"hysteresis".to_string()));
        assert!(labels.contains(&"static-100".to_string()));
    }

    #[test]
    fn workload_roster_has_headline_and_contrast_columns() {
        let ws = workload_roster(Scale::Smoke);
        let names: Vec<String> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].starts_with("phase_"), "headline first: {names:?}");
        assert!(names[1].starts_with("stablehot_"), "{names:?}");
        assert!(names[2].starts_with("random_"), "{names:?}");
        // All three are distinct columns in the report.
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn geometry_is_valid_and_small() {
        let g = policy_geometry();
        g.validate().expect("valid");
        assert_eq!(g.capacity_bytes(), 16 << 20);
    }

    fn cell(policy: &str, workload: &str, reloc: &str, ipc: f64) -> PolicyCell {
        PolicyCell {
            policy: policy.into(),
            workload: workload.into(),
            reloc: reloc.into(),
            cores: 1,
            channels: 1,
            budget_split: "even".into(),
            placement: "same-bank".into(),
            frames_moved: 0,
            rows_remapped: 0,
            weighted_speedup: None,
            max_slowdown: None,
            ipc,
            ipc_per_core: vec![ipc],
            energy_j: 1e-3,
            avg_capacity_loss: 0.125,
            final_hp_fraction: 0.25,
            transitions: 10,
            relocation_stall_cycles: if reloc == "stall" { 100 } else { 0 },
            migration_jobs: if reloc == "background" { 10 } else { 0 },
            migration_slot_utilization: if reloc == "background" { 0.01 } else { 0.0 },
            row_hit_rate: 0.4,
            read_latency_p50: 40,
            read_latency_p95: 120,
            read_latency_p99: 250,
            slo_pass: true,
            slo_windows: 6,
            slo_violations: 0,
            slo_worst_read_p99: 310,
            read_latency_cycles: 4_000,
            read_blame_cycles: [0, 400, 0, 0, 0, 2_600, 0, 0, 0, 1_000],
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut contention = cell("hysteresis", "4core/2ch:mix", "background", 0.5);
        contention.cores = 4;
        contention.channels = 2;
        contention.budget_split = "demand".into();
        contention.ipc_per_core = vec![0.5; 4];
        contention.weighted_speedup = Some(3.2);
        contention.max_slowdown = Some(1.4);
        let mut placement = cell(
            "util-4-1",
            "2core/2ch:skewed:cross-channel",
            "background",
            0.6,
        );
        placement.placement = "cross-channel".into();
        placement.frames_moved = 12;
        placement.rows_remapped = 12;
        placement.weighted_speedup = Some(1.8);
        let report = PolicySweepReport {
            scale: Scale::Smoke,
            cells: vec![cell("topk", "phase_12m_h04", "background", 0.5)],
            contention: vec![contention],
            placement: vec![placement],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"clr-dram/policy-sweep/v7\""));
        assert!(json.contains("\"policy\": \"topk\""));
        assert!(json.contains("\"reloc\": \"background\""));
        assert!(json.contains("\"ipc_per_core\": [0.500000]"));
        // v3 axes on every cell; fairness metrics null outside the
        // contention array.
        assert!(json.contains("\"channels\": 1"));
        assert!(json.contains("\"weighted_speedup\": null"));
        assert!(json.contains("\"contention\": ["));
        assert!(json.contains("\"budget_split\": \"demand\""));
        assert!(json.contains("\"weighted_speedup\": 3.200000"));
        assert!(json.contains("\"max_slowdown\": 1.400000"));
        // v4: the placement axis on every cell plus the placement array.
        assert!(json.contains("\"placement\": \"same-bank\""));
        assert!(json.contains("\"placement\": ["));
        assert!(json.contains("\"placement\": \"cross-channel\""));
        assert!(json.contains("\"frames_moved\": 12"));
        assert!(json.contains("\"rows_remapped\": 12"));
        // v5: read-latency tail percentiles on every cell.
        assert!(json.contains("\"read_latency_p50\": 40"));
        assert!(json.contains("\"read_latency_p95\": 120"));
        assert!(json.contains("\"read_latency_p99\": 250"));
        // v6: the SLO verdict on every cell.
        assert!(json.contains("\"slo_pass\": true"));
        assert!(json.contains("\"slo_windows\": 6"));
        assert!(json.contains("\"slo_violations\": 0"));
        assert!(json.contains("\"slo_worst_read_p99\": 310"));
        // v7: wait-cause attribution on every cell — exact cycles and
        // the derived permille shares, keyed by stable cause labels.
        assert!(json.contains("\"read_latency_cycles\": 4000"));
        assert!(json.contains("\"blame_cycles\": {\"backpressure\": 0, \"refresh\": 400,"));
        assert!(json.contains("\"row_conflict\": 2600,"));
        assert!(json.contains("\"blame_permille\": {\"backpressure\": 0, \"refresh\": 100,"));
        assert!(json.contains("\"service\": 250}"));
        assert!(report.cell_for("topk", "phase_12m_h04").is_some());
        assert!(report
            .best_static_within_for(0.2, "phase_12m_h04")
            .is_none());
        // The contention table renders its fairness columns.
        let table = report.render_contention();
        assert!(table.contains("4core/2ch:mix"));
        assert!(table.contains("3.200"));
        // The placement table renders the frame-move columns.
        let ptable = report.render_placement();
        assert!(ptable.contains("cross-channel"));
        assert!(ptable.contains("12"));
        assert!(report.placement_cell("cross-channel").is_some());
        assert!(report.placement_cell("cross-bank").is_none());
    }

    #[test]
    fn placement_roster_shape() {
        let smoke = placement_roster(Scale::Smoke);
        assert_eq!(
            smoke,
            vec![DestinationPicker::SameBank, DestinationPicker::CrossChannel]
        );
        let full = placement_roster(Scale::Default);
        assert_eq!(full.len(), 3);
        assert!(full.contains(&DestinationPicker::CrossBank));
        // The skewed mix pins both cores' hot sets to channel 0 and its
        // workload names carry the skew suffix.
        let ws = skewed_workloads(Scale::Smoke);
        assert_eq!(ws.len(), 2);
        assert!(ws[0].name().starts_with("phase_") && ws[0].name().ends_with("_ch0"));
        assert!(ws[1].name().starts_with("stablehot_") && ws[1].name().ends_with("_ch0"));
    }

    #[test]
    fn contention_roster_shape() {
        // Smoke: exactly the two CI cells, both 2-channel background.
        let smoke = contention_roster(Scale::Smoke);
        assert_eq!(smoke.len(), 2);
        assert!(smoke.iter().all(|s| s.channels == 2));
        assert_eq!(smoke[0].workloads.len(), 2);
        assert!(matches!(
            smoke[0].policy,
            PolicySpec::UtilizationThreshold { .. }
        ));
        assert_eq!(smoke[1].workloads.len(), 4);
        assert!(matches!(smoke[1].policy, PolicySpec::Hysteresis));
        // Full cross at default scale: 2 policies × (cores {1,2} ×
        // (1ch even + 2ch even + 2ch demand) + cores 4 × 2ch-only) —
        // the 4-core mix does not fit a 1-channel device.
        let full = contention_roster(Scale::Default);
        assert_eq!(full.len(), 2 * (2 * 3 + 2));
        assert!(!full
            .iter()
            .any(|s| s.workloads.len() == 4 && s.channels == 1));
        assert!(full
            .iter()
            .any(|s| s.channels == 1 && matches!(s.split, BudgetSplit::EvenSplit)));
        assert!(full
            .iter()
            .any(|s| s.channels == 2 && s.split == BudgetSplit::demand_proportional()));
        // Workload mixes cycle the roster columns.
        let ws = contention_workloads(Scale::Smoke, 4);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].name(), ws[3].name());
        assert_ne!(ws[0].name(), ws[1].name());
    }

    #[test]
    fn reloc_axis_doubles_dynamic_policies_only() {
        assert_eq!(
            reloc_axis(PolicySpec::StaticSplit { fraction: 0.25 }).len(),
            1
        );
        let dynamic = reloc_axis(PolicySpec::Hysteresis);
        assert_eq!(dynamic.len(), 2);
        assert!(!dynamic[0].is_background());
        assert!(dynamic[1].is_background());
        assert_eq!(reloc_label(&dynamic[1]), "background");
    }

    #[test]
    fn cell_lookup_prefers_background_and_pairs_compare() {
        let report = PolicySweepReport {
            scale: Scale::Smoke,
            cells: vec![
                cell("hysteresis", "w", "stall", 0.40),
                cell("hysteresis", "w", "background", 0.45),
                cell("static-25", "w", "stall", 0.42),
            ],
            contention: Vec::new(),
            placement: Vec::new(),
        };
        assert_eq!(
            report.cell_for("hysteresis", "w").unwrap().reloc,
            "background"
        );
        assert_eq!(
            report.cell_with("hysteresis", "w", "stall").unwrap().ipc,
            0.40
        );
        let pairs = report.background_vs_stall();
        assert_eq!(pairs, vec![("hysteresis", "w", 0.45, 0.40)]);
    }
    /// Plans the rows `part` selects at `scale`, without simulating.
    fn planned(scale: Scale, part: SweepPart) -> (Vec<SweepRow>, Plan) {
        let rows = sweep_rows(scale, part).concat();
        let plan = plan(&rows, 42);
        (rows, plan)
    }

    #[test]
    fn plan_runs_each_distinct_simulation_once() {
        let (rows, plan) = planned(Scale::Smoke, SweepPart::All);
        assert_eq!((rows.len(), plan.jobs.len()), (38, 48));
        let (rows, plan) = planned(Scale::Default, SweepPart::Contention);
        assert_eq!((rows.len(), plan.jobs.len()), (16, 30));
        let (rows, plan) = planned(Scale::Default, SweepPart::All);
        assert_eq!((rows.len(), plan.jobs.len()), (53, 70));
        // Every job is distinct, and every row names its own job plus one
        // alone job per core exactly when it is fair.
        for (i, a) in plan.jobs.iter().enumerate() {
            assert!(plan.jobs[..i].iter().all(|b| b != a), "job {i} repeats");
        }
        for (row, (own, alone)) in rows.iter().zip(&plan.rows) {
            assert_eq!(plan.jobs[*own], (row.spec.clone(), 42));
            let cores = if row.fair {
                row.spec.workloads.len()
            } else {
                0
            };
            assert_eq!(alone.len(), cores, "{}", row.label);
            for (core, &j) in alone.iter().enumerate() {
                let (spec, seed) = &plan.jobs[j];
                assert_eq!(spec.workloads, vec![row.spec.workloads[core]]);
                assert_eq!(*seed, per_core_seed(42, core));
            }
        }
    }

    #[test]
    fn plan_shares_self_baselines_and_cross_section_jobs() {
        let (rows, plan) = planned(Scale::Default, SweepPart::All);
        let mut one_core = 0;
        for (row, (own, alone)) in rows.iter().zip(&plan.rows) {
            if row.fair && row.spec.workloads.len() == 1 {
                assert_eq!(alone, &vec![*own], "{} is its own baseline", row.label);
                one_core += 1;
            }
        }
        assert_eq!(
            one_core, 6,
            "1-core rows: 2 policies x 3 channel/split groups"
        );
        let own = |pred: &dyn Fn(&SweepRow) -> bool| {
            let i = rows.iter().position(pred).expect("row present");
            plan.rows[i].0
        };
        let policy_2core = own(&|r| r.label.starts_with("2core:"));
        let contention_2core = own(&|r| {
            r.label == "2core/1ch:phase+stablehot" && r.spec.policy == PolicySpec::Hysteresis
        });
        assert_eq!(policy_2core, contention_2core);
    }
}
