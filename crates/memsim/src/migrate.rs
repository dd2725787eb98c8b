//! The background row-migration engine: relocation as scheduled DRAM
//! traffic.
//!
//! A mode transition that couples a row (max-capacity →
//! high-performance) halves its usable capacity, so the half-row of data
//! the coupling displaces must physically move first. The legacy model
//! priced that movement as a controller-wide stall
//! ([`RelocationMode::Stall`]); this module instead decomposes each
//! coupling into a per-row [`MigrationJob`] whose phases are *real DRAM
//! commands* issued into idle bank slots:
//!
//! 1. **read-out** — ACT the source row in its current (max-capacity)
//!    mode, stream the displaced half-row out as RD bursts, PRE;
//! 2. **couple** — flip the row's [`ModeTable`] entry (the ISO control
//!    signals are applied at the next activation, §3.3 — no bus
//!    command);
//! 3. **write-back** — ACT the *destination frame* (the max-capacity row
//!    the capacity directory allocated for the displaced data) and
//!    stream the data back as WR bursts, PRE.
//!
//! Decoupling (high-performance → max-capacity) is free at the device
//! level — a coupled logical cell drives both physical cells, so each
//! cell already holds the stored bit — and is applied immediately, as in
//! the stall model.
//!
//! # Placement: one job, two sides
//!
//! Every job has a read-out side on its owning bank and a write-back
//! side on the destination frame's bank; where that frame lives is the
//! [`DestinationPicker`](crate::frames::DestinationPicker)'s call. With
//! **same-bank** placement both sides share one row buffer, so they
//! serialize: the write-back ACT opens only after the read-out PRE, and
//! it additionally waits for a write-drain episode. With a **cross-bank**
//! destination the sides run on two row buffers at once: the
//! destination's ACT issues while the read-out is still streaming (its
//! ACT/tRCD window hides under the read bursts), write bursts are
//! released as soon as the data they carry has been read
//! (`wr_remaining > rd_remaining`), and the couple point still gates the
//! completion so the mode flip always precedes it. Row blocking follows
//! the sides: the source row blocks until the couple point (reads stay
//! servable during read-out — the data sits intact in the row buffer),
//! the destination row blocks until the job completes, and each bank
//! blocks demand entirely only while the job holds *that bank's* row
//! buffer.
//!
//! Beyond couplings, the engine executes the capacity directory's
//! whole-row frame moves ([`JobKind`]): same-channel **evacuations**
//! (read a full max-capacity row out of one bank, write it into a frame
//! of another), and the two halves of a cross-channel move — an
//! **evacuate-out** (read-out only; the data leaves the channel) and a
//! **fill-in** (write-back only; the data arrives from another channel),
//! staged by [`MemorySystem::pump_placement`]. Completed placement work
//! is reported as [`PlacementEvent`]s so the system can install
//! [`RemapTable`](crate::system::RemapTable) entries.
//!
//! Jobs queue per owning bank and at most one in-flight job has a side
//! on any bank (a same-bank job has both there). Under
//! [`RelocationMode::Background`] a job *starts* only on a cycle where
//! no demand command could issue, on a bank with no queued demand,
//! outside the tRRD shadow of imminent demand activates; once a phase's
//! ACT has issued, the burst train finishes contiguously, and a job that
//! demand is actually waiting on finishes at demand priority. Same-bank
//! write-back phases preferentially ride write-drain episodes. An
//! optional [`MigrationRate`] caps job starts per cycle window.
//!
//! The engine is driven by the controller, which owns all protocol state;
//! this module tracks job progress and answers two questions the
//! controller's event model needs: *which command would migration issue
//! next on bank `b`*, and *from which cycle onward is migration allowed
//! to issue at all* (the rate-limiter window). Both are constant across a
//! dead window — a write burst gated on unread data has no command, and
//! the read that releases it is itself an event — so the skip-ahead
//! bound stays exact.
//!
//! [`ModeTable`]: clr_core::mode::ModeTable
//! [`MemorySystem::pump_placement`]: crate::system::MemorySystem::pump_placement

use std::collections::{BTreeSet, VecDeque};

use clr_core::mode::RowMode;

use crate::command::Command;

/// How mode-transition data movement is realized by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocationMode {
    /// Legacy stall-the-world: the batch's priced cost is charged as a
    /// controller-wide queue-service stall and the mode table flips
    /// atomically.
    Stall,
    /// Background migration: couplings become per-row jobs that start
    /// only in idle bank slots; an in-flight job finishes eagerly so its
    /// bank unblocks quickly.
    Background,
}

/// Rate limit on background-migration bandwidth: at most `max_starts`
/// migration *jobs may start* per `window_cycles`-cycle window (windows
/// are aligned to cycle 0, so the limit is deterministic and skip-ahead
/// can price the next window boundary exactly). Limiting starts rather
/// than individual commands caps bandwidth — every start implies one
/// job's fixed command budget — without ever gating an in-flight job,
/// which would leave its bank blocked while waiting for tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRate {
    /// Window length in DRAM cycles.
    pub window_cycles: u64,
    /// Migration-job starts allowed per window.
    pub max_starts: u64,
}

/// Relocation configuration carried by
/// [`MemConfig`](crate::config::MemConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationConfig {
    /// The relocation realization.
    pub mode: RelocationMode,
    /// Optional migration-bandwidth cap (background modes only).
    pub rate: Option<MigrationRate>,
}

impl MigrationRate {
    /// A moderate default pacing: four job starts per 2048-cycle window
    /// (≈7 % of command-bus slots at this crate's default job sizes) —
    /// enough to drain a sane policy's per-epoch batch within the epoch,
    /// while a pathologically churning policy cannot flood the bus with
    /// relocation traffic.
    pub fn default_pacing() -> Self {
        MigrationRate {
            window_cycles: 2048,
            max_starts: 4,
        }
    }
}

impl RelocationConfig {
    /// Pure background migration, unlimited bandwidth.
    pub fn background() -> Self {
        RelocationConfig {
            mode: RelocationMode::Background,
            rate: None,
        }
    }

    /// Background migration with the default start pacing
    /// ([`MigrationRate::default_pacing`]).
    pub fn background_paced() -> Self {
        RelocationConfig {
            mode: RelocationMode::Background,
            rate: Some(MigrationRate::default_pacing()),
        }
    }

    /// Whether this configuration migrates in the background (any
    /// non-stall mode).
    pub fn is_background(&self) -> bool {
        self.mode != RelocationMode::Stall
    }
}

impl Default for RelocationConfig {
    fn default() -> Self {
        RelocationConfig {
            mode: RelocationMode::Stall,
            rate: None,
        }
    }
}

/// What a migration job moves and why — the capacity directory's job
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A mode-transition coupling: half a row out of the source, mode
    /// flip at the couple point, half a row into the destination frame.
    Couple,
    /// A same-channel whole-row frame move: a full max-capacity row out
    /// of one bank into a free frame of another. No mode flip; the
    /// vacated source becomes a free frame (and the system remaps the
    /// row's address).
    Evacuate,
    /// The source half of a cross-channel frame move: a full row read
    /// out; the data leaves this channel (staged by the system).
    EvacuateOut,
    /// The destination half of a cross-channel frame move: a full row
    /// written into a local frame; the data arrived from another
    /// channel.
    FillIn,
}

/// Execution state of a job's two sides: the read-out on the owning bank
/// and the write-back on the destination frame's bank. Sides on one bank
/// share its row buffer, so the write-back opens only after the
/// read-out's PRE; sides on two banks progress concurrently. A fill-in
/// has no read-out side (`src_done` from dispatch), an evacuate-out no
/// write-back side (`wr_remaining` 0).
#[derive(Debug, Clone, Copy)]
struct JobState {
    /// Whether the read-out ACT has issued.
    src_opened: bool,
    /// RD bursts remaining.
    rd_remaining: u32,
    /// Whether the read-out side finished (its PRE issued).
    src_done: bool,
    /// Whether the write-back ACT has issued.
    dest_opened: bool,
    /// WR bursts remaining.
    wr_remaining: u32,
}

impl JobState {
    /// A fresh job moving `rd` bursts out and `wr` bursts back.
    fn new(rd: u32, wr: u32) -> Self {
        JobState {
            src_opened: false,
            rd_remaining: rd,
            src_done: rd == 0,
            dest_opened: false,
            wr_remaining: wr,
        }
    }
}

/// One row's relocation, decomposed into commands.
#[derive(Debug, Clone, Copy)]
pub struct MigrationJob {
    /// What the job moves (see [`JobKind`]).
    pub kind: JobKind,
    /// The source row (for [`JobKind::FillIn`], equal to `dest`).
    pub row: u32,
    /// The destination frame row (`u32::MAX` for
    /// [`JobKind::EvacuateOut`], whose data leaves the channel).
    pub dest: u32,
    /// The destination frame's flat bank (the owning bank for same-bank
    /// couplings and fill-ins; `u32::MAX` for evacuate-outs).
    pub dest_bank: u32,
    /// Mode before the transition (the mode the source is read in).
    pub from: RowMode,
    /// Mode after the transition (couplings only; frame moves keep
    /// max-capacity).
    pub to: RowMode,
    /// Cycle the job was dispatched, for end-to-end job latency.
    pub dispatched_at: u64,
    state: JobState,
}

impl MigrationJob {
    /// The bank the destination side runs on, when it differs from the
    /// owning bank.
    fn cross_dest_bank(&self, owning: usize) -> Option<usize> {
        if self.dest_bank == u32::MAX || self.dest_bank as usize == owning {
            None
        } else {
            Some(self.dest_bank as usize)
        }
    }

    /// Whether the job has a read-out side (every kind but a fill-in).
    fn has_src_side(&self) -> bool {
        !matches!(self.kind, JobKind::FillIn)
    }
}

/// The migration command the engine wants to issue next on a bank, with
/// the mode its timing must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextMigrationCommand {
    /// The command.
    pub command: Command,
    /// Row the command targets (the job row for ACT/RD/WR; the bank's
    /// open row for a starting PRE).
    pub row: u32,
    /// Mode governing the command's timings.
    pub mode: RowMode,
}

/// What happened when the controller told the engine a migration command
/// issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStep {
    /// The job made progress but still owns its bank(s).
    InProgress,
    /// The read-out phase finished: the controller must flip the row's
    /// mode-table entry now (the couple point).
    Couple {
        /// Row to flip.
        row: u32,
        /// Mode to flip it to.
        to: RowMode,
    },
    /// A coupling finished; its banks are free again.
    Complete {
        /// The migrated row.
        row: u32,
        /// Its (already applied) final mode.
        to: RowMode,
        /// Whether the destination frame lived in another bank (the
        /// overlapped two-bank execution).
        cross_bank: bool,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
    /// A same-channel whole-row frame move finished; the vacated source
    /// is now a free frame.
    Evacuated {
        /// Source bank vacated.
        bank: u32,
        /// Source row vacated.
        row: u32,
        /// Destination bank filled.
        dest_bank: u32,
        /// Destination row filled.
        dest: u32,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
    /// A cross-channel move's read-out half finished; the row's data is
    /// staged for a fill on another channel (the source row stays
    /// reserved until the system confirms the landing).
    StagedOut {
        /// Source bank read out.
        bank: u32,
        /// Source row read out.
        row: u32,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
    /// A cross-channel move's write-back half finished; the data landed
    /// in this channel's frame.
    Filled {
        /// Destination bank filled.
        bank: u32,
        /// Destination row filled.
        row: u32,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
}

/// A completed placement action, drained by the memory system to update
/// the capacity directory and the remap table. `bank`/`row` is the
/// source location, `dest_bank`/`dest` the destination (both `u32::MAX`
/// for [`JobKind::EvacuateOut`], whose destination lives on another
/// channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementEvent {
    /// What kind of job completed.
    pub kind: JobKind,
    /// Source flat bank.
    pub bank: u32,
    /// Source row.
    pub row: u32,
    /// Destination flat bank.
    pub dest_bank: u32,
    /// Destination row.
    pub dest: u32,
}

/// Per-bank job queues plus the rate limiter — the bookkeeping half of
/// background migration (the controller owns all protocol state).
#[derive(Debug)]
pub struct MigrationEngine {
    cfg: RelocationConfig,
    /// Column bursts per coupling phase: the displaced half-row at one
    /// burst per column access (matches the relocation cost model's
    /// `bursts_per_row`). Whole-row frame moves transfer twice this.
    bursts_per_phase: u32,
    queues: Vec<VecDeque<MigrationJob>>,
    active: Vec<Option<MigrationJob>>,
    /// For banks serving as the *destination* side of an active job: the
    /// owning bank (the bank itself when both sides share it).
    dest_of: Vec<Option<usize>>,
    /// Banks with an in-flight migration role (job source or
    /// destination).
    busy: Vec<bool>,
    /// Banks whose in-flight role currently *holds the row buffer* (its
    /// side's ACT has issued): the whole bank blocks demand. Otherwise
    /// only the migrating row blocks (see `row_block`).
    held: Vec<bool>,
    /// The migrating row per bank (`u32::MAX` when none): demand to this
    /// row waits — its content is in flux — while the bank's other rows
    /// stay schedulable whenever the bank is not held.
    row_block: Vec<u32>,
    /// The source row per bank while its job is in the read-out phase
    /// (`u32::MAX` otherwise): reads to it remain servable (see
    /// [`MigrationEngine::read_ok_rows`]).
    readout_src: Vec<u32>,
    /// Every `(bank, row)` with a pending migration role (queued or in
    /// flight, source or destination) or an external reservation by the
    /// capacity directory — the "do not touch" set pickers and
    /// dispatchers consult.
    reserved: BTreeSet<(u32, u32)>,
    pending_jobs: usize,
    /// Completed coupling `(bank, row, mode)` transitions awaiting a
    /// drain by the policy driver.
    completed: Vec<(u32, u32, RowMode)>,
    /// Completed frame-placement actions awaiting a drain by the memory
    /// system.
    placements: Vec<PlacementEvent>,
    /// Whether completed *couplings* with cross-bank destinations are
    /// also recorded as placement events. Off by default: the system
    /// pump ignores them (couplings need no remap), so recording them
    /// unconditionally would grow `placements` without bound on runs
    /// that never drain it. Audits (the workspace consistency test)
    /// switch it on.
    log_couple_placements: bool,
    /// Rate-limiter state: the window index last charged and the
    /// commands issued within it.
    window_index: u64,
    issued_in_window: u64,
    /// Round-robin start bank so one bank's backlog cannot starve the
    /// others.
    rr_next: usize,
}

impl MigrationEngine {
    /// An engine for `banks` banks moving `half_row_bytes` per coupling
    /// phase at `burst_bytes` per column access.
    pub fn new(cfg: RelocationConfig, banks: usize, half_row_bytes: u64, burst_bytes: u64) -> Self {
        let bursts = half_row_bytes.div_ceil(burst_bytes.max(1)).max(1) as u32;
        MigrationEngine {
            cfg,
            bursts_per_phase: bursts,
            queues: vec![VecDeque::new(); banks],
            active: vec![None; banks],
            dest_of: vec![None; banks],
            busy: vec![false; banks],
            held: vec![false; banks],
            row_block: vec![u32::MAX; banks],
            readout_src: vec![u32::MAX; banks],
            reserved: BTreeSet::new(),
            pending_jobs: 0,
            completed: Vec::new(),
            placements: Vec::new(),
            log_couple_placements: false,
            window_index: 0,
            issued_in_window: 0,
            rr_next: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RelocationConfig {
        &self.cfg
    }

    /// Starts recording completed cross-bank couplings as placement
    /// events (frame moves are always recorded — the system pump
    /// consumes them; coupling events exist for audits and debugging).
    pub fn enable_couple_placement_log(&mut self) {
        self.log_couple_placements = true;
    }

    /// Column bursts per coupling phase.
    pub fn bursts_per_phase(&self) -> u32 {
        self.bursts_per_phase
    }

    /// Column bursts of a whole-row frame move (both halves of the row).
    pub fn bursts_per_frame_move(&self) -> u32 {
        self.bursts_per_phase * 2
    }

    /// Jobs dispatched but not yet complete (queued + in flight).
    pub fn pending_jobs(&self) -> usize {
        self.pending_jobs
    }

    /// Whether bank `b` has an in-flight migration role (job source or
    /// destination; started, not complete).
    pub fn is_busy(&self, bank: usize) -> bool {
        self.busy[bank]
    }

    /// Whether bank `b` has any migration work to consider at all — an
    /// in-flight role (source or destination) or a queued job. O(1), so
    /// the controller's per-tick scans can skip workless banks before
    /// paying any eligibility or timing checks.
    pub fn bank_has_work(&self, bank: usize) -> bool {
        self.busy[bank] || self.active[bank].is_some() || !self.queues[bank].is_empty()
    }

    /// Whether bank `b`'s in-flight role is mid-burst-train (its side's
    /// ACT has issued, so the role holds the row buffer and the whole
    /// bank blocks demand). A mid-phase burst train should finish
    /// contiguously: dribbling the bursts one idle slot at a time would
    /// pay the rank-level read/write turnaround penalties once per burst
    /// instead of once per train.
    pub fn is_mid_phase(&self, bank: usize) -> bool {
        self.held[bank]
    }

    /// Whether bank `b`'s in-flight *same-bank* job is waiting to open
    /// its write-back side (read-out PRE issued, write-back ACT not yet).
    /// The controller aligns these with write-drain episodes: a WR burst
    /// train injected while the rank serves reads pays a write→read
    /// turnaround that blocks the whole rank, but during a drain the bus
    /// is already turned around for writes. Cross-bank destinations are
    /// exempt — hiding the destination ACT under the read-out is the
    /// point of the placement — and so are fill-ins, which have no
    /// read-out to follow.
    pub fn pending_writeback_act(&self, bank: usize) -> bool {
        self.active[bank].is_some_and(|j| {
            j.has_src_side()
                && j.dest_bank as usize == bank
                && j.state.src_done
                && !j.state.dest_opened
        })
    }

    /// Per-bank whole-bank demand-blocking flags for the scheduler: set
    /// exactly while a migration role holds the bank's row buffer.
    pub fn held_banks(&self) -> &[bool] {
        &self.held
    }

    /// Per-bank migrating-row blocks for the scheduler (`u32::MAX` =
    /// none): the row whose content is in flux for the role's lifetime.
    pub fn blocked_rows(&self) -> &[u32] {
        &self.row_block
    }

    /// Per-bank rows whose *reads* remain servable despite the block
    /// (`u32::MAX` = none): during the read-out phase the source row sits
    /// intact in the row buffer, so demand read hits interleave with the
    /// migration's own RD bursts — only writes must wait (they would be
    /// lost behind the data already streamed out).
    pub fn read_ok_rows(&self) -> &[u32] {
        &self.readout_src
    }

    /// The migrating row on `bank`, if a role is in flight there.
    pub fn blocked_row(&self, bank: usize) -> Option<u32> {
        let r = self.row_block[bank];
        (r != u32::MAX).then_some(r)
    }

    /// Whether `(bank, row)` has a pending migration role (queued or in
    /// flight, as source *or* destination) or an external reservation.
    pub fn is_row_pending(&self, bank: usize, row: u32) -> bool {
        self.reserved.contains(&(bank as u32, row))
    }

    /// Reserves `(bank, row)` for the capacity directory (e.g. the
    /// destination frame of a cross-channel move scheduled but not yet
    /// dispatched on this channel). Returns `false` if the row already
    /// has a pending role.
    pub fn reserve(&mut self, bank: usize, row: u32) -> bool {
        self.reserved.insert((bank as u32, row))
    }

    /// Releases an external reservation (or a staged-out source row once
    /// its move has landed elsewhere). Returns whether it was held.
    pub fn release(&mut self, bank: usize, row: u32) -> bool {
        self.reserved.remove(&(bank as u32, row))
    }

    /// Dispatches one coupling job whose displaced data lands in the
    /// max-capacity frame `(dest_bank, dest)`: `dest_bank == bank`
    /// serializes the two sides on one row buffer, anything else overlaps
    /// them on two banks. Returns `false` (and does nothing) if either
    /// row already has a pending role or the coordinates are degenerate.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_couple(
        &mut self,
        bank: usize,
        row: u32,
        dest_bank: usize,
        dest: u32,
        from: RowMode,
        to: RowMode,
        now: u64,
    ) -> bool {
        if self.is_row_pending(bank, row)
            || self.is_row_pending(dest_bank, dest)
            || (bank == dest_bank && row == dest)
        {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::Couple,
                row,
                dest,
                dest_bank: dest_bank as u32,
                from,
                to,
                dispatched_at: now,
                state: JobState::new(self.bursts_per_phase, self.bursts_per_phase),
            },
        );
        true
    }

    /// Dispatches a same-channel whole-row frame move: the full
    /// max-capacity row `(bank, row)` is read out and written into the
    /// frame `(dest_bank, dest)` of a *different* bank. Returns `false`
    /// if either row has a pending role or the banks coincide.
    pub fn dispatch_evacuate(
        &mut self,
        bank: usize,
        row: u32,
        dest_bank: usize,
        dest: u32,
        now: u64,
    ) -> bool {
        if bank == dest_bank
            || self.is_row_pending(bank, row)
            || self.is_row_pending(dest_bank, dest)
        {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::Evacuate,
                row,
                dest,
                dest_bank: dest_bank as u32,
                from: RowMode::MaxCapacity,
                to: RowMode::MaxCapacity,
                dispatched_at: now,
                state: JobState::new(self.bursts_per_frame_move(), self.bursts_per_frame_move()),
            },
        );
        true
    }

    /// Dispatches the read-out half of a cross-channel frame move: the
    /// full row `(bank, row)` is streamed out; on completion the data is
    /// staged (the row stays reserved until the system confirms the
    /// landing and releases it). Returns `false` if the row has a
    /// pending role.
    pub fn dispatch_evacuate_out(&mut self, bank: usize, row: u32, now: u64) -> bool {
        if self.is_row_pending(bank, row) {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::EvacuateOut,
                row,
                dest: u32::MAX,
                dest_bank: u32::MAX,
                from: RowMode::MaxCapacity,
                to: RowMode::MaxCapacity,
                dispatched_at: now,
                state: JobState::new(self.bursts_per_frame_move(), 0),
            },
        );
        true
    }

    /// Dispatches the write-back half of a cross-channel frame move: a
    /// full row's worth of data (staged by the system) is written into
    /// the frame `(bank, row)`. An external [`MigrationEngine::reserve`]
    /// held for exactly this frame is adopted by the job. Returns
    /// `false` if the row is pending under a *different* role.
    pub fn dispatch_fill(
        &mut self,
        bank: usize,
        row: u32,
        reserved_by_caller: bool,
        now: u64,
    ) -> bool {
        if reserved_by_caller {
            // The caller's reservation becomes the job's own entry.
            if !self.reserved.contains(&(bank as u32, row)) {
                return false;
            }
        } else if self.is_row_pending(bank, row) {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::FillIn,
                row,
                dest: row,
                dest_bank: bank as u32,
                from: RowMode::MaxCapacity,
                to: RowMode::MaxCapacity,
                dispatched_at: now,
                state: JobState::new(0, self.bursts_per_frame_move()),
            },
        );
        true
    }

    fn enqueue_job(&mut self, bank: usize, job: MigrationJob) {
        self.reserved.insert((bank as u32, job.row));
        if job.dest_bank != u32::MAX {
            self.reserved.insert((job.dest_bank, job.dest));
        }
        // The capacity directory's frame moves are few and system-wide
        // (a stuck move pins reservations on two channels), so they jump
        // the bank's coupling backlog; couplings keep FIFO order among
        // themselves.
        match job.kind {
            JobKind::Couple => self.queues[bank].push_back(job),
            _ => self.queues[bank].push_front(job),
        }
        self.pending_jobs += 1;
    }

    /// Whether the front job of `bank`'s queue cannot start because a
    /// migration role already occupies one of its banks.
    fn start_blocked(&self, bank: usize) -> bool {
        if self.active[bank].is_some() || self.dest_of[bank].is_some() {
            return true;
        }
        self.queues[bank].front().is_some_and(|j| {
            j.cross_dest_bank(bank)
                .is_some_and(|db| self.active[db].is_some() || self.dest_of[db].is_some())
        })
    }

    /// The first command of a queued job: the read-out ACT of its
    /// source, or — for a fill-in — the write-back ACT of its frame.
    fn start_target(job: &MigrationJob) -> (u32, RowMode) {
        match job.kind {
            JobKind::FillIn => (job.dest, RowMode::MaxCapacity),
            _ => (job.row, job.from),
        }
    }

    /// The queued job a closed `bank` could start next, as
    /// `(row, mode)` of its first ACT — the event-bound input for start
    /// candidates. `None` while any of the job's banks is occupied by
    /// another migration role (the occupying job's completion is an
    /// event, so the bound stays exact).
    pub fn queued_start(&self, bank: usize) -> Option<(u32, RowMode)> {
        if self.start_blocked(bank) {
            return None;
        }
        self.queues[bank].front().map(Self::start_target)
    }

    /// The earliest cycle ≥ `now` at which the rate limiter permits a
    /// migration job to *start* (`now` itself when unlimited or under
    /// budget, the next window boundary when the current window's starts
    /// are exhausted). In-flight jobs are never rate-gated.
    pub fn rate_gate(&self, now: u64) -> u64 {
        let Some(rate) = self.cfg.rate else {
            return now;
        };
        let idx = now / rate.window_cycles;
        if idx != self.window_index || self.issued_in_window < rate.max_starts {
            now
        } else {
            (idx + 1) * rate.window_cycles
        }
    }

    /// The read-out-side command of an in-flight job on its owning bank,
    /// `None` once that side is done (or for a fill-in, which has none).
    fn src_side_command(
        job: &MigrationJob,
        open: Option<(u32, RowMode)>,
    ) -> Option<NextMigrationCommand> {
        let s = job.state;
        if s.src_done {
            return None;
        }
        let (command, (row, mode)) = if !s.src_opened {
            match open {
                // A demand row (or refresh leftover) occupies the buffer;
                // close it before (re-)activating.
                Some(open) => (Command::Pre, open),
                None => (Command::Act, (job.row, job.from)),
            }
        } else if s.rd_remaining > 0 {
            (Command::Rd, open.expect("read-out holds the bank open"))
        } else {
            (Command::Pre, open.expect("read-out holds the bank open"))
        };
        Some(NextMigrationCommand { command, row, mode })
    }

    /// The write-back-side command of an in-flight job on its destination
    /// bank. `None` while the side is blocked on unread data or on the
    /// couple point — both released by source-side events.
    fn dest_side_command(
        job: &MigrationJob,
        open: Option<(u32, RowMode)>,
    ) -> Option<NextMigrationCommand> {
        let s = job.state;
        let (command, (row, mode)) = if !s.dest_opened {
            match open {
                // A demand row occupies the destination's buffer; close
                // it first.
                Some(open) => (Command::Pre, open),
                // On another bank the write-back ACT may issue any time
                // from the job's start: hiding its ACT/tRCD window under
                // the read-out is the overlap a cross-bank placement buys.
                None => (Command::Act, (job.dest, RowMode::MaxCapacity)),
            }
        } else if s.wr_remaining > 0 {
            // A write burst may only carry data that has been read:
            // wr_remaining must stay strictly behind rd_remaining.
            if s.wr_remaining <= s.rd_remaining {
                return None;
            }
            (Command::Wr, open.expect("write-back holds the bank open"))
        } else if !s.src_done {
            // All data written but the source has not precharged (the
            // couple point, for couplings): completion must not outrun
            // it.
            return None;
        } else {
            (Command::Pre, open.expect("write-back holds the bank open"))
        };
        Some(NextMigrationCommand { command, row, mode })
    }

    /// The command migration would issue next on `bank`, given the bank's
    /// open row/mode (`None` when the bank has no migration work it may
    /// progress). Pure bookkeeping: timing readiness is the
    /// controller's engine's call. A queued job starts with ACT on a
    /// closed bank; an open bank is demand territory.
    pub fn next_command(
        &self,
        bank: usize,
        open: Option<(u32, RowMode)>,
    ) -> Option<NextMigrationCommand> {
        if let Some(job) = self.active[bank].as_ref() {
            // The read-out side asks first, so a write-back sharing this
            // bank opens only after the read-out's PRE.
            if let Some(cmd) = Self::src_side_command(job, open) {
                return Some(cmd);
            }
        }
        if let Some(owner) = self.dest_of[bank] {
            let job = self.active[owner]
                .as_ref()
                .expect("dest role implies an active owner");
            return Self::dest_side_command(job, open);
        }
        if self.active[bank].is_some() {
            // A cross-bank owner past its couple point: nothing more to
            // issue here.
            return None;
        }
        if open.is_some() {
            return None;
        }
        let (row, mode) = self.queued_start(bank)?;
        Some(NextMigrationCommand {
            command: Command::Act,
            row,
            mode,
        })
    }

    /// The side `bank` serves, as the owning bank of its job and whether
    /// the side is the read-out (the owning bank's, until its PRE) rather
    /// than the write-back. `None` when the bank has no migration role.
    fn role(&self, bank: usize) -> Option<(usize, bool)> {
        if self.active[bank].is_some_and(|j| !j.state.src_done) {
            Some((bank, true))
        } else {
            self.dest_of[bank].map(|owner| (owner, false))
        }
    }

    fn state_mut(&mut self, owner: usize) -> &mut JobState {
        &mut self.active[owner].as_mut().expect("active owner").state
    }

    /// Records that a migration ACT issued on `bank` (installs the
    /// owning job as active first if it was still queued).
    pub fn note_act(&mut self, bank: usize, now: u64) {
        self.bump(bank);
        if self.active[bank].is_none() && self.dest_of[bank].is_none() {
            self.start(bank, now);
        }
        let (owner, reading) = self.role(bank).expect("ACT requires a migration role");
        let s = self.state_mut(owner);
        if reading {
            debug_assert!(!s.src_opened, "double read-out ACT");
            s.src_opened = true;
        } else {
            debug_assert!(!s.dest_opened, "double write-back ACT");
            s.dest_opened = true;
        }
        self.held[bank] = true;
    }

    /// Records that a migration column burst issued on `bank`.
    pub fn note_column(&mut self, bank: usize, _now: u64) {
        self.bump(bank);
        let (owner, reading) = self.role(bank).expect("column requires a migration role");
        let s = self.state_mut(owner);
        if reading {
            debug_assert!(s.src_opened && s.rd_remaining > 0);
            s.rd_remaining -= 1;
        } else {
            debug_assert!(s.dest_opened && s.wr_remaining > s.rd_remaining);
            s.wr_remaining -= 1;
        }
    }

    /// Records that a migration PRE issued on `bank`: a side's
    /// phase-ending PRE, or a demand-row close before a side's
    /// (re-)ACT. Returns the resulting step so the controller can apply
    /// couple points, completions, and placement bookkeeping.
    pub fn note_pre(&mut self, bank: usize) -> MigrationStep {
        self.bump(bank);
        let (owner, reading) = self
            .role(bank)
            .expect("migration PRE on a bank no job owns");
        let s = self.state_mut(owner);
        let opened = if reading { s.src_opened } else { s.dest_opened };
        if !opened {
            // The PRE closed a demand row ahead of the side's (re-)ACT.
            return MigrationStep::InProgress;
        }
        if !reading {
            debug_assert_eq!(s.wr_remaining, 0, "PRE before the write-back drained");
            debug_assert!(s.src_done, "completion must not outrun the couple point");
            self.held[bank] = false;
            return self.complete_job(owner);
        }
        debug_assert_eq!(s.rd_remaining, 0, "PRE before the read-out drained");
        s.src_done = true;
        self.held[bank] = false;
        self.readout_src[bank] = u32::MAX;
        let job = self.active[bank].expect("reading implies an active job");
        match job.kind {
            JobKind::Couple => {
                // The couple point: the source row is usable in its new
                // mode from here; only the destination frame still
                // blocks, on whichever bank it lives.
                self.row_block[bank] = if job.dest_bank as usize == bank {
                    job.dest
                } else {
                    u32::MAX
                };
                MigrationStep::Couple {
                    row: job.row,
                    to: job.to,
                }
            }
            // The data is staged in flight to the other bank; the
            // vacated row stays blocked until the move lands.
            JobKind::Evacuate => MigrationStep::InProgress,
            JobKind::EvacuateOut => {
                // Single-sided: the read-out completes the job. The
                // source row's reservation survives until the system
                // confirms the landing on the other channel. The *demand*
                // block is released here, though: row blocks are tied to
                // in-flight roles, so a demand write landing in the
                // staging window (before the fill lands and the remap
                // swap redirects the address) is a known fidelity
                // approximation of this data-less model — it costs
                // nothing in timing, and the staging window is bounded by
                // the pump cadence (see the ROADMAP open item).
                self.active[bank] = None;
                self.busy[bank] = false;
                self.row_block[bank] = u32::MAX;
                self.pending_jobs -= 1;
                self.placements.push(PlacementEvent {
                    kind: JobKind::EvacuateOut,
                    bank: bank as u32,
                    row: job.row,
                    dest_bank: u32::MAX,
                    dest: u32::MAX,
                });
                MigrationStep::StagedOut {
                    bank: bank as u32,
                    row: job.row,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::FillIn => unreachable!("fill-ins have no source side"),
        }
    }

    /// Finishes the active job owned by `owner`, releasing every role
    /// and reservation it held and emitting its completion records.
    fn complete_job(&mut self, owner: usize) -> MigrationStep {
        let job = self.active[owner].take().expect("completing an active job");
        self.busy[owner] = false;
        self.row_block[owner] = u32::MAX;
        self.readout_src[owner] = u32::MAX;
        if let Some(db) = job.cross_dest_bank(owner) {
            self.dest_of[db] = None;
            self.busy[db] = false;
            self.row_block[db] = u32::MAX;
        }
        if owner as u32 == job.dest_bank {
            self.dest_of[owner] = None;
        }
        self.pending_jobs -= 1;
        self.reserved.remove(&(owner as u32, job.row));
        if job.dest_bank != u32::MAX {
            self.reserved.remove(&(job.dest_bank, job.dest));
        }
        match job.kind {
            JobKind::Couple => {
                self.completed.push((owner as u32, job.row, job.to));
                let cross_bank = job.dest_bank as usize != owner;
                if cross_bank && self.log_couple_placements {
                    self.placements.push(PlacementEvent {
                        kind: JobKind::Couple,
                        bank: owner as u32,
                        row: job.row,
                        dest_bank: job.dest_bank,
                        dest: job.dest,
                    });
                }
                MigrationStep::Complete {
                    row: job.row,
                    to: job.to,
                    cross_bank,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::Evacuate => {
                self.placements.push(PlacementEvent {
                    kind: JobKind::Evacuate,
                    bank: owner as u32,
                    row: job.row,
                    dest_bank: job.dest_bank,
                    dest: job.dest,
                });
                MigrationStep::Evacuated {
                    bank: owner as u32,
                    row: job.row,
                    dest_bank: job.dest_bank,
                    dest: job.dest,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::FillIn => {
                self.placements.push(PlacementEvent {
                    kind: JobKind::FillIn,
                    bank: owner as u32,
                    row: job.dest,
                    dest_bank: job.dest_bank,
                    dest: job.dest,
                });
                MigrationStep::Filled {
                    bank: job.dest_bank,
                    row: job.dest,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::EvacuateOut => unreachable!("evacuate-outs complete at their source PRE"),
        }
    }

    /// A refresh (or other controller-side maintenance) precharged `bank`
    /// out from under an in-flight migration role: that side must
    /// re-activate before continuing.
    pub fn on_forced_precharge(&mut self, bank: usize) {
        if let Some((owner, reading)) = self.role(bank) {
            let s = self.state_mut(owner);
            if reading {
                s.src_opened = false;
            } else {
                s.dest_opened = false;
            }
            self.held[bank] = false;
        }
    }

    /// The bank the round-robin scan should visit first.
    pub fn rr_start(&self) -> usize {
        self.rr_next
    }

    /// Drains completed coupling `(bank, row, mode)` transitions into
    /// `out` (clearing `out` first).
    pub fn drain_completed_into(&mut self, out: &mut Vec<(u32, u32, RowMode)>) {
        out.clear();
        out.append(&mut self.completed);
    }

    /// Drains completed placement actions (evacuations, staged
    /// read-outs, fills, cross-bank couplings) into `out` (clearing
    /// `out` first).
    pub fn drain_placements_into(&mut self, out: &mut Vec<PlacementEvent>) {
        out.clear();
        out.append(&mut self.placements);
    }

    /// Installs the bank's front job as in flight, charging one start
    /// against the rate window.
    fn start(&mut self, bank: usize, now: u64) {
        if let Some(rate) = self.cfg.rate {
            let idx = now / rate.window_cycles;
            if idx != self.window_index {
                self.window_index = idx;
                self.issued_in_window = 0;
            }
            self.issued_in_window += 1;
        }
        let job = self.queues[bank]
            .pop_front()
            .expect("start requires a queued job");
        self.busy[bank] = true;
        if job.has_src_side() {
            self.row_block[bank] = job.row;
            self.readout_src[bank] = job.row;
        } else {
            self.row_block[bank] = job.dest;
        }
        if job.dest_bank as usize == bank {
            // The owning bank doubles as the destination bank.
            self.dest_of[bank] = Some(bank);
        } else if let Some(db) = job.cross_dest_bank(bank) {
            self.dest_of[db] = Some(bank);
            self.busy[db] = true;
            self.row_block[db] = job.dest;
        }
        self.active[bank] = Some(job);
    }

    fn bump(&mut self, bank: usize) {
        self.rr_next = (bank + 1) % self.queues.len().max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(rate: Option<MigrationRate>) -> MigrationEngine {
        MigrationEngine::new(
            RelocationConfig {
                mode: RelocationMode::Background,
                rate,
            },
            4,
            1024,
            64,
        )
    }

    #[test]
    fn job_walks_read_out_couple_write_back() {
        let mut e = engine(None);
        assert!(e.dispatch_couple(
            1,
            7,
            1,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0
        ));
        assert!(!e.dispatch_couple(
            1,
            7,
            1,
            41,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0
        ));
        assert!(
            !e.dispatch_couple(
                1,
                9,
                1,
                40,
                RowMode::MaxCapacity,
                RowMode::HighPerformance,
                0
            ),
            "a busy destination frame refuses a second job"
        );
        assert_eq!(e.pending_jobs(), 1);
        assert_eq!(e.bursts_per_phase(), 16);

        // Bank closed → first command is the read-out ACT in the old mode.
        assert_eq!(e.queued_start(1), Some((7, RowMode::MaxCapacity)));
        let c = e.next_command(1, None).unwrap();
        assert_eq!(c.command, Command::Act);
        assert_eq!(c.mode, RowMode::MaxCapacity);
        assert_eq!(c.row, 7);
        e.note_act(1, 0);
        assert!(e.is_busy(1));
        assert_eq!(e.queued_start(1), None, "in-flight job is not a start");

        assert_eq!(e.blocked_row(1), Some(7), "read-out blocks the source");
        for i in 0..16 {
            let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Rd, "burst {i}");
            e.note_column(1, 10 + i);
        }
        let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Pre);
        let step = e.note_pre(1);
        assert_eq!(
            step,
            MigrationStep::Couple {
                row: 7,
                to: RowMode::HighPerformance
            }
        );

        // Write-back activates the destination frame (max-capacity): the
        // coupled source row is demand-usable from the couple point on.
        assert_eq!(e.blocked_row(1), Some(40), "block moves to the dest");
        let c = e.next_command(1, None).unwrap();
        assert_eq!(c.command, Command::Act);
        assert_eq!(c.row, 40);
        assert_eq!(c.mode, RowMode::MaxCapacity);
        e.note_act(1, 120);
        for i in 0..16 {
            let c = e.next_command(1, Some((40, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr, "burst {i}");
            e.note_column(1, 130 + i);
        }
        let step = e.note_pre(1);
        assert_eq!(
            step,
            MigrationStep::Complete {
                row: 7,
                to: RowMode::HighPerformance,
                cross_bank: false,
                dispatched_at: 0,
            }
        );
        assert!(!e.is_busy(1));
        assert_eq!(e.pending_jobs(), 0);
        let mut done = Vec::new();
        e.drain_completed_into(&mut done);
        assert_eq!(done, vec![(1, 7, RowMode::HighPerformance)]);
    }

    #[test]
    fn pure_background_never_starts_on_an_open_bank() {
        let mut e = engine(None);
        e.dispatch_couple(
            0,
            3,
            0,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        // The bank is open with a demand row: no start command until the
        // bank closes (demand territory).
        assert!(e.next_command(0, Some((9, RowMode::MaxCapacity))).is_none());
        // Once closed, the start ACT is offered.
        let c = e.next_command(0, None).unwrap();
        assert_eq!(c.command, Command::Act);
        assert_eq!(c.row, 3);
    }

    #[test]
    fn forced_precharge_restarts_the_phase_act() {
        let mut e = engine(None);
        e.dispatch_couple(
            2,
            1,
            2,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.note_act(2, 0);
        e.note_column(2, 10);
        e.on_forced_precharge(2);
        let c = e.next_command(2, None).unwrap();
        assert_eq!(c.command, Command::Act, "phase re-activates after refresh");
        e.note_act(2, 50);
        // The burst already transferred stays transferred.
        let mut remaining = 0;
        while e
            .next_command(2, Some((1, RowMode::MaxCapacity)))
            .unwrap()
            .command
            == Command::Rd
        {
            e.note_column(2, 60 + remaining);
            remaining += 1;
        }
        assert_eq!(remaining, 15, "one of 16 bursts was already done");
    }

    #[test]
    fn forced_precharge_mid_write_back_reacts_the_destination_frame() {
        let mut e = engine(None);
        e.dispatch_couple(
            2,
            1,
            2,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.note_act(2, 0);
        for i in 0..16 {
            e.note_column(2, 1 + i);
        }
        assert!(matches!(
            e.note_pre(2),
            MigrationStep::Couple { row: 1, .. }
        ));
        e.note_act(2, 30);
        for i in 0..5 {
            let c = e.next_command(2, Some((40, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr, "burst {i}");
            e.note_column(2, 40 + i);
        }
        e.on_forced_precharge(2);
        assert!(!e.is_mid_phase(2), "the refresh took the row buffer");
        // A demand row opened meanwhile is closed first; that PRE neither
        // completes the job nor couples the row again.
        let c = e.next_command(2, Some((9, RowMode::MaxCapacity))).unwrap();
        assert_eq!((c.command, c.row), (Command::Pre, 9));
        assert_eq!(e.note_pre(2), MigrationStep::InProgress);
        let c = e.next_command(2, None).unwrap();
        assert_eq!(
            (c.command, c.row, c.mode),
            (Command::Act, 40, RowMode::MaxCapacity),
            "the destination frame re-activates, not the source"
        );
        e.note_act(2, 80);
        let mut sent = 0;
        while e
            .next_command(2, Some((40, RowMode::MaxCapacity)))
            .unwrap()
            .command
            == Command::Wr
        {
            e.note_column(2, 90 + sent);
            sent += 1;
        }
        assert_eq!(sent, 11, "the 5 WR bursts already sent stay sent");
        assert_eq!(
            e.note_pre(2),
            MigrationStep::Complete {
                row: 1,
                to: RowMode::HighPerformance,
                cross_bank: false,
                dispatched_at: 0,
            }
        );
        assert_eq!(e.next_command(2, None), None, "no role left on the bank");
    }

    #[test]
    fn pending_writeback_act_marks_only_the_same_bank_gap() {
        let pending = |e: &MigrationEngine| {
            (0..4)
                .filter(|&b| e.pending_writeback_act(b))
                .collect::<Vec<_>>()
        };
        let mut e = engine(None);

        // Same-bank coupling: pending exactly from the read-out PRE to
        // the write-back ACT, across a demand-row close in between.
        e.dispatch_couple(
            0,
            1,
            0,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        assert!(pending(&e).is_empty(), "queued");
        e.note_act(0, 0);
        for i in 0..16 {
            assert!(pending(&e).is_empty(), "read-out burst {i}");
            e.note_column(0, 1 + i);
        }
        assert!(matches!(e.note_pre(0), MigrationStep::Couple { .. }));
        assert_eq!(pending(&e), vec![0]);
        assert_eq!(e.note_pre(0), MigrationStep::InProgress);
        assert_eq!(pending(&e), vec![0], "a demand-row close keeps it");
        e.note_act(0, 30);
        assert!(pending(&e).is_empty(), "write-back ACT issued");
        for i in 0..16 {
            e.note_column(0, 31 + i);
        }
        e.note_pre(0);
        assert!(pending(&e).is_empty(), "complete");

        // Cross-bank coupling: the write-back ACT may still be due after
        // the couple point, but never waits for a drain.
        e.dispatch_couple(
            1,
            7,
            3,
            41,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            50,
        );
        e.note_act(1, 50);
        for i in 0..16 {
            e.note_column(1, 51 + i);
        }
        assert!(matches!(e.note_pre(1), MigrationStep::Couple { .. }));
        assert!(pending(&e).is_empty(), "cross-bank couple point");
        e.note_act(3, 70);
        for i in 0..16 {
            e.note_column(3, 71 + i);
        }
        assert!(matches!(e.note_pre(3), MigrationStep::Complete { .. }));

        // Fill-in: a forced precharge leaves its write-back ACT due on
        // its own bank, with no read-out behind it.
        assert!(e.dispatch_fill(2, 17, false, 100));
        e.note_act(2, 100);
        e.note_column(2, 101);
        e.on_forced_precharge(2);
        let c = e.next_command(2, None).unwrap();
        assert_eq!((c.command, c.row), (Command::Act, 17));
        assert!(pending(&e).is_empty(), "fill-in");
    }

    #[test]
    fn rate_limiter_gates_job_starts_only() {
        let rate = MigrationRate {
            window_cycles: 100,
            max_starts: 1,
        };
        let mut e = engine(Some(rate));
        e.dispatch_couple(
            0,
            1,
            0,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.dispatch_couple(
            2,
            5,
            2,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        assert_eq!(e.rate_gate(5), 5);
        e.note_act(0, 5); // first start charges the window
                          // Window 0 exhausted for *starts*: gate jumps to the boundary...
        assert_eq!(e.rate_gate(11), 100);
        assert_eq!(e.rate_gate(99), 100);
        // ...but the in-flight job's own commands are never gated.
        e.note_column(0, 10);
        e.note_column(0, 20);
        assert_eq!(e.rate_gate(99), 100, "columns do not charge the window");
        // New window: the second job may start, counter reset on charge.
        assert_eq!(e.rate_gate(100), 100);
        e.note_act(2, 100);
        assert_eq!(e.rate_gate(101), 200);
    }

    #[test]
    fn round_robin_rotates_across_banks_with_work() {
        let mut e = engine(None);
        e.dispatch_couple(
            0,
            1,
            0,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.dispatch_couple(
            2,
            5,
            2,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        let with_work: Vec<usize> = (0..4).filter(|&b| e.bank_has_work(b)).collect();
        assert_eq!(with_work, vec![0, 2]);
        assert_eq!(e.rr_start(), 0);
        e.note_act(0, 0);
        assert_eq!(e.rr_start(), 1, "pointer moved past the served bank");
        e.note_act(2, 1);
        assert_eq!(e.rr_start(), 3);
        e.note_column(0, 2);
        assert_eq!(e.rr_start(), 1, "every migration command moves it");
    }

    #[test]
    fn cross_bank_couple_overlaps_its_two_sides() {
        let mut e = engine(None);
        e.enable_couple_placement_log();
        assert!(e.dispatch_couple(
            1,
            7,
            3,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0
        ));
        // Both rows are guarded from the moment of dispatch.
        assert!(e.is_row_pending(1, 7));
        assert!(e.is_row_pending(3, 40));
        assert!(!e.is_row_pending(1, 40));

        // The start is the source ACT on the owning bank.
        let c = e.next_command(1, None).unwrap();
        assert_eq!((c.command, c.row), (Command::Act, 7));
        e.note_act(1, 0);
        assert!(e.is_busy(1) && e.is_busy(3), "both banks carry a role");
        assert_eq!(e.blocked_row(1), Some(7));
        assert_eq!(e.blocked_row(3), Some(40), "dest row blocks from start");

        // The destination ACT is offered immediately — concurrent with
        // the read-out.
        let c = e.next_command(3, None).unwrap();
        assert_eq!(
            (c.command, c.row, c.mode),
            (Command::Act, 40, RowMode::MaxCapacity)
        );
        e.note_act(3, 1);
        assert!(e.is_mid_phase(3));

        // Writes stay strictly behind reads.
        assert!(
            e.next_command(3, Some((40, RowMode::MaxCapacity)))
                .is_none(),
            "no data read yet → no write burst"
        );
        let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Rd);
        e.note_column(1, 2);
        let c = e.next_command(3, Some((40, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Wr, "one read releases one write");
        e.note_column(3, 3);
        assert!(e
            .next_command(3, Some((40, RowMode::MaxCapacity)))
            .is_none());

        // Drain the remaining reads; writes catch up but the destination
        // PRE still waits for the couple point.
        for i in 0..15 {
            e.note_column(1, 10 + i);
        }
        for i in 0..15 {
            let c = e.next_command(3, Some((40, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr);
            e.note_column(3, 40 + i);
        }
        assert!(
            e.next_command(3, Some((40, RowMode::MaxCapacity)))
                .is_none(),
            "write-back complete but the couple point has not passed"
        );
        // Source PRE = the couple point; the source bank frees entirely.
        let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Pre);
        assert_eq!(
            e.note_pre(1),
            MigrationStep::Couple {
                row: 7,
                to: RowMode::HighPerformance
            }
        );
        assert_eq!(e.blocked_row(1), None, "source bank freed at couple");
        assert!(e.is_busy(1), "owner stays busy until the move lands");
        // Destination PRE completes the job.
        let c = e.next_command(3, Some((40, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Pre);
        assert_eq!(
            e.note_pre(3),
            MigrationStep::Complete {
                row: 7,
                to: RowMode::HighPerformance,
                cross_bank: true,
                dispatched_at: 0,
            }
        );
        assert!(!e.is_busy(1) && !e.is_busy(3));
        assert!(!e.is_row_pending(1, 7) && !e.is_row_pending(3, 40));
        let mut done = Vec::new();
        e.drain_completed_into(&mut done);
        assert_eq!(done, vec![(1, 7, RowMode::HighPerformance)]);
        let mut events = Vec::new();
        e.drain_placements_into(&mut events);
        assert_eq!(
            events,
            vec![PlacementEvent {
                kind: JobKind::Couple,
                bank: 1,
                row: 7,
                dest_bank: 3,
                dest: 40,
            }]
        );
    }

    #[test]
    fn queued_start_waits_for_a_free_destination_bank() {
        let mut e = engine(None);
        e.dispatch_couple(
            0,
            1,
            2,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.dispatch_couple(
            1,
            5,
            2,
            41,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.note_act(0, 0); // first job takes banks 0 and 2
        assert_eq!(
            e.queued_start(1),
            None,
            "second job's dest bank is occupied"
        );
        assert!(e.next_command(1, None).is_none());
        // A bank serving as a destination cannot start its own queue
        // either.
        e.dispatch_couple(
            2,
            9,
            2,
            50,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        assert_eq!(e.queued_start(2), None);
    }

    #[test]
    fn evacuation_stages_and_fill_lands_a_frame_move() {
        let mut e = engine(None);
        // Cross-channel stage 1: read the full row out.
        assert!(e.dispatch_evacuate_out(0, 9, 0));
        assert_eq!(e.bursts_per_frame_move(), 32);
        let c = e.next_command(0, None).unwrap();
        assert_eq!((c.command, c.row), (Command::Act, 9));
        e.note_act(0, 0);
        for i in 0..32 {
            e.note_column(0, 1 + i);
        }
        let step = e.note_pre(0);
        assert_eq!(
            step,
            MigrationStep::StagedOut {
                bank: 0,
                row: 9,
                dispatched_at: 0
            }
        );
        assert!(!e.is_busy(0));
        assert!(
            e.is_row_pending(0, 9),
            "staged-out source stays reserved until the landing is confirmed"
        );
        assert!(e.release(0, 9), "the system releases it after the fill");

        // Stage 2 on the destination channel: a fill-in adopting the
        // system's reservation.
        assert!(e.reserve(2, 17));
        assert!(e.dispatch_fill(2, 17, true, 60));
        let c = e.next_command(2, None).unwrap();
        assert_eq!(
            (c.command, c.row, c.mode),
            (Command::Act, 17, RowMode::MaxCapacity)
        );
        e.note_act(2, 60);
        for i in 0..32 {
            let c = e.next_command(2, Some((17, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr, "burst {i}");
            e.note_column(2, 61 + i);
        }
        let step = e.note_pre(2);
        assert_eq!(
            step,
            MigrationStep::Filled {
                bank: 2,
                row: 17,
                dispatched_at: 60
            }
        );
        assert!(!e.is_row_pending(2, 17));
        let mut events = Vec::new();
        e.drain_placements_into(&mut events);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, JobKind::EvacuateOut);
        assert_eq!(events[1].kind, JobKind::FillIn);
        assert_eq!((events[1].dest_bank, events[1].dest), (2, 17));
    }

    #[test]
    fn same_channel_evacuation_moves_a_whole_row() {
        let mut e = engine(None);
        assert!(e.dispatch_evacuate(0, 9, 1, 17, 0));
        assert!(!e.dispatch_evacuate(0, 9, 0, 17, 0), "same bank refused");
        e.note_act(0, 0);
        e.note_act(1, 1);
        for i in 0..32 {
            e.note_column(0, 2 + i);
            e.note_column(1, 3 + i);
        }
        assert_eq!(e.note_pre(0), MigrationStep::InProgress);
        assert_eq!(
            e.note_pre(1),
            MigrationStep::Evacuated {
                bank: 0,
                row: 9,
                dest_bank: 1,
                dest: 17,
                dispatched_at: 0
            }
        );
        assert_eq!(e.pending_jobs(), 0);
        assert!(!e.is_row_pending(0, 9) && !e.is_row_pending(1, 17));
    }
}
