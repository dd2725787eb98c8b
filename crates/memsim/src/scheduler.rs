//! FR-FCFS-Cap request scheduling (Table 2; the policy of Mutlu &
//! Moscibroda, "Stall-Time Fair Memory Access Scheduling", MICRO 2007 —
//! reference 71 of the paper).
//!
//! FR-FCFS serves ready row-buffer hits before older row misses to
//! maximize row-buffer locality; the *Cap* variant bounds how many younger
//! hits may bypass an older request to the same bank, restoring fairness
//! under streaming interference.
//!
//! # Implementation: per-bank lanes
//!
//! A naive FR-FCFS scan is O(queue²) per cycle (every hit candidate
//! re-scans the queue for an older same-bank waiter) plus an O(n log n)
//! sort for the oldest-first pass. This module instead keeps the queue
//! aggregated into per-bank *lanes* in a [`LaneCache`] that the
//! controller updates incrementally:
//!
//! * the oldest entry per bank plus the oldest entry targeting a
//!   *different* row, which makes the FR-FCFS-Cap "older waiter exists"
//!   test O(1) per candidate;
//! * the oldest ready-row-hit per bank (split by read/write, since their
//!   column commands have different timing readiness) and the oldest
//!   non-hit, so [`pick`] and the skip-ahead engine's [`next_ready`]
//!   only visit banks that actually have pending work — one
//!   timing-engine query per (bank, command class) instead of one per
//!   request.
//!
//! Within a (bank, command class) lane every entry shares the same
//! command ([`next_step`]) and the same timing readiness, so the lane's
//! oldest entry is a faithful representative: the aggregated pick is
//! decision-for-decision and bound-for-bound identical to the naive scan.
//! The unit tests below check exactly that, against a naive reference
//! scan, under fuzzed queues, bank states and migration blocks on one-
//! and two-rank engines.

use clr_core::addr::DramAddr;

use crate::bankstate::BankState;
use crate::command::Command;
use crate::engine::{Target, TimingEngine};
use crate::request::{MemRequest, RequestKind};

/// A queued request with its decoded coordinates and service bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct QueueEntry {
    /// The original request.
    pub request: MemRequest,
    /// Decoded DRAM coordinates.
    pub decoded: DramAddr,
    /// Pre-flattened engine target (mode = target row's mode).
    pub target: Target,
    /// Whether the scheduler had to activate a row for this request.
    pub needed_act: bool,
    /// Whether the scheduler had to precharge a conflicting row.
    pub needed_pre: bool,
    /// Whether the first service attempt has classified this request
    /// (hit/miss/conflict).
    pub classified: bool,
    /// Wait-cause charge ledger (inert unless the controller has blame
    /// attribution enabled).
    pub blame: clr_obs::BlameLedger,
}

/// The scheduling decision for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index into the queue of the chosen request.
    pub queue_index: usize,
    /// The command to issue on its behalf this cycle.
    pub command: Command,
}

/// The command that advances `e` one service step on its bank, and the
/// target the timing engine checks it against: a column command on a
/// row hit, a PRE carrying the *open* row's mode when another row is
/// open (a PRE obeys the timings of the row it closes), an ACT on a
/// closed bank.
// Inlined: it runs per lane head on every scheduling pass, and per
// queued entry at every blame boundary.
#[inline]
pub fn next_step(e: &QueueEntry, bank: &BankState) -> (Command, Target) {
    match bank.open_row {
        Some(row) if row == e.decoded.row => (column_command(e), e.target),
        Some(_) => (
            Command::Pre,
            Target {
                mode: bank.open_mode,
                ..e.target
            },
        ),
        None => (Command::Act, e.target),
    }
}

/// The column command for a request.
fn column_command(e: &QueueEntry) -> Command {
    match e.request.kind {
        RequestKind::Read => Command::Rd,
        RequestKind::Write => Command::Wr,
    }
}

/// Builds a queue entry (helper shared with the controller).
pub fn entry(request: MemRequest, decoded: DramAddr, target: Target) -> QueueEntry {
    QueueEntry {
        request,
        decoded,
        target,
        needed_act: false,
        needed_pre: false,
        classified: false,
        blame: clr_obs::BlameLedger::disabled(),
    }
}

/// Per-bank aggregation of one queue (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Oldest entry overall: `(arrival, queue index, row)`.
    oldest: (u64, usize, u32),
    /// Oldest arrival among entries whose row differs from `oldest`'s
    /// row (`u64::MAX` if the bank's entries all target one row).
    oldest_other_row: u64,
    /// Oldest ready-row-hit read: `(arrival, queue index)`.
    hit_rd: Option<(u64, usize)>,
    /// Oldest ready-row-hit write.
    hit_wr: Option<(u64, usize)>,
    /// Oldest non-hit entry (needs PRE on an open bank, ACT on a closed
    /// one).
    miss: Option<(u64, usize)>,
}

impl Lane {
    const EMPTY: Lane = Lane {
        oldest: (u64::MAX, usize::MAX, 0),
        oldest_other_row: u64::MAX,
        hit_rd: None,
        hit_wr: None,
        miss: None,
    };

    /// Folds one queue entry into the lane. Comparisons are lexicographic
    /// on `(arrival, queue index)`, so the fold is *order-independent*:
    /// folding the bank's entries in any order produces the same lane,
    /// which lets [`LaneCache`] rebuild from unordered per-bank index
    /// lists.
    fn fold(&mut self, e: &QueueEntry, i: usize, open_row_hit: bool) {
        let arrival = e.request.arrival_cycle;
        let row = e.decoded.row;
        if (arrival, i) < (self.oldest.0, self.oldest.1) {
            if row != self.oldest.2 && self.oldest.1 != usize::MAX {
                // The displaced oldest is the best "other row" candidate:
                // its arrival is a lower bound on every other entry's.
                self.oldest_other_row = self.oldest.0;
            }
            self.oldest = (arrival, i, row);
        } else if row != self.oldest.2 && arrival < self.oldest_other_row {
            self.oldest_other_row = arrival;
        }
        let slot = match (open_row_hit, e.request.kind) {
            (true, RequestKind::Read) => &mut self.hit_rd,
            (true, RequestKind::Write) => &mut self.hit_wr,
            (false, _) => &mut self.miss,
        };
        if slot.is_none_or(|(a, j)| (arrival, i) < (a, j)) {
            *slot = Some((arrival, i));
        }
    }

    /// Whether a strictly older entry targeting a row other than `row`
    /// waits in this bank — the FR-FCFS-Cap fairness test, O(1).
    fn older_waiter(&self, arrival: u64, row: u32) -> bool {
        if row != self.oldest.2 {
            self.oldest.0 < arrival
        } else {
            self.oldest_other_row < arrival
        }
    }
}

/// Whether `(bank, row)` is excluded from scheduling by a per-bank row
/// block (`u32::MAX` sentinel = no block; an empty slice blocks nothing).
/// A background migration blocks exactly the row whose content is in
/// flux for its job's whole lifetime — except that *reads* stay servable
/// while the row is listed in `read_ok_rows` (the read-out phase keeps
/// the source's data intact in the row buffer). An excluded entry is
/// left out of its lane entirely: it neither issues, counts as an older
/// waiter, nor contributes to the readiness bound until the block lifts
/// (a scheduling event).
fn entry_excluded(blocked_rows: &[u32], read_ok_rows: &[u32], bank: usize, e: &QueueEntry) -> bool {
    let row = e.decoded.row;
    if blocked_rows.get(bank).is_none_or(|&r| r != row) {
        return false;
    }
    !(e.request.kind == RequestKind::Read && read_ok_rows.get(bank).is_some_and(|&r| r == row))
}

/// Keeps the older of `best` and the candidate `d` arriving at `arrival`
/// — FR-FCFS age order, ties broken by queue index.
fn keep_oldest(best: &mut Option<(u64, Decision)>, arrival: u64, d: Decision) {
    if best.is_none_or(|(a, b)| (arrival, d.queue_index) < (a, b.queue_index)) {
        *best = Some((arrival, d));
    }
}

/// Incrementally maintained per-bank lanes for one request queue.
///
/// Rebuilding every lane on each scheduling pass is an O(queue) walk
/// that profiling showed at ≈40 % of the simulation loop. The cache
/// instead keeps the lanes *live* across passes and rebuilds a bank's
/// lane only when something it depends on changed:
///
/// * **queue composition** — an enqueue folds the new entry into its
///   bank's lane in O(1) (the lane fold is purely accumulative); a
///   removal dirties the removed entry's bank and, because the queues use
///   `swap_remove`, the bank of the entry whose queue index moved;
/// * **bank state** — an ACT or PRE flips entries between the hit and
///   miss classes, so the controller dirties the bank on every row-buffer
///   change (demand, refresh, timeout close, or migration), which is
///   also when a migration's row block changes.
///
/// Timing-engine state is *not* a lane input (readiness is queried per
/// pass), so engine updates never dirty the cache. Lane folds compare
/// `(arrival, queue index)` lexicographically, which makes the fold
/// order-independent — rebuilding from the unordered per-bank index list
/// yields exactly the lane a queue-order pass would build, a property
/// the fuzz tests below check against the naive reference scan.
#[derive(Debug, Default)]
pub struct LaneCache {
    lanes: Vec<Lane>,
    /// Queue indices per bank, unordered.
    by_bank: Vec<Vec<u32>>,
    /// Occupied banks, split by rank (`occupied[rank]` = that rank's
    /// banks with queued work, unordered within the rank), so [`pick`]
    /// can discharge a whole rank through its column gates.
    occupied: Vec<Vec<usize>>,
    /// Position of each bank within its rank's `occupied` list
    /// (`u32::MAX` when absent).
    occupied_pos: Vec<u32>,
    /// Banks per rank (for the flat-bank → rank split).
    banks_per_rank: usize,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
}

impl LaneCache {
    /// An empty cache for `banks` banks split into ranks of
    /// `banks_per_rank` (flat bank layout is rank-major, matching the
    /// controller's target decomposition).
    pub fn new(banks: usize, banks_per_rank: usize) -> Self {
        let bpr = banks_per_rank.max(1);
        LaneCache {
            lanes: vec![Lane::EMPTY; banks],
            by_bank: vec![Vec::new(); banks],
            occupied: vec![Vec::new(); banks.div_ceil(bpr).max(1)],
            occupied_pos: vec![u32::MAX; banks],
            banks_per_rank: bpr,
            dirty: vec![false; banks],
            dirty_list: Vec::new(),
        }
    }

    /// Whether any queued entry targets `bank` (maintained exactly by the
    /// push/remove hooks, so it is O(1) and always current).
    pub fn has_entries(&self, bank: usize) -> bool {
        self.occupied_pos[bank] != u32::MAX
    }

    /// Marks a bank whose row-buffer state changed (ACT or PRE): its hit
    /// and miss classes must be re-derived on the next pass.
    pub fn bank_state_changed(&mut self, bank: usize) {
        if self.occupied_pos[bank] != u32::MAX {
            self.force_dirty(bank);
        }
    }

    fn force_dirty(&mut self, bank: usize) {
        if !self.dirty[bank] {
            self.dirty[bank] = true;
            self.dirty_list.push(bank as u32);
        }
    }

    /// Whether any queued entry targets `(bank, row)` (an O(entries in
    /// bank) scan of the per-bank index list — used to decide whether
    /// demand is waiting on a migrating row).
    pub fn has_row_entry(&self, entries: &[QueueEntry], bank: usize, row: u32) -> bool {
        self.by_bank[bank]
            .iter()
            .any(|&i| entries[i as usize].decoded.row == row)
    }

    /// Folds the entry just pushed onto `entries` into its bank's lane
    /// (O(1) — an enqueue cannot invalidate any existing lane). Entries
    /// targeting a blocked row are indexed but not folded.
    pub fn on_push(
        &mut self,
        entries: &[QueueEntry],
        banks: &[BankState],
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) {
        let i = entries.len() - 1;
        let e = &entries[i];
        let b = e.target.bank;
        self.by_bank[b].push(i as u32);
        if self.occupied_pos[b] == u32::MAX {
            let list = &mut self.occupied[b / self.banks_per_rank];
            self.occupied_pos[b] = list.len() as u32;
            list.push(b);
            self.lanes[b] = Lane::EMPTY;
        } else if self.dirty[b] {
            return;
        }
        if !entry_excluded(blocked_rows, read_ok_rows, b, e) {
            self.lanes[b].fold(e, i, banks[b].is_open(e.decoded.row));
        }
    }

    /// Updates the index structures for `entries.swap_remove(idx)`. Must
    /// be called *before* the removal (it needs the entry still in
    /// place). Dirties the removed entry's bank and — when the queue's
    /// last entry moves into the hole — the moved entry's bank, whose
    /// lane holds the now-stale index.
    pub fn before_swap_remove(&mut self, entries: &[QueueEntry], idx: usize) {
        let last = entries.len() - 1;
        let b = entries[idx].target.bank;
        let list = &mut self.by_bank[b];
        let pos = list
            .iter()
            .position(|&x| x as usize == idx)
            .expect("removed entry is indexed");
        list.swap_remove(pos);
        if list.is_empty() {
            let p = self.occupied_pos[b] as usize;
            let rank_list = &mut self.occupied[b / self.banks_per_rank];
            let moved = *rank_list.last().expect("rank list is nonempty");
            rank_list.swap_remove(p);
            if moved != b {
                self.occupied_pos[moved] = p as u32;
            }
            self.occupied_pos[b] = u32::MAX;
            // A stale dirty flag (if any) is skipped lazily on rebuild.
        } else {
            self.force_dirty(b);
        }
        if last != idx {
            let b2 = entries[last].target.bank;
            let list2 = &mut self.by_bank[b2];
            let pos2 = list2
                .iter()
                .position(|&x| x as usize == last)
                .expect("moved entry is indexed");
            list2[pos2] = idx as u32;
            self.force_dirty(b2);
        }
    }

    /// Rebuilds every dirty (and still occupied) lane from its per-bank
    /// index list.
    fn rebuild_dirty(
        &mut self,
        entries: &[QueueEntry],
        banks: &[BankState],
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) {
        for k in 0..self.dirty_list.len() {
            let b = self.dirty_list[k] as usize;
            self.dirty[b] = false;
            if self.occupied_pos[b] == u32::MAX {
                continue;
            }
            let mut lane = Lane::EMPTY;
            for &i in &self.by_bank[b] {
                let e = &entries[i as usize];
                if !entry_excluded(blocked_rows, read_ok_rows, b, e) {
                    lane.fold(e, i as usize, banks[b].is_open(e.decoded.row));
                }
            }
            self.lanes[b] = lane;
        }
        self.dirty_list.clear();
    }

    /// The one lane walk behind both scheduling passes and the readiness
    /// bound: calls `visit(lane, arrival, queue index, command, target)`
    /// for the head of every lane in `rank` that may issue, with the
    /// command and target from [`next_step`]. `classes` selects the lane
    /// kinds visited: `[read hits, write hits, misses]`. A bank flagged
    /// in `blocked` (a migration job owns its row buffer) contributes
    /// nothing — except that while its open row is listed in
    /// `read_ok_rows` (a read-out keeps the source intact in the row
    /// buffer) its read hits to that row stay schedulable.
    #[allow(clippy::too_many_arguments)]
    fn walk_rank(
        &self,
        rank: usize,
        [rd, wr, miss]: [bool; 3],
        entries: &[QueueEntry],
        banks: &[BankState],
        blocked: &[bool],
        read_ok_rows: &[u32],
        mut visit: impl FnMut(&Lane, u64, usize, Command, Target),
    ) {
        for &b in &self.occupied[rank] {
            let held = blocked.get(b).copied().unwrap_or(false);
            if held
                && banks[b]
                    .open_row
                    .is_none_or(|r| read_ok_rows.get(b) != Some(&r))
            {
                continue;
            }
            let lane = &self.lanes[b];
            let heads = [
                (lane.hit_rd, rd),
                (lane.hit_wr, wr && !held),
                (lane.miss, miss && !held),
            ];
            for (head, wanted) in heads {
                if let Some((arrival, i)) = head.filter(|_| wanted) {
                    let (command, target) = next_step(&entries[i], &banks[b]);
                    visit(lane, arrival, i, command, target);
                }
            }
        }
    }

    /// Pass 2 and the readiness bound in one walk: the oldest lane head
    /// whose next command is ready at `now`, and the earliest cycle any
    /// head's command can issue (`u64::MAX` when no head may issue). The
    /// bound visits every head — no gate pruning — so it stays exact for
    /// the skip-ahead engine.
    fn oldest_ready(
        &self,
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        now: u64,
        blocked: &[bool],
        read_ok_rows: &[u32],
    ) -> (Option<Decision>, u64) {
        let mut best = None;
        let mut bound = u64::MAX;
        for rank in 0..self.occupied.len() {
            self.walk_rank(
                rank,
                [true; 3],
                entries,
                banks,
                blocked,
                read_ok_rows,
                |_, arrival, i, command, target| {
                    let ready = engine.earliest(command, target);
                    bound = bound.min(ready);
                    if ready <= now {
                        let d = Decision {
                            queue_index: i,
                            command,
                        };
                        keep_oldest(&mut best, arrival, d);
                    }
                },
            );
        }
        (best.map(|(_, d)| d), bound)
    }
}

/// Selects the next command under FR-FCFS-Cap, and the earliest cycle at
/// which *any* queued command could issue (the queue's next-event
/// bound, a byproduct of the oldest-first pass). The bound is meaningful
/// only when the decision is `None` — on an issue, controller state is
/// about to change anyway — and is `u64::MAX` when a row hit wins or the
/// queue is empty. A dead scheduling cycle thereby prices the skip-ahead
/// jump for free.
///
/// `hit_streak` is the per-flat-bank count of consecutively served row
/// hits; once it reaches `cap` while an older request waits on the same
/// bank, hits in that bank lose their priority. `blocked`,
/// `blocked_rows` and `read_ok_rows` are a background migration's
/// exclusions (see [`LaneCache::walk_rank`] and [`entry_excluded`]).
#[allow(clippy::too_many_arguments)]
pub fn pick(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    cache: &mut LaneCache,
    blocked: &[bool],
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
) -> (Option<Decision>, u64) {
    if entries.is_empty() {
        return (None, u64::MAX);
    }
    cache.rebuild_dirty(entries, banks, blocked_rows, read_ok_rows);
    // Pass 1: the oldest ready row hit, unless capped. A rank whose
    // rank-scope earliest for a column class (the write-to-read
    // turnaround) is in the future cannot issue that class anywhere, so
    // one query per class discharges all its hit lanes.
    let mut best = None;
    for rank in 0..cache.occupied.len() {
        if cache.occupied[rank].is_empty() {
            continue;
        }
        let rd = engine.rank_gate(Command::Rd, rank) <= now;
        let wr = engine.rank_gate(Command::Wr, rank) <= now;
        if !(rd || wr) {
            continue;
        }
        cache.walk_rank(
            rank,
            [rd, wr, false],
            entries,
            banks,
            blocked,
            read_ok_rows,
            |lane, arrival, i, command, target| {
                if !(hit_streak[target.bank] >= cap
                    && lane.older_waiter(arrival, entries[i].decoded.row))
                    && engine.can_issue(command, target, now)
                {
                    let d = Decision {
                        queue_index: i,
                        command,
                    };
                    keep_oldest(&mut best, arrival, d);
                }
            },
        );
    }
    if let Some((_, d)) = best {
        return (Some(d), u64::MAX);
    }
    // Pass 2: oldest-first over every request; issue whatever step of
    // its service (PRE → ACT → column) is ready.
    cache.oldest_ready(entries, banks, engine, now, blocked, read_ok_rows)
}

/// The earliest cycle at which *any* queued entry's next service command
/// could issue, or `None` when no entry may issue — the queue's
/// contribution to the controller's next-event computation. The
/// FR-FCFS cap is irrelevant here: it reorders commands but never delays
/// the first issuable one (pass 2 ignores it).
pub fn next_ready(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    cache: &mut LaneCache,
    blocked: &[bool],
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
) -> Option<u64> {
    if entries.is_empty() {
        return None;
    }
    cache.rebuild_dirty(entries, banks, blocked_rows, read_ok_rows);
    // Only the bound is wanted, so the decision half runs at cycle 0.
    let (_, bound) = cache.oldest_ready(entries, banks, engine, 0, blocked, read_ok_rows);
    (bound != u64::MAX).then_some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycletimings::CycleTimings;
    use clr_core::addr::PhysAddr;
    use clr_core::mode::RowMode;
    use clr_core::timing::{ClrTimings, InterfaceTimings};

    /// A timing engine over `ranks` ranks of 4 banks in 2 bank groups.
    fn engine_with_ranks(ranks: usize) -> TimingEngine {
        let t = ClrTimings::from_circuit_defaults();
        let i = InterfaceTimings::ddr4_2400();
        let ct = CycleTimings::baseline(&t, &i);
        TimingEngine::new(ct, 4 * ranks, 2 * ranks, ranks, 1, |b| (b / 2, b / 4))
    }

    fn engine() -> TimingEngine {
        engine_with_ranks(1)
    }

    fn target(bank: usize, mode: RowMode) -> Target {
        Target {
            bank,
            bank_group: bank / 2,
            rank: bank / 4,
            channel: 0,
            mode,
        }
    }

    fn mk(id: u64, bank: usize, row: u32, kind: RequestKind, arrival: u64) -> QueueEntry {
        let decoded = DramAddr {
            bank: (bank % 2) as u32,
            bank_group: ((bank / 2) % 2) as u32,
            rank: (bank / 4) as u32,
            row,
            ..DramAddr::default()
        };
        entry(
            MemRequest::new(id, PhysAddr(0), kind, arrival),
            decoded,
            target(bank, RowMode::MaxCapacity),
        )
    }

    /// Per-bank exclusions: `(blocked, blocked_rows, read_ok_rows)`.
    type Blocks = (Vec<bool>, Vec<u32>, Vec<u32>);

    fn no_blocks(banks: usize) -> Blocks {
        (
            vec![false; banks],
            vec![u32::MAX; banks],
            vec![u32::MAX; banks],
        )
    }

    /// `pick` over a lane cache built from `entries` by pushing them one
    /// at a time, with no migration blocks.
    fn pick_fresh(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        hit_streak: &[u32],
        cap: u32,
        now: u64,
    ) -> (Option<Decision>, u64) {
        let (blocked, rows, read_ok) = no_blocks(banks.len());
        let mut cache = fresh_cache(entries, banks);
        pick(
            entries, banks, engine, hit_streak, cap, now, &mut cache, &blocked, &rows, &read_ok,
        )
    }

    /// `next_ready` over a freshly built lane cache, with no blocks.
    fn next_ready_fresh(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
    ) -> Option<u64> {
        let (blocked, rows, read_ok) = no_blocks(banks.len());
        let mut cache = fresh_cache(entries, banks);
        next_ready(
            entries, banks, engine, &mut cache, &blocked, &rows, &read_ok,
        )
    }

    fn fresh_cache(entries: &[QueueEntry], banks: &[BankState]) -> LaneCache {
        let mut cache = LaneCache::new(banks.len(), 4);
        for n in 1..=entries.len() {
            cache.on_push(&entries[..n], banks, &[], &[]);
        }
        cache
    }

    /// The naive FR-FCFS-Cap scan: the oracle [`pick`] and
    /// [`next_ready`] must match decision for decision and bound for
    /// bound. Every rule is applied to every entry, with no lanes, no
    /// caching and no rank gates:
    ///
    /// * an entry targeting its bank's blocked row is invisible (it
    ///   neither issues nor counts as an older waiter) unless it is a
    ///   read and the row is read-servable;
    /// * a held bank issues only read hits to its read-servable open
    ///   row;
    /// * pass 1 takes the oldest issuable row hit, skipping hits in a
    ///   bank at the cap while an older entry waits there on another row;
    /// * pass 2 takes the oldest entry whose next step (column command,
    ///   PRE in the open row's mode, or ACT) is issuable.
    ///
    /// Returns what `pick` must return (the bound is `u64::MAX` when a
    /// pass-1 hit wins) and what `next_ready` must return.
    #[allow(clippy::too_many_arguments)]
    fn pick_reference(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        hit_streak: &[u32],
        cap: u32,
        now: u64,
        (blocked, blocked_rows, read_ok_rows): &Blocks,
    ) -> ((Option<Decision>, u64), Option<u64>) {
        let is_read = |e: &QueueEntry| e.request.kind == RequestKind::Read;
        let visible = |e: &QueueEntry| {
            let (b, row) = (e.target.bank, e.decoded.row);
            blocked_rows[b] != row || (is_read(e) && read_ok_rows[b] == row)
        };
        let may_issue = |e: &QueueEntry| {
            let (b, row) = (e.target.bank, e.decoded.row);
            visible(e)
                && (!blocked[b] || (is_read(e) && banks[b].is_open(row) && read_ok_rows[b] == row))
        };
        let older_waiter = |i: usize, e: &QueueEntry| {
            entries.iter().enumerate().any(|(j, o)| {
                j != i
                    && visible(o)
                    && o.target.bank == e.target.bank
                    && o.decoded.row != e.decoded.row
                    && o.request.arrival_cycle < e.request.arrival_cycle
            })
        };
        let step = |e: &QueueEntry| {
            let bank = &banks[e.target.bank];
            match bank.open_row {
                Some(r) if r == e.decoded.row => (column_command(e), e.target),
                Some(_) => (
                    Command::Pre,
                    Target {
                        mode: bank.open_mode,
                        ..e.target
                    },
                ),
                None => (Command::Act, e.target),
            }
        };
        let mut order: Vec<usize> = (0..entries.len())
            .filter(|&i| may_issue(&entries[i]))
            .collect();
        order.sort_by_key(|&i| (entries[i].request.arrival_cycle, i));
        let ready = order
            .iter()
            .map(|&i| {
                let (cmd, t) = step(&entries[i]);
                engine.earliest(cmd, t)
            })
            .min();
        let hit = order.iter().copied().find(|&i| {
            let e = &entries[i];
            banks[e.target.bank].is_open(e.decoded.row)
                && !(hit_streak[e.target.bank] >= cap && older_waiter(i, e))
                && engine.can_issue(column_command(e), e.target, now)
        });
        if let Some(i) = hit {
            let d = Decision {
                queue_index: i,
                command: column_command(&entries[i]),
            };
            return ((Some(d), u64::MAX), ready);
        }
        let oldest = order.iter().find_map(|&i| {
            let (command, t) = step(&entries[i]);
            engine.can_issue(command, t, now).then_some(Decision {
                queue_index: i,
                command,
            })
        });
        ((oldest, ready.unwrap_or(u64::MAX)), ready)
    }

    /// Drives a persistent [`LaneCache`] over `4 * ranks` banks through
    /// random enqueue / swap-remove / bank-state / held-bank / blocked-row
    /// op sequences; after every op, [`pick`] and [`next_ready`] must
    /// match [`pick_reference`] on decision and bound. With two ranks,
    /// one rank starts with its ACT window saturated and a write just
    /// issued, so its ACT and read gates (tFAW, write-to-read
    /// turnaround) sit in the future while the other rank stays
    /// issuable.
    fn fuzz_cache_against_reference(mut state: u64, ranks: usize) {
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 4 * ranks;
        for round in 0..80 {
            let mut e = engine_with_ranks(ranks);
            let mut banks = vec![BankState::new(); n];
            let hot_rank = (ranks > 1).then(|| (rng() % ranks as u64) as usize);
            // Warm the engine with a few legal issues so readiness varies.
            for (b, bank) in banks.iter_mut().enumerate() {
                if Some(b / 4) == hot_rank || rng() % 2 == 0 {
                    let t = target(b, RowMode::MaxCapacity);
                    let at = e.earliest(Command::Act, t);
                    e.issue(Command::Act, t, at);
                    bank.activate((rng() % 4) as u32, RowMode::MaxCapacity, at);
                }
            }
            if let Some(r) = hot_rank {
                let t = target(4 * r, RowMode::MaxCapacity);
                e.issue(Command::Wr, t, e.earliest(Command::Wr, t));
            }
            let mut entries: Vec<QueueEntry> = Vec::new();
            let mut cache = LaneCache::new(n, 4);
            let mut blocks = no_blocks(n);
            for op in 0..60 {
                let b = (rng() % n as u64) as usize;
                match rng() % 7 {
                    0..=2 => {
                        let kind = if rng() % 4 == 0 {
                            RequestKind::Write
                        } else {
                            RequestKind::Read
                        };
                        let row = (rng() % 4) as u32;
                        entries.push(mk(op, b, row, kind, rng() % 8));
                        cache.on_push(&entries, &banks, &blocks.1, &blocks.2);
                    }
                    3 => {
                        if !entries.is_empty() {
                            let idx = (rng() % entries.len() as u64) as usize;
                            cache.before_swap_remove(&entries, idx);
                            entries.swap_remove(idx);
                        }
                    }
                    4 => {
                        if banks[b].open_row.is_some() {
                            let _ = banks[b].precharge();
                        } else {
                            banks[b].activate((rng() % 4) as u32, RowMode::MaxCapacity, 0);
                        }
                        cache.bank_state_changed(b);
                    }
                    5 => blocks.0[b] = !blocks.0[b],
                    _ => {
                        // Row blocks change only alongside a lane
                        // invalidation (in the controller they coincide
                        // with a migration ACT/PRE on the bank).
                        if blocks.1[b] == u32::MAX {
                            blocks.1[b] = (rng() % 4) as u32;
                            // Half the time the blocked row stays
                            // read-servable (a read-out in progress).
                            if rng() % 2 == 0 {
                                blocks.2[b] = blocks.1[b];
                            }
                        } else {
                            blocks.1[b] = u32::MAX;
                            blocks.2[b] = u32::MAX;
                        }
                        cache.bank_state_changed(b);
                    }
                }
                let streaks: Vec<u32> = (0..n).map(|_| (rng() % 6) as u32).collect();
                let cap = 1 + (rng() % 4) as u32;
                let now = (rng() % (32 + 32 * ranks as u64)).max(20);
                let (blocked, rows, read_ok) = &blocks;
                let got = pick(
                    &entries, &banks, &e, &streaks, cap, now, &mut cache, blocked, rows, read_ok,
                );
                let got_ready =
                    next_ready(&entries, &banks, &e, &mut cache, blocked, rows, read_ok);
                let (want, want_ready) =
                    pick_reference(&entries, &banks, &e, &streaks, cap, now, &blocks);
                assert_eq!(got, want, "round {round} op {op}: pick diverges");
                assert_eq!(
                    got_ready, want_ready,
                    "round {round} op {op}: readiness diverges"
                );
            }
        }
    }

    #[test]
    fn next_step_follows_the_row_buffer() {
        let mut bank = BankState::new();
        let rd = mk(0, 0, 5, RequestKind::Read, 0);
        let wr = mk(1, 0, 5, RequestKind::Write, 0);
        // Closed bank: ACT in the entry's own mode.
        assert_eq!(next_step(&rd, &bank), (Command::Act, rd.target));
        // Row hit: the column command, entry target unchanged.
        bank.activate(5, RowMode::MaxCapacity, 0);
        assert_eq!(next_step(&rd, &bank), (Command::Rd, rd.target));
        assert_eq!(next_step(&wr, &bank), (Command::Wr, wr.target));
        // A high-performance row open with a max-capacity entry queued:
        // PRE, timed by the mode of the row it closes.
        bank.activate(9, RowMode::HighPerformance, 0);
        let (cmd, t) = next_step(&rd, &bank);
        assert_eq!(cmd, Command::Pre);
        assert_eq!(rd.target.mode, RowMode::MaxCapacity);
        assert_eq!(t, target(0, RowMode::HighPerformance));
    }

    #[test]
    fn prefers_ready_row_hit_over_older_miss() {
        let mut e = engine();
        let mut banks = vec![BankState::new(); 4];
        // Bank 0 has row 5 open and ready for column access.
        let t = target(0, RowMode::MaxCapacity);
        e.issue(Command::Act, t, 0);
        banks[0].activate(5, RowMode::MaxCapacity, 0);
        let now = e.earliest(Command::Rd, t);

        let entries = vec![
            mk(0, 1, 9, RequestKind::Read, 0),  // older, bank closed
            mk(1, 0, 5, RequestKind::Read, 10), // younger, row hit
        ];
        let d = pick_fresh(&entries, &banks, &e, &[0; 4], 4, now).0.unwrap();
        assert_eq!(d.queue_index, 1);
        assert_eq!(d.command, Command::Rd);
    }

    #[test]
    fn cap_reverts_to_oldest_first() {
        let mut e = engine();
        let mut banks = vec![BankState::new(); 4];
        let t = target(0, RowMode::MaxCapacity);
        e.issue(Command::Act, t, 0);
        banks[0].activate(5, RowMode::MaxCapacity, 0);
        let now = e.earliest(Command::Rd, t).max(e.earliest(Command::Pre, t));

        let entries = vec![
            mk(0, 0, 9, RequestKind::Read, 0),  // older conflict in bank 0
            mk(1, 0, 5, RequestKind::Read, 10), // younger hit in bank 0
        ];
        // Below cap: the hit wins.
        let d = pick_fresh(&entries, &banks, &e, &[0; 4], 4, now).0.unwrap();
        assert_eq!(d.queue_index, 1);
        // At cap: oldest-first; service starts with PRE of the conflict.
        let d = pick_fresh(&entries, &banks, &e, &[4, 0, 0, 0], 4, now)
            .0
            .unwrap();
        assert_eq!(d.queue_index, 0);
        assert_eq!(d.command, Command::Pre);
    }

    #[test]
    fn closed_bank_gets_activate() {
        let e = engine();
        let banks = vec![BankState::new(); 4];
        let entries = vec![mk(0, 2, 7, RequestKind::Write, 0)];
        let d = pick_fresh(&entries, &banks, &e, &[0; 4], 4, 0).0.unwrap();
        assert_eq!(d.command, Command::Act);
    }

    #[test]
    fn nothing_issuable_returns_none() {
        let mut e = engine();
        let banks = vec![BankState::new(); 4];
        e.issue(Command::Act, target(0, RowMode::MaxCapacity), 0);
        // Bank 0 closed per `banks`, but engine forbids ACT until tRC.
        let entries = vec![mk(0, 0, 7, RequestKind::Read, 0)];
        assert!(pick_fresh(&entries, &banks, &e, &[0; 4], 4, 1).0.is_none());
    }

    #[test]
    fn next_ready_cycle_predicts_first_issue() {
        let mut e = engine();
        let banks = vec![BankState::new(); 4];
        let t = target(0, RowMode::MaxCapacity);
        e.issue(Command::Act, t, 0);
        // Bank 0 closed in `banks` (engine-only ACT): re-ACT waits tRC.
        let entries = vec![mk(0, 0, 7, RequestKind::Read, 0)];
        let ready = next_ready_fresh(&entries, &banks, &e).unwrap();
        assert_eq!(ready, e.earliest(Command::Act, t));
        // A dead pass reports the same bound `next_ready` does.
        let (d, bound) = pick_fresh(&entries, &banks, &e, &[0; 4], 4, ready - 1);
        assert!(d.is_none());
        assert_eq!(bound, ready);
        assert!(pick_fresh(&entries, &banks, &e, &[0; 4], 4, ready)
            .0
            .is_some());
        assert!(next_ready_fresh(&[], &banks, &e).is_none());
    }

    #[test]
    fn lane_cache_matches_full_rebuild_on_fuzzed_op_sequences() {
        fuzz_cache_against_reference(0x0DD0_FEED_5EED_1234, 1);
    }

    #[test]
    fn rank_split_matches_flat_passes_on_two_ranks() {
        fuzz_cache_against_reference(0x9E37_79B9_7F4A_7C15, 2);
    }

    #[test]
    fn lane_pick_matches_reference_scan_on_fuzzed_queues() {
        // Deterministic fuzz over queue composition, bank states, hit
        // streaks and times; a lane cache built from scratch must agree
        // with the naive reference on every sample.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..400 {
            let mut e = engine();
            let mut banks = vec![BankState::new(); 4];
            // Open some banks and warm the engine with a few legal issues.
            for (b, bank) in banks.iter_mut().enumerate() {
                if rng() % 2 == 0 {
                    let t = target(b, RowMode::MaxCapacity);
                    let at = e.earliest(Command::Act, t);
                    e.issue(Command::Act, t, at);
                    bank.activate((rng() % 4) as u32, RowMode::MaxCapacity, at);
                }
            }
            let n = (rng() % 12) as usize;
            let entries: Vec<QueueEntry> = (0..n)
                .map(|i| {
                    let kind = if rng() % 4 == 0 {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    mk(
                        i as u64,
                        (rng() % 4) as usize,
                        (rng() % 4) as u32,
                        kind,
                        rng() % 8,
                    )
                })
                .collect();
            let streaks: Vec<u32> = (0..4).map(|_| (rng() % 6) as u32).collect();
            let cap = 1 + (rng() % 4) as u32;
            let now = (rng() % 64).max(20);
            let got = pick_fresh(&entries, &banks, &e, &streaks, cap, now);
            let (want, want_ready) =
                pick_reference(&entries, &banks, &e, &streaks, cap, now, &no_blocks(4));
            assert_eq!(got, want, "round {round}: lanes diverge from reference");
            assert_eq!(
                next_ready_fresh(&entries, &banks, &e),
                want_ready,
                "round {round}: readiness diverges from reference"
            );
        }
    }
}
