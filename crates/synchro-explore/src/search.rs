//! The search engine: one single-threaded prefix dynamic program over
//! contiguous actor groupings and exact tile counts.
//!
//! Boundary `i` of the DP stands for the first `i` actors, already
//! grouped into columns and given tiles.  Its cell at exact tile count
//! `t` keeps every partial mapping of actors `0..i` on `t` tiles that no
//! other partial *covers* — one with no more power, no more committed
//! cross-column words, and feasible whenever the covered one is.  The
//! kept set is the union of two Pareto fronts over `(power, cross
//! words)`: one over all partials and one over feasible partials only,
//! so a cheaper infeasible prefix never hides a feasible one.
//!
//! Cells are relaxed in boundary order from the pre-evaluated
//! [`IntervalArena`]: every kept partial of boundary `start` is extended
//! by every tile option of the group `start..end`.  Dominance across a
//! cell is exact, because a group's cost, tiles and cross words do not
//! depend on how the prefix before it was grouped.  Two relaxations
//! apply that rule:
//!
//! * [`relax_flat`], when every partial of a boundary commits the same
//!   cross words: always without a [`CommSpec`], and with one when each
//!   column holds one actor.  Then of two feasible (or two infeasible)
//!   partials one covers the other, so a cell keeps its cheapest
//!   feasible partial and, when strictly cheaper, its cheapest
//!   infeasible one.  The boundary being built is one flat table of two
//!   slots per tile count, allocated once per search, and an offer is
//!   one comparison.
//! * [`relax_fronts`], under a frame with fusion, where partials trade
//!   power against cross words: each cell is a growable front.  It is
//!   also the oracle a property test pins the flat table to.
//!
//! Each kept partial is one back-pointer node.  The search returns the
//! winner of every last-boundary tile count without rebuilding it; a
//! caller walks back-pointers only for the winners it packages (the
//! whole curve for `explore`, the best alone for a degraded rung, one
//! per chip for a board).  A flat search can be rooted at any boundary,
//! so one run prices every range that starts there: the board search's
//! range tables.  The work is O(n·g·B·k): actors × max group size ×
//! tile budget × tile options per group (times the front size under a
//! frame with fusion).
//!
//! Ties are deterministic.  Boundaries are built in order; within one,
//! sources run by group start ascending, then by kept order, then by
//! tile option ascending.  On an exact `(power, cross, feasibility)` tie
//! the incumbent keeps the cell.
//!
//! A clone-based exhaustive engine is retained under `#[cfg(test)]` as
//! [`reference`]; a differential property test pins the DP to it.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use crate::model::{ColumnEval, Evaluator, GraphContext};
#[cfg(test)]
use crate::space::Grouping;
use crate::space::TileCandidates;
use crate::CommSpec;

/// Counters describing one search run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Partial mappings evaluated: one per DP relaxation, i.e. one kept
    /// prefix extended by one tile option of one group.
    pub mappings_evaluated: u64,
    /// Contiguous actor→column groupings the search covers (paths through
    /// the grouping DAG, saturating at `u64::MAX`).  The DP examines all
    /// of them implicitly and enumerates none.
    pub groupings_examined: u64,
    /// Partial mappings the dominance check discarded: offers an already
    /// kept partial covers, plus kept partials a later offer covers.
    pub states_pruned: u64,
    /// Under a [`CommSpec`]: extensions (one per tile option) dropped
    /// because the prefix's committed cross-column words plus the new
    /// group's would overflow the TDM frame.  When no grouping fits,
    /// [`crate::ExplorerError::CommInfeasible`] counts whole groupings
    /// instead.  Zero without a `CommSpec`.
    pub groupings_comm_pruned: u64,
    /// Always 1: the search is single-threaded.  Kept so harnesses that
    /// record a thread count keep working.
    pub threads_used: usize,
    /// Wall-clock search time in seconds.
    pub elapsed_seconds: f64,
}

/// One search result of the exhaustive oracle: a grouping plus a tile
/// allocation and its evaluated cost.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub groups: Grouping,
    pub allocation: Vec<u32>,
    pub power_mw: f64,
    pub feasible: bool,
}

/// One pre-evaluated tile option of a contiguous interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntervalOption {
    /// Candidate tile count.
    pub tiles: u32,
    /// Whether the operating point fits the supply envelope.
    pub feasible: bool,
    /// Total column power at this tile count (mW).
    pub power: f64,
}

/// Pre-evaluated options of every contiguous interval the search may use
/// as one column group, stored as one contiguous arena with a parallel
/// offsets array indexed by `(start, end)`.
///
/// Interval costs are independent of the surrounding grouping, so each
/// operating point is evaluated exactly once per search (and an arena is
/// shared across the points of a bus-width sweep).  The DP scans the
/// compact `options` array on sequential cache lines; the full
/// [`ColumnEval`] of each option sits in the parallel `evals` array, from
/// which the winners are packaged without evaluating anything again.
pub(crate) struct IntervalArena {
    /// Row stride of the offsets table (`n + 1` end slots per start).
    stride: usize,
    /// `offsets[start * stride + end] .. offsets[start * stride + end + 1]`
    /// bounds the options of interval `start..end` (empty for intervals
    /// the search never uses).
    offsets: Vec<u32>,
    /// All interval options, grouped by interval, tiles ascending.
    options: Vec<IntervalOption>,
    /// `evals[i]` is the full evaluation behind `options[i]`.
    evals: Vec<ColumnEval>,
}

impl IntervalArena {
    /// Evaluate every usable interval of `ctx` once.  Candidate tile
    /// counts are produced into one reusable scratch buffer.
    pub fn build(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
    ) -> Self {
        let n = ctx.n;
        let stride = n + 1;
        let mut offsets = Vec::with_capacity(n * stride + 1);
        let mut options = Vec::new();
        let mut evals = Vec::new();
        let mut tile_scratch = Vec::new();
        offsets.push(0u32);
        for start in 0..n {
            let end_limit = (start + max_group_size).min(n);
            for end in 0..stride {
                if end > start && end <= end_limit {
                    let work = ctx.group_work(start, end);
                    let cap = ctx.group_cap(start, end);
                    let tokens = ctx.boundary_tokens(start, end);
                    candidates.for_group_into(cap, budget, &mut tile_scratch);
                    for &tiles in &tile_scratch {
                        let eval = evaluator.evaluate_column(work, cap, tokens, tiles);
                        options.push(IntervalOption {
                            tiles,
                            feasible: eval.within_envelope,
                            power: eval.power.total_mw(),
                        });
                        evals.push(eval);
                    }
                }
                offsets.push(options.len() as u32);
            }
        }
        IntervalArena {
            stride,
            offsets,
            options,
            evals,
        }
    }

    /// The arena range of interval `start..end`'s options.
    #[inline]
    fn range(&self, start: usize, end: usize) -> std::ops::Range<usize> {
        let idx = start * self.stride + end;
        self.offsets[idx] as usize..self.offsets[idx + 1] as usize
    }

    /// The options of interval `start..end`, tiles ascending.
    #[inline]
    pub fn options(&self, start: usize, end: usize) -> &[IntervalOption] {
        &self.options[self.range(start, end)]
    }

    /// The stored evaluation of interval `start..end` on `tiles` tiles,
    /// or `None` when the interval does not offer that tile count.
    pub fn eval(&self, start: usize, end: usize, tiles: u32) -> Option<&ColumnEval> {
        let range = self.range(start, end);
        let evals = &self.evals[range];
        evals
            .binary_search_by_key(&tiles, |eval| eval.tiles)
            .ok()
            .map(|i| &evals[i])
    }

    /// Total options stored across all intervals.
    pub fn option_count(&self) -> usize {
        self.options.len()
    }
}

/// `parent` of the root entry, which has no group of its own.
const ROOT: u32 = u32::MAX;

/// One kept partial mapping of the DP: actors `0..boundary` on `tiles`
/// tiles.  Its last group is `start..boundary` on `group_tiles` tiles and
/// `parent` indexes the kept entry it extends, so every kept entry is
/// also a back-pointer node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Summed power of the partial's groups (mW), in pipeline order.
    pub power: f64,
    /// Cross-column words per iteration committed by the completed
    /// groups (always 0 without a `CommSpec`).
    cross: u64,
    tiles: u32,
    parent: u32,
    start: u32,
    group_tiles: u32,
    /// Whether every group's operating point fits the envelope.
    pub feasible: bool,
}

impl Entry {
    /// The empty mapping of boundary 0: no actors, no tiles, no power.
    const ROOT: Entry = Entry {
        power: 0.0,
        cross: 0,
        tiles: 0,
        parent: ROOT,
        start: 0,
        group_tiles: 0,
        feasible: true,
    };

    /// Does `self` make `other` redundant?  Every completion of `other`
    /// is then matched by the same completion of `self`: no more power,
    /// no more cross words, and feasible whenever `other`'s is.
    fn covers(&self, other: &Entry) -> bool {
        self.power <= other.power && self.cross <= other.cross && (self.feasible || !other.feasible)
    }
}

/// The outcome of a search: every partial the DP kept, as back-pointer
/// nodes, and its counters.  The winners are read from the last
/// boundary; nothing is rebuilt until a caller asks for a winner's
/// groups.
pub(crate) struct SearchOutcome {
    /// The boundary the search starts from: its partials map actors
    /// `root..boundary`.
    root: usize,
    /// Every kept partial, boundary by boundary, tiles ascending within a
    /// boundary; `kept[0]` is the root.
    kept: Vec<Entry>,
    /// `kept[bounds[i]..bounds[i + 1]]` is boundary `root + i`.
    bounds: Vec<usize>,
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// The last boundary the search built.
    pub fn last(&self) -> usize {
        self.root + self.bounds.len() - 2
    }

    /// The winner of every reachable exact tile count of boundary `end`
    /// (actors `root..end`), tiles ascending: its cheapest feasible
    /// partial, or its cheapest partial when none is feasible.  Empty
    /// when no mapping of those actors fits.
    pub fn winners_at(&self, end: usize) -> impl Iterator<Item = &Entry> + '_ {
        let i = end - self.root;
        self.kept[self.bounds[i]..self.bounds[i + 1]]
            .chunk_by(|a, b| a.tiles == b.tiles)
            .filter(|cell| cell[0].tiles > 0)
            .map(winner)
    }

    /// The groups of `winner`, a partial of boundary `end`, as `(start,
    /// end, tiles)`, last group first: a walk up its back-pointer chain.
    pub fn groups(
        &self,
        winner: &Entry,
        mut end: usize,
    ) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        let mut node = *winner;
        std::iter::from_fn(move || {
            if node.parent == ROOT {
                return None;
            }
            let group = (node.start as usize, end, node.group_tiles);
            end = node.start as usize;
            node = self.kept[node.parent as usize];
            Some(group)
        })
    }
}

/// The cheapest offer of one kind, feasible or infeasible, at one tile
/// count of the boundary being built.
#[derive(Debug, Clone, Copy)]
struct Offer {
    /// Set by the first offer.  An offer of +inf power is a real offer
    /// (every option costs +inf at an overflowing rate), so +inf cannot
    /// stand for "empty".
    filled: bool,
    power: f64,
    parent: u32,
    start: u32,
    group_tiles: u32,
}

impl Offer {
    const EMPTY: Offer = Offer {
        filled: false,
        power: 0.0,
        parent: ROOT,
        start: 0,
        group_tiles: 0,
    };
}

/// Run the prefix DP over `arena` and keep, per boundary and exact tile
/// count, the partials no other partial covers.  Under `comm`,
/// extensions whose committed cross-column words overflow the frame are
/// dropped as they form (cross words only grow), so every winner fits the
/// frame.  Without `comm`, or with single-actor columns, every partial of
/// a boundary commits the same cross words and the flat table
/// ([`relax_flat`]) runs; otherwise each cell is a growable front
/// ([`relax_fronts`]).
///
/// `arena` must have been built for `ctx` with the same `budget` and
/// `max_group_size` (see [`IntervalArena::build`]).
pub(crate) fn prefix_dp(
    ctx: &GraphContext,
    arena: &IntervalArena,
    budget: u32,
    max_group_size: usize,
    comm: Option<CommSpec>,
) -> SearchOutcome {
    let capacity = comm.map(|comm| comm.capacity());
    if capacity.is_none() || max_group_size == 1 {
        relax_flat(ctx, arena, budget, max_group_size, capacity, 0..ctx.n)
    } else {
        relax_fronts(ctx, arena, budget, max_group_size, capacity)
    }
}

/// The options of `options` (tiles ascending) that fit in `headroom`
/// tiles.
#[inline]
fn fitting(options: &[IntervalOption], headroom: u32) -> &[IntervalOption] {
    &options[..options.partition_point(|opt| opt.tiles <= headroom)]
}

/// The prefix DP when every partial of a boundary commits the same cross
/// words: none are tracked without a frame (`capacity` is `None`), and
/// with one, single-actor columns (`max_group_size == 1`) leave a single
/// grouping per boundary.  Of two feasible (or two infeasible) partials
/// of one cell one then covers the other, so a cell keeps its cheapest
/// feasible partial and, when strictly cheaper, its cheapest infeasible
/// one.
///
/// The boundary being built is one table of two [`Offer`] slots per
/// tile count, allocated once.  Offers run in the fronts' order and only
/// a strictly cheaper offer replaces a slot's, so the earliest offer wins
/// a tie.  Draining a tile count keeps the feasible slot, and the
/// infeasible one when strictly cheaper, in offer order (the smaller
/// parent first): the entries, counters and order [`relax_fronts`]
/// produces, which a property test pins.
///
/// Rooted at boundary `actors.start` and stopped at `actors.end`, one run
/// holds the winners of every range `actors.start..e`.
pub(crate) fn relax_flat(
    ctx: &GraphContext,
    arena: &IntervalArena,
    budget: u32,
    max_group_size: usize,
    capacity: Option<u64>,
    actors: Range<usize>,
) -> SearchOutcome {
    debug_assert!(capacity.is_none() || max_group_size == 1);
    let started = Instant::now();
    let Range {
        start: root,
        end: stop,
    } = actors;
    let mut stats = SearchStats {
        threads_used: 1,
        ..SearchStats::default()
    };
    let mut kept = vec![Entry::ROOT];
    let mut bounds = Vec::with_capacity(stop - root + 2);
    bounds.extend([0usize, 1]);
    // `paths[i]` and `bounds[i]` belong to boundary `root + i`.
    let mut paths = vec![0u64; stop - root + 1];
    paths[0] = 1;
    // `table[t]` holds tile count `t`'s cheapest feasible and cheapest
    // infeasible offer.
    let mut table = vec![[Offer::EMPTY; 2]; budget as usize + 1];
    for end in root + 1..=stop {
        // The cross words of the boundary's partials, and the tile counts
        // its offers reached.
        let mut cross = 0;
        let (mut lo, mut hi) = (usize::MAX, 0);
        for start in end.saturating_sub(max_group_size).max(root)..end {
            paths[end - root] = paths[end - root].saturating_add(paths[start - root]);
            let first = bounds[start - root];
            let sources = &kept[first..bounds[start - root + 1]];
            let options = arena.options(start, end);
            if let (Some(cap), Some(head)) = (capacity, sources.first()) {
                cross = head.cross.saturating_add(ctx.group_cross_out(start, end));
                if cross > cap {
                    for source in sources {
                        stats.groupings_comm_pruned +=
                            fitting(options, budget - source.tiles).len() as u64;
                    }
                    continue;
                }
            }
            // Sources run tiles ascending, so the options that fit only
            // shrink: `fits` walks down once per start.
            let mut fits = options.len();
            for (offset, source) in sources.iter().enumerate() {
                while fits > 0 && options[fits - 1].tiles > budget - source.tiles {
                    fits -= 1;
                }
                if fits == 0 {
                    break;
                }
                let fit = &options[..fits];
                stats.mappings_evaluated += fits as u64;
                lo = lo.min((source.tiles + fit[0].tiles) as usize);
                hi = hi.max((source.tiles + fit[fits - 1].tiles) as usize);
                let parent = (first + offset) as u32;
                for opt in fit {
                    let power = source.power + opt.power;
                    let feasible = source.feasible && opt.feasible;
                    let slot =
                        &mut table[(source.tiles + opt.tiles) as usize][usize::from(!feasible)];
                    if !slot.filled || power < slot.power {
                        *slot = Offer {
                            filled: true,
                            power,
                            parent,
                            start: start as u32,
                            group_tiles: opt.tiles,
                        };
                    }
                }
            }
        }
        for (tiles, slots) in table.iter_mut().enumerate().take(hi + 1).skip(lo) {
            let [feasible, infeasible] = std::mem::replace(slots, [Offer::EMPTY; 2]);
            let keep_infeasible =
                infeasible.filled && (!feasible.filled || infeasible.power < feasible.power);
            let mut pair = [
                (feasible, feasible.filled, true),
                (infeasible, keep_infeasible, false),
            ];
            if infeasible.parent < feasible.parent {
                pair.swap(0, 1);
            }
            for (offer, keep, feasible) in pair {
                if keep {
                    kept.push(Entry {
                        power: offer.power,
                        cross,
                        tiles: tiles as u32,
                        parent: offer.parent,
                        start: offer.start,
                        group_tiles: offer.group_tiles,
                        feasible,
                    });
                }
            }
        }
        bounds.push(kept.len());
    }
    // Every offer was kept or discarded, once.
    stats.states_pruned = stats.mappings_evaluated - (kept.len() as u64 - 1);
    stats.groupings_examined = paths[stop - root];
    stats.elapsed_seconds = started.elapsed().as_secs_f64();
    SearchOutcome {
        root,
        kept,
        bounds,
        stats,
    }
}

/// Offer `entry` to a growable front: drop it if a kept entry covers it
/// (the incumbent wins exact ties), otherwise evict every kept entry it
/// covers and keep it last, after the survivors in their order.  Returns
/// the number of entries discarded.
fn offer(front: &mut Vec<Entry>, entry: Entry) -> u64 {
    if front.iter().any(|kept| kept.covers(&entry)) {
        return 1;
    }
    let before = front.len();
    front.retain(|kept| !entry.covers(kept));
    front.push(entry);
    (before + 1 - front.len()) as u64
}

/// The prefix DP with one growable front per cell: under a frame with
/// fusion, partials of one cell trade power against committed cross
/// words, so a front has no fixed size.  `capacity` is the frame in cross
/// words when a `CommSpec` is set.
fn relax_fronts(
    ctx: &GraphContext,
    arena: &IntervalArena,
    budget: u32,
    max_group_size: usize,
    capacity: Option<u64>,
) -> SearchOutcome {
    let started = Instant::now();
    let n = ctx.n;
    let mut stats = SearchStats {
        threads_used: 1,
        ..SearchStats::default()
    };
    let mut kept = vec![Entry::ROOT];
    let mut bounds = vec![0usize, 1];
    let mut paths = vec![0u64; n + 1];
    paths[0] = 1;
    // The fronts of the boundary being built, one per exact tile count.
    let mut fronts: Vec<Vec<Entry>> = vec![Vec::new(); budget as usize + 1];
    for end in 1..=n {
        for start in end.saturating_sub(max_group_size)..end {
            paths[end] = paths[end].saturating_add(paths[start]);
            let options = arena.options(start, end);
            let delta = if capacity.is_some() {
                ctx.group_cross_out(start, end)
            } else {
                0
            };
            let first = bounds[start];
            for (offset, source) in kept[first..bounds[start + 1]].iter().enumerate() {
                let fit = fitting(options, budget - source.tiles);
                let cross = source.cross.saturating_add(delta);
                if capacity.is_some_and(|cap| cross > cap) {
                    stats.groupings_comm_pruned += fit.len() as u64;
                    continue;
                }
                for opt in fit {
                    stats.mappings_evaluated += 1;
                    let tiles = source.tiles + opt.tiles;
                    let entry = Entry {
                        power: source.power + opt.power,
                        cross,
                        tiles,
                        parent: (first + offset) as u32,
                        start: start as u32,
                        group_tiles: opt.tiles,
                        feasible: source.feasible && opt.feasible,
                    };
                    stats.states_pruned += offer(&mut fronts[tiles as usize], entry);
                }
            }
        }
        for front in &mut fronts {
            kept.append(front);
        }
        bounds.push(kept.len());
    }
    stats.groupings_examined = paths[n];
    stats.elapsed_seconds = started.elapsed().as_secs_f64();
    SearchOutcome {
        root: 0,
        kept,
        bounds,
        stats,
    }
}

/// The winner of a non-empty last-boundary cell: its cheapest feasible
/// partial, or its cheapest partial when none is feasible.
fn winner(cell: &[Entry]) -> &Entry {
    let by_power = |a: &&Entry, b: &&Entry| a.power.total_cmp(&b.power);
    cell.iter()
        .filter(|e| e.feasible)
        .min_by(by_power)
        .or_else(|| cell.iter().min_by(by_power))
        .expect("cells are non-empty")
}

/// Count the contiguous groupings of `ctx` (groups of at most
/// `max_group_size` actors) whose cross-column words exceed `capacity`:
/// the groupings the communication prune rejects.  A counting pass over
/// the grouping DAG with one `cross words → groupings` map per boundary;
/// every total past the capacity shares one bucket, so nothing is
/// enumerated.  Saturates at `u64::MAX`.
pub(crate) fn comm_rejected_groupings(
    ctx: &GraphContext,
    max_group_size: usize,
    capacity: u64,
) -> u64 {
    let overflow = capacity.saturating_add(1);
    let mut counts: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); ctx.n + 1];
    counts[0].insert(0, 1);
    for end in 1..=ctx.n {
        let (done, rest) = counts.split_at_mut(end);
        let first = end.saturating_sub(max_group_size);
        for (start, prefixes) in done.iter().enumerate().skip(first) {
            let delta = ctx.group_cross_out(start, end);
            for (&cross, &groupings) in prefixes {
                let bucket = cross.saturating_add(delta).min(overflow);
                let slot = rest[0].entry(bucket).or_insert(0);
                *slot = slot.saturating_add(groupings);
            }
        }
    }
    counts[ctx.n]
        .range(overflow..)
        .fold(0, |total, (_, &groupings)| total.saturating_add(groupings))
}

/// The clone-based exhaustive engine the prefix DP is property-tested
/// against: the seed implementation of the interval table and the
/// per-grouping dynamic program (allocations and all), plus the
/// communication prune applied per grouping.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::space::{grouping_from_mask, mask_respects_group_size};

    /// Per-interval candidate options: `(tiles, power, feasible)`.
    pub type IntervalOptions = Vec<(u32, f64, bool)>;

    /// Feasible beats infeasible at the same tile count; otherwise
    /// strictly lower power wins (ties keep the incumbent).
    fn better(power: f64, feasible: bool, than_power: f64, than_feasible: bool) -> bool {
        match (feasible, than_feasible) {
            (true, false) => true,
            (false, true) => false,
            _ => power < than_power,
        }
    }

    /// The seed's nested interval table.
    pub fn interval_table(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
    ) -> Vec<Vec<Option<IntervalOptions>>> {
        let n = ctx.n;
        let mut table: Vec<Vec<Option<IntervalOptions>>> = vec![vec![None; n + 1]; n];
        for (start, row) in table.iter_mut().enumerate() {
            let end_limit = (start + max_group_size).min(n);
            for (end, slot) in row
                .iter_mut()
                .enumerate()
                .take(end_limit + 1)
                .skip(start + 1)
            {
                let work = ctx.group_work(start, end);
                let cap = ctx.group_cap(start, end);
                let tokens = ctx.boundary_tokens(start, end);
                let options = candidates
                    .for_group(cap, budget)
                    .into_iter()
                    .map(|tiles| {
                        let col = evaluator.evaluate_column(work, cap, tokens, tiles);
                        (tiles, col.power.total_mw(), col.within_envelope)
                    })
                    .collect();
                *slot = Some(options);
            }
        }
        table
    }

    /// One cell of a grouping curve: `(power, feasible, allocation)`.
    pub type CurveCell = Option<(f64, bool, Vec<u32>)>;

    /// The seed's clone-based grouping DP, run as two exact min-power
    /// passes: one over feasible options only, one over all options.
    /// Returns `dp[tiles]`: the cheapest feasible allocation where one
    /// exists, else the cheapest overall.  (The seed ran one pass that
    /// preferred feasible partials, which loses the cheapest allocation
    /// at tile counts no feasible allocation reaches.)
    pub fn grouping_curve(
        groups: &Grouping,
        table: &[Vec<Option<IntervalOptions>>],
        budget: u32,
    ) -> Vec<CurveCell> {
        let pass = |feasible_only: bool| {
            let mut dp: Vec<CurveCell> = vec![None; budget as usize + 1];
            dp[0] = Some((0.0, true, Vec::new()));
            for &(start, end) in groups {
                let options = table[start][end].as_ref().expect("interval inside table");
                let mut next: Vec<CurveCell> = vec![None; budget as usize + 1];
                for (used, cell) in dp.iter().enumerate() {
                    let Some((power, feasible, allocation)) = cell else {
                        continue;
                    };
                    for &(tiles, column_power, column_feasible) in options {
                        let total = used + tiles as usize;
                        if total > budget as usize {
                            break;
                        }
                        if feasible_only && !column_feasible {
                            continue;
                        }
                        let new_power = power + column_power;
                        let slot = &mut next[total];
                        if slot.as_ref().is_none_or(|(p, _, _)| new_power < *p) {
                            let mut alloc = allocation.clone();
                            alloc.push(tiles);
                            *slot = Some((new_power, *feasible && column_feasible, alloc));
                        }
                    }
                }
                dp = next;
            }
            dp
        };
        let feasible = pass(true);
        pass(false)
            .into_iter()
            .zip(feasible)
            .map(|(any, feasible)| feasible.or(any))
            .collect()
    }

    /// The seed's sequential exhaustive merge: enumerate every grouping,
    /// drop those whose cross-column words exceed `capacity`, solve the
    /// rest with [`grouping_curve`], and keep the best candidate per
    /// exact tile count.  Returns the curve and the groupings dropped.
    pub fn exhaustive(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
        capacity: Option<u64>,
    ) -> (Vec<Candidate>, u64) {
        let n = ctx.n;
        let table = interval_table(ctx, evaluator, candidates, budget, max_group_size);
        let all = 1u64 << (n - 1);
        let mut merged: Vec<Option<Candidate>> = vec![None; budget as usize + 1];
        let mut pruned = 0u64;
        for mask in (0..all).filter(|&m| mask_respects_group_size(n, m, max_group_size)) {
            let groups = grouping_from_mask(n, mask);
            if capacity.is_some_and(|cap| ctx.grouping_cross_words(&groups) > cap) {
                pruned += 1;
                continue;
            }
            let dp = grouping_curve(&groups, &table, budget);
            for (tiles, cell) in dp.iter().enumerate().skip(1) {
                let Some((power, feasible, allocation)) = cell else {
                    continue;
                };
                let slot = &mut merged[tiles];
                let improves = match slot {
                    Some(c) => better(*power, *feasible, c.power_mw, c.feasible),
                    None => true,
                };
                if improves {
                    *slot = Some(Candidate {
                        groups: groups.clone(),
                        allocation: allocation.clone(),
                        power_mw: *power,
                        feasible: *feasible,
                    });
                }
            }
        }
        (merged.into_iter().flatten().collect(), pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExplorerConfig, ExplorerError, ExplorerSolution};
    use proptest::prelude::*;
    use synchro_sdf::SdfGraph;

    /// A pipeline chain; edge `i → i + 1` produces and consumes
    /// `rates[i]` tokens per firing.
    fn chain_with_rates(cycles: &[u64], caps: &[u32], rates: &[(u64, u64)]) -> SdfGraph {
        let mut graph = SdfGraph::new();
        let mut prev = None;
        for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
            let actor = graph.add_actor(format!("a{i}"), c, cap);
            if let Some(p) = prev {
                let (produce, consume) = rates[i - 1];
                graph.add_edge(p, actor, produce, consume, 0).unwrap();
            }
            prev = Some(actor);
        }
        graph
    }

    fn chain(cycles: &[u64], caps: &[u32]) -> SdfGraph {
        chain_with_rates(cycles, caps, &vec![(1, 1); cycles.len()])
    }

    fn context_and_evaluator(graph: &SdfGraph) -> (GraphContext, Evaluator) {
        let ctx = GraphContext::new(graph).unwrap();
        let evaluator = Evaluator::new(&synchro_power::Technology::isca2004(), 1e6, 1.0).unwrap();
        (ctx, evaluator)
    }

    fn best_feasible_power(curve: &[Candidate]) -> f64 {
        curve
            .iter()
            .filter(|c| c.feasible)
            .map(|c| c.power_mw)
            .fold(f64::INFINITY, f64::min)
    }

    /// Every winner of `outcome`, rebuilt.
    fn curve(outcome: &SearchOutcome) -> Vec<Candidate> {
        outcome
            .winners_at(outcome.last())
            .map(|winner| {
                let (mut groups, mut allocation): (Grouping, Vec<u32>) = outcome
                    .groups(winner, outcome.last())
                    .map(|(start, end, tiles)| ((start, end), tiles))
                    .unzip();
                groups.reverse();
                allocation.reverse();
                Candidate {
                    groups,
                    allocation,
                    power_mw: winner.power,
                    feasible: winner.feasible,
                }
            })
            .collect()
    }

    const CAP_CHOICES: [u32; 6] = [1, 2, 4, 8, 16, 32];
    /// Edge rates, weighted towards 1:1 so that most chains keep some
    /// feasible tile counts.
    const RATE_CHOICES: [(u64, u64); 4] = [(1, 1), (1, 1), (2, 1), (1, 2)];

    #[test]
    fn arena_matches_the_reference_table_bit_for_bit() {
        let graph = chain(&[60, 100, 5, 380], &[16, 16, 4, 32]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        for candidates in [TileCandidates::PowersOfTwo, TileCandidates::All] {
            for max_group in [1usize, 2, 4] {
                let arena = IntervalArena::build(&ctx, &evaluator, candidates, 24, max_group);
                let table = reference::interval_table(&ctx, &evaluator, candidates, 24, max_group);
                for (start, row) in table.iter().enumerate() {
                    for (end, slot) in row.iter().enumerate() {
                        let flat = arena.options(start, end);
                        match slot {
                            None => assert!(flat.is_empty(), "{start}..{end} should be unused"),
                            Some(options) => {
                                assert_eq!(flat.len(), options.len());
                                for (a, &(tiles, power, feasible)) in flat.iter().zip(options) {
                                    assert_eq!(a.tiles, tiles);
                                    assert_eq!(a.power.to_bits(), power.to_bits());
                                    assert_eq!(a.feasible, feasible);
                                    // The stored evaluation is the one the
                                    // option was summarised from.
                                    let direct = evaluator.evaluate_column(
                                        ctx.group_work(start, end),
                                        ctx.group_cap(start, end),
                                        ctx.boundary_tokens(start, end),
                                        tiles,
                                    );
                                    assert_eq!(arena.eval(start, end, tiles), Some(&direct));
                                }
                                assert_eq!(arena.eval(start, end, 0), None);
                            }
                        }
                    }
                }
            }
        }
    }

    /// `(tiles, power bits, feasible)` of a curve point.
    fn point(s: &ExplorerSolution) -> (u32, u64, bool) {
        (s.total_tiles, s.power_mw.to_bits(), s.feasible)
    }

    proptest! {
        /// The prefix DP, through `explore`, against the exhaustive
        /// oracle on random 2–8-actor chains with 1:1, 2:1 and 1:2
        /// edges, max group sizes {1, 2, n}, both tile-candidate sets,
        /// random budgets, and (about evenly) no frame or a 0–7-slot
        /// one.  The curve matches tile count by tile count (power bits
        /// and feasibility), and so do the best solution and the frontier.
        /// Every winner is a contiguous grouping that fits the group
        /// size and the frame.  When nothing fits, the error matches:
        /// `BudgetTooSmall`, or `CommInfeasible` counting exactly the
        /// groupings the oracle rejected.
        #[test]
        fn backpointer_dp_matches_clone_based_reference(
            cycles in prop::collection::vec(1u64..1_000, 8),
            cap_picks in prop::collection::vec(0usize..6, 8),
            rate_picks in prop::collection::vec(0usize..4, 8),
            n in 2usize..9,
            group_pick in 0usize..3,
            all_candidates in any::<bool>(),
            budget in 1u32..40,
            capacity_pick in 0u64..16,
        ) {
            let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
            let rates: Vec<(u64, u64)> = rate_picks.iter().map(|&i| RATE_CHOICES[i]).collect();
            let graph = chain_with_rates(&cycles[..n], &caps, &rates);
            let (ctx, evaluator) = context_and_evaluator(&graph);
            let max_group = [1, 2, n][group_pick];
            let candidates = if all_candidates {
                TileCandidates::All
            } else {
                TileCandidates::PowersOfTwo
            };
            // 8 and above stand for "no frame": half the cases, and the
            // framed single-actor ones, run the flat table.
            let capacity = (capacity_pick < 8).then_some(capacity_pick);
            let mut config = ExplorerConfig::new(1e6, budget).with_candidates(candidates);
            config.max_group_size = max_group;
            if let Some(capacity) = capacity {
                config = config.with_comm(CommSpec::new(1, capacity));
            }
            let (oracle, rejected) =
                reference::exhaustive(&ctx, &evaluator, candidates, budget, max_group, capacity);

            let exploration = match explore(&graph, &config) {
                Ok(exploration) => exploration,
                Err(ExplorerError::BudgetTooSmall { min_groups, .. }) => {
                    prop_assert!(oracle.is_empty());
                    prop_assert_eq!(min_groups, n.div_ceil(max_group));
                    prop_assert!((budget as usize) < min_groups);
                    return Ok(());
                }
                Err(ExplorerError::CommInfeasible { capacity: cap, pruned }) => {
                    prop_assert!(oracle.is_empty());
                    prop_assert_eq!(Some(cap), capacity);
                    prop_assert_eq!(pruned, rejected);
                    prop_assert!(pruned > 0);
                    return Ok(());
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected error {other}")));
                }
            };
            let oracle_points: Vec<(u32, u64, bool)> = oracle
                .iter()
                .map(|c| (c.allocation.iter().sum(), c.power_mw.to_bits(), c.feasible))
                .collect();
            let curve: Vec<(u32, u64, bool)> = exploration.curve.iter().map(point).collect();
            prop_assert_eq!(&curve, &oracle_points);

            // The oracle's best: cheapest feasible, else cheapest.
            let cheapest = |feasible_only: bool| {
                oracle_points
                    .iter()
                    .filter(|p| p.2 || !feasible_only)
                    .min_by(|a, b| f64::from_bits(a.1).total_cmp(&f64::from_bits(b.1)))
                    .copied()
            };
            let best = cheapest(true).or_else(|| cheapest(false));
            prop_assert_eq!(Some(point(&exploration.best)), best);
            // The oracle's frontier: the strictly falling power staircase
            // over the feasible points (all points when none is feasible).
            let any_feasible = oracle_points.iter().any(|p| p.2);
            let mut floor = f64::INFINITY;
            let mut frontier = Vec::new();
            for &p in oracle_points.iter().filter(|p| p.2 || !any_feasible) {
                if f64::from_bits(p.1) < floor {
                    floor = f64::from_bits(p.1);
                    frontier.push(p);
                }
            }
            let got: Vec<(u32, u64, bool)> = exploration.frontier.iter().map(point).collect();
            prop_assert_eq!(got, frontier);

            for solution in &exploration.curve {
                let groups: Grouping = solution
                    .columns
                    .iter()
                    .map(|c| (c.actors.start, c.actors.end))
                    .collect();
                let mut covered = 0usize;
                for &(start, end) in &groups {
                    prop_assert_eq!(start, covered);
                    prop_assert!(end - start <= max_group);
                    covered = end;
                }
                prop_assert_eq!(covered, n);
                prop_assert!(capacity.is_none_or(|cap| ctx.grouping_cross_words(&groups) <= cap));
            }
        }
    }

    #[test]
    fn cells_keep_exactly_the_uncovered_partials() {
        let partial = |power: f64, cross: u64, feasible: bool| Entry {
            power,
            cross,
            tiles: 4,
            parent: ROOT,
            start: 0,
            group_tiles: 4,
            feasible,
        };
        let mut cell: Vec<Entry> = Vec::new();
        assert_eq!(offer(&mut cell, partial(10.0, 2, true)), 0);
        // A cheaper infeasible partial joins the cell without evicting
        // the feasible one, and so does a pricier one with fewer cross
        // words.
        assert_eq!(offer(&mut cell, partial(8.0, 2, false)), 0);
        assert_eq!(offer(&mut cell, partial(12.0, 1, true)), 0);
        assert_eq!(cell.len(), 3);
        assert_eq!(winner(&cell).power, 10.0, "feasible first, then power");
        // Covered offers are dropped; on an exact tie the incumbent stays.
        assert_eq!(offer(&mut cell, partial(9.0, 2, false)), 1);
        assert_eq!(offer(&mut cell, partial(10.0, 2, true)), 1);
        // At equal power and cross words, feasible covers infeasible.
        assert_eq!(offer(&mut cell, partial(8.0, 2, true)), 2);
        let kept: Vec<(f64, u64, bool)> = cell
            .iter()
            .map(|e| (e.power, e.cross, e.feasible))
            .collect();
        assert_eq!(kept, vec![(12.0, 1, true), (8.0, 2, true)]);
    }

    /// Every field of every kept entry, powers as bits.
    fn entries(outcome: &SearchOutcome) -> Vec<(u64, u64, u32, u32, u32, u32, bool)> {
        outcome
            .kept
            .iter()
            .map(|e| {
                let Entry {
                    power,
                    cross,
                    tiles,
                    parent,
                    start,
                    group_tiles,
                    feasible,
                } = *e;
                (
                    power.to_bits(),
                    cross,
                    tiles,
                    parent,
                    start,
                    group_tiles,
                    feasible,
                )
            })
            .collect()
    }

    /// Every search counter but the time.
    fn counters(stats: &SearchStats) -> [u64; 5] {
        [
            stats.mappings_evaluated,
            stats.groupings_examined,
            stats.states_pruned,
            stats.groupings_comm_pruned,
            stats.threads_used as u64,
        ]
    }

    /// Cycle counts and caps for the flat-cell property, few enough that
    /// intervals often cost exactly the same.
    const TIED_CYCLES: [u64; 3] = [40, 80, 160];
    const TIED_CAPS: [u32; 3] = [1, 2, 4];
    /// Iteration rates for the flat-cell property: at 1 M iterations/s
    /// every option fits the envelope, at 4 M and 16 M the narrow ones do
    /// not, and at `f64::MAX` every option costs +inf.
    const TIED_RATES: [f64; 4] = [1e6, 4e6, 16e6, f64::MAX];

    /// An arena for `ctx` whose options are drawn from `draws`, in turn,
    /// instead of priced by the cost model: every usable interval offers
    /// the power-of-two tile counts up to `budget`, each at a power from
    /// a set of four and randomly feasible, so partials of both kinds tie
    /// exactly.
    fn drawn_arena(
        ctx: &GraphContext,
        budget: u32,
        max_group_size: usize,
        draws: &[u8],
    ) -> IntervalArena {
        let stride = ctx.n + 1;
        let mut offsets = vec![0u32];
        let mut options = Vec::new();
        let mut draws = draws.iter().cycle();
        for start in 0..ctx.n {
            for end in 0..stride {
                if end > start && end <= (start + max_group_size).min(ctx.n) {
                    for tiles in (0..32).map(|k| 1u32 << k).take_while(|&t| t <= budget) {
                        let draw = draws.next().copied().unwrap_or(0);
                        options.push(IntervalOption {
                            tiles,
                            feasible: draw & 4 == 0,
                            power: [1.0, 2.0, 2.5, 4.0][usize::from(draw % 4)],
                        });
                    }
                }
                offsets.push(options.len() as u32);
            }
        }
        IntervalArena {
            stride,
            offsets,
            options,
            evals: Vec::new(),
        }
    }

    proptest! {
        /// Wherever every partial of a boundary commits the same cross
        /// words, the flat table keeps exactly what the growable fronts
        /// keep: the same entries in the same order (powers bit for bit),
        /// the same boundaries and the same counters.  Random 1–9-actor
        /// chains, about evenly frameless (max group sizes {1, 2, n}) or
        /// single-actor under a 0–16-word frame; budgets 1–64; both
        /// candidate sets.  Costs come from three cycle counts and three
        /// caps so exact ties occur, at rates where every option, some or
        /// none fits the envelope, and at `f64::MAX`, where every option
        /// costs +inf and every offer ties.  One case in three prices the
        /// options from a set of four powers with random feasibility
        /// instead, so feasible and infeasible partials tie too.
        #[test]
        fn flat_cells_match_growable_fronts(
            cycle_picks in prop::collection::vec(0usize..3, 9),
            cap_picks in prop::collection::vec(0usize..3, 9),
            rate_picks in prop::collection::vec(0usize..4, 9),
            n in 1usize..10,
            group_pick in 0usize..3,
            all_candidates in any::<bool>(),
            budget in 1u32..65,
            frame_pick in 0u64..34,
            price_pick in 0usize..6,
            draws in prop::collection::vec(0u8..8, 64),
        ) {
            // 17 and above stand for "no frame".
            let frame = (frame_pick < 17).then_some(frame_pick);
            let cycles: Vec<u64> = cycle_picks[..n].iter().map(|&i| TIED_CYCLES[i]).collect();
            let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| TIED_CAPS[i]).collect();
            let rates: Vec<(u64, u64)> = rate_picks.iter().map(|&i| RATE_CHOICES[i]).collect();
            let graph = chain_with_rates(&cycles, &caps, &rates);
            let ctx = GraphContext::new(&graph).unwrap();
            let max_group = if frame.is_some() { 1 } else { [1, 2, n][group_pick] };
            let candidates = if all_candidates {
                TileCandidates::All
            } else {
                TileCandidates::PowersOfTwo
            };
            let arena = match TIED_RATES.get(price_pick) {
                Some(&rate) => {
                    let evaluator =
                        Evaluator::new(&synchro_power::Technology::isca2004(), rate, 1.0).unwrap();
                    IntervalArena::build(&ctx, &evaluator, candidates, budget, max_group)
                }
                None => drawn_arena(&ctx, budget, max_group, &draws),
            };
            let flat = relax_flat(&ctx, &arena, budget, max_group, frame, 0..n);
            let fronts = relax_fronts(&ctx, &arena, budget, max_group, frame);
            prop_assert_eq!(entries(&flat), entries(&fronts));
            prop_assert_eq!(&flat.bounds, &fronts.bounds);
            prop_assert_eq!(counters(&flat.stats), counters(&fronts.stats));
            if TIED_RATES.get(price_pick) == Some(&f64::MAX) {
                prop_assert!(flat.kept[1..].iter().all(|e| e.power == f64::INFINITY));
            }
        }
    }

    #[test]
    fn comm_prune_drops_unschedulable_groupings_in_both_engines() {
        // A 4-stage chain with 1-token edges: the all-singleton grouping
        // crosses 3 boundaries (3 words/iteration), a 2+2 fusion crosses
        // one (1 word).  A 2-slot frame must reject every grouping with
        // more than 2 cross words but keep the fused ones.
        let graph = chain(&[60, 100, 5, 380], &[16, 16, 4, 32]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let candidates = TileCandidates::PowersOfTwo;
        let arena = IntervalArena::build(&ctx, &evaluator, candidates, 24, 4);
        let kept = prefix_dp(&ctx, &arena, 24, 4, Some(CommSpec::new(1, 2)));
        assert!(kept.stats.groupings_comm_pruned > 0);
        let kept_curve = curve(&kept);
        assert!(!kept_curve.is_empty());
        for c in &kept_curve {
            assert!(ctx.grouping_cross_words(&c.groups) <= 2, "{:?}", c.groups);
        }
        // The surviving best cost agrees with the exhaustive oracle.
        let (oracle, rejected) =
            reference::exhaustive(&ctx, &evaluator, candidates, 24, 4, Some(2));
        assert_eq!(
            best_feasible_power(&kept_curve).to_bits(),
            best_feasible_power(&oracle).to_bits()
        );
        assert_eq!(comm_rejected_groupings(&ctx, 4, 2), rejected);
        // A frame with no capacity prunes everything once fusion cannot
        // hide all the traffic (groups of at most 2 leave ≥1 cross word):
        // all 5 groupings into groups of 1–2 actors are rejected.
        let arena2 = IntervalArena::build(&ctx, &evaluator, candidates, 24, 2);
        let none = prefix_dp(&ctx, &arena2, 24, 2, Some(CommSpec::new(1, 0)));
        assert!(curve(&none).is_empty());
        assert!(none.stats.groupings_comm_pruned > 0);
        assert_eq!(none.stats.groupings_examined, 5);
        assert_eq!(comm_rejected_groupings(&ctx, 2, 0), 5);
    }

    #[test]
    fn dead_groupings_contribute_nothing() {
        // 3 singleton groups but a budget of 2: no grouping fits, except
        // via fusion.
        let graph = chain(&[10, 10, 10], &[4, 4, 4]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let arena = IntervalArena::build(&ctx, &evaluator, TileCandidates::All, 2, 1);
        let singles = prefix_dp(&ctx, &arena, 2, 1, None);
        assert!(
            singles.stats.mappings_evaluated > 0,
            "partial prefixes are still explored"
        );
        assert!(curve(&singles).is_empty(), "no complete assignment fits");
        let arena = IntervalArena::build(&ctx, &evaluator, TileCandidates::All, 2, 3);
        let fused = curve(&prefix_dp(&ctx, &arena, 2, 3, None));
        let tiles: Vec<u32> = fused.iter().map(|c| c.allocation.iter().sum()).collect();
        assert_eq!(tiles, vec![1, 2], "one entry per reachable tile count");
        assert!(fused.iter().all(|c| c.groups.len() <= 2));
    }
}
