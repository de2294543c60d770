//! The Synchroscalar segmented bus (Section 2.3 of the paper).
//!
//! Each column owns a 256-bit vertical bus organised as eight separable
//! 32-bit *splits*.  Between each pair of adjacent tiles every split has a
//! *segment switch*; closing all switches turns a split into a broadcast
//! bus, while opening some of them lets disjoint tile groups exchange
//! different words on the same split in the same cycle (mesh-like local
//! bandwidth).  A single horizontal bus connects the columns.
//!
//! The bus itself is passive: the per-column DOU decides, cycle by cycle,
//! which switches are closed and which tile's write buffer drives which
//! split (crate `synchro-dou`).  This crate checks that a requested set of
//! transfers is physically realisable (no two drivers on an electrically
//! connected segment group) and counts traffic for the power model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Errors raised when validating bus activity for one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// A tile or split index was out of range for this bus.
    IndexOutOfRange {
        /// Description of the offending index ("tile" or "split").
        what: &'static str,
        /// The index supplied.
        index: usize,
        /// Number of valid positions.
        limit: usize,
    },
    /// Two transfers drive the same electrically-connected segment group of
    /// the same split in the same cycle.
    DriverConflict {
        /// The split on which the conflict occurs.
        split: usize,
        /// The first driving tile.
        first_driver: usize,
        /// The second driving tile.
        second_driver: usize,
    },
    /// A consumer is not electrically reachable from the producer with the
    /// given segment configuration.
    Unreachable {
        /// The split used for the transfer.
        split: usize,
        /// The producing tile.
        producer: usize,
        /// The unreachable consuming tile.
        consumer: usize,
    },
    /// A bulk traffic count does not fit in 64 bits, so the statistics
    /// cannot hold it.
    Overflow {
        /// The count that overflowed.
        what: &'static str,
    },
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} index {index} out of range (limit {limit})")
            }
            BusError::DriverConflict {
                split,
                first_driver,
                second_driver,
            } => write!(
                f,
                "split {split}: tiles {first_driver} and {second_driver} drive the same segment group"
            ),
            BusError::Unreachable {
                split,
                producer,
                consumer,
            } => write!(
                f,
                "split {split}: consumer tile {consumer} is not connected to producer tile {producer}"
            ),
            BusError::Overflow { what } => write!(f, "{what} overflows 64 bits"),
        }
    }
}

impl Error for BusError {}

/// Per-split segment switch configuration for one cycle.
///
/// The switches sit in one flat table, split-major: the switch in gap `g`
/// (between tile `g` and tile `g+1`) of split `s` is entry
/// `s × gaps + g`, where `gaps = tiles − 1`.  A configuration is one
/// allocation however many splits it has.  Both dimensions are kept, so
/// finding a split's switches takes a multiplication and no division.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentConfig {
    closed: Box<[bool]>,
    splits: u32,
    /// Gaps per split; 0 when there are no splits, so that every
    /// configuration without switches compares equal.
    gaps: u32,
}

impl SegmentConfig {
    /// All switches closed: every split is a column-wide broadcast bus.
    ///
    /// # Panics
    ///
    /// Panics if `splits` or `tiles − 1` does not fit a `u32`.
    pub fn all_closed(splits: usize, tiles: usize) -> Self {
        Self::uniform(splits, tiles, true)
    }

    /// All switches open: every tile is isolated on every split.
    ///
    /// # Panics
    ///
    /// Panics if `splits` or `tiles − 1` does not fit a `u32`.
    pub fn all_open(splits: usize, tiles: usize) -> Self {
        Self::uniform(splits, tiles, false)
    }

    fn uniform(splits: usize, tiles: usize, closed: bool) -> Self {
        let gaps = if splits == 0 {
            0
        } else {
            tiles.saturating_sub(1)
        };
        let dimension = |n: usize| u32::try_from(n).expect("segment table dimension exceeds u32");
        let (splits, gaps) = (dimension(splits), dimension(gaps));
        SegmentConfig {
            closed: vec![closed; splits as usize * gaps as usize].into_boxed_slice(),
            splits,
            gaps,
        }
    }

    /// Number of splits configured.
    pub fn splits(&self) -> usize {
        self.splits as usize
    }

    /// Number of tiles this configuration spans.
    pub fn tiles(&self) -> usize {
        if self.splits == 0 {
            0
        } else {
            self.gaps as usize + 1
        }
    }

    /// Where the switches of `split` sit in the table.
    ///
    /// # Panics
    ///
    /// Panics if `split` is out of range.
    fn row(&self, split: usize) -> Range<usize> {
        assert!(split < self.splits(), "split {split} out of range");
        let gaps = self.gaps as usize;
        split * gaps..(split + 1) * gaps
    }

    /// The switches of `split`, gap by gap.
    fn switches(&self, split: usize) -> &[bool] {
        &self.closed[self.row(split)]
    }

    /// Open or close the switch in `gap` of `split`.
    ///
    /// # Panics
    ///
    /// Panics if `split` or `gap` is out of range.
    pub fn set(&mut self, split: usize, gap: usize, closed: bool) {
        let row = self.row(split);
        self.closed[row][gap] = closed;
    }

    /// Is the switch in `gap` of `split` closed?
    pub fn is_closed(&self, split: usize, gap: usize) -> bool {
        self.switches(split)[gap]
    }

    /// The tiles electrically connected to `tile` on `split`, as the
    /// inclusive span `(lo, hi)` (which contains `tile` itself).  Switches
    /// only join neighbouring tiles, so a connected group is always a
    /// contiguous span.
    pub fn connected_span(&self, split: usize, tile: usize) -> (usize, usize) {
        let gaps = self.switches(split);
        // Walk down, then up, while switches are closed.
        let mut lo = tile;
        while lo > 0 && gaps[lo - 1] {
            lo -= 1;
        }
        let mut hi = tile;
        while hi < gaps.len() && gaps[hi] {
            hi += 1;
        }
        (lo, hi)
    }
}

/// One requested word transfer on the column bus in a given cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusOp {
    /// Which 32-bit split carries the word.
    pub split: usize,
    /// The producing tile (drives the split from its write buffer).
    pub producer: usize,
    /// The consuming tiles (latch the split into their read buffers).
    pub consumers: Vec<usize>,
}

/// Traffic counters the power model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusStats {
    /// Cycles on which at least one transfer occurred.
    pub active_cycles: u64,
    /// Total word transfers (one per producer per cycle, regardless of how
    /// many consumers latch it — the wire switches once).
    pub word_transfers: u64,
    /// Total consumer deliveries.
    pub deliveries: u64,
    /// TDM slots (one split of one scheduled bus cycle) the static schedule
    /// reserved, whether or not a word was driven through them.
    pub scheduled_slots: u64,
    /// Reserved slots that actually carried a word.  Together with
    /// [`BusStats::scheduled_slots`] this gives the slot-activity power
    /// model both numerators (occupied slots switch the full split width,
    /// scheduled-but-idle slots only clock the drivers).
    pub occupied_slots: u64,
}

impl BusStats {
    /// Scheduled slots that carried no word — the idle half of the static
    /// TDM schedule (saturating, so hand-accounted stats that never called
    /// a scheduled-slot path do not underflow).
    pub fn idle_slots(&self) -> u64 {
        self.scheduled_slots.saturating_sub(self.occupied_slots)
    }

    /// The counter-wise difference `self - earlier` — the traffic that
    /// occurred between two snapshots (execution reporting uses this to
    /// attribute per-window bus activity).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually an earlier
    /// snapshot of the same monotonically growing counters.
    #[must_use]
    pub fn delta(&self, earlier: &BusStats) -> BusStats {
        BusStats {
            active_cycles: self.active_cycles - earlier.active_cycles,
            word_transfers: self.word_transfers - earlier.word_transfers,
            deliveries: self.deliveries - earlier.deliveries,
            scheduled_slots: self.scheduled_slots - earlier.scheduled_slots,
            occupied_slots: self.occupied_slots - earlier.occupied_slots,
        }
    }
}

/// A column's segmented vertical bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedBus {
    splits: usize,
    tiles: usize,
    stats: BusStats,
}

impl SegmentedBus {
    /// The paper's configuration: 8 splits of 32 bits spanning 4 tiles.
    pub fn isca2004() -> Self {
        Self::new(8, 4)
    }

    /// A bus with `splits` 32-bit splits spanning `tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `splits` or `tiles` is zero.
    pub fn new(splits: usize, tiles: usize) -> Self {
        assert!(splits > 0, "a bus needs at least one split");
        assert!(tiles > 0, "a bus needs at least one tile");
        SegmentedBus {
            splits,
            tiles,
            stats: BusStats::default(),
        }
    }

    /// Number of 32-bit splits.
    pub fn splits(&self) -> usize {
        self.splits
    }

    /// Number of tiles spanned.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Account `times` more repetitions of the traffic since the snapshot
    /// `since` of these statistics: `stats + times × (stats − since)`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Overflow`], leaving the statistics unchanged,
    /// when a count would pass `u64::MAX`.
    pub fn repeat(&mut self, since: &BusStats, times: u64) -> Result<(), BusError> {
        let (now, d) = (self.stats, self.stats.delta(since));
        let add = |now: u64, delta: u64| delta.checked_mul(times)?.checked_add(now);
        let stats = (|| {
            Some(BusStats {
                active_cycles: add(now.active_cycles, d.active_cycles)?,
                word_transfers: add(now.word_transfers, d.word_transfers)?,
                deliveries: add(now.deliveries, d.deliveries)?,
                scheduled_slots: add(now.scheduled_slots, d.scheduled_slots)?,
                occupied_slots: add(now.occupied_slots, d.occupied_slots)?,
            })
        })();
        self.stats = stats.ok_or(BusError::Overflow {
            what: "vertical bus traffic",
        })?;
        Ok(())
    }

    /// Account `cycles` scheduled bus cycles that carry no word: the
    /// statistics of as many [`SegmentedBus::cycle`] calls with no ops.
    pub fn idle_cycles(&mut self, cycles: u64) {
        self.stats.scheduled_slots += self.splits as u64 * cycles;
    }

    /// Validate and account one cycle of transfers under a segment
    /// configuration.  Every consumer of a valid op latches its producer's
    /// word, so a successful cycle delivers exactly each op's `consumers`.
    ///
    /// Allocation-free: the simulator calls this on every DOU cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`BusError`] when indices are out of range, two producers
    /// drive the same connected segment group of one split, or a consumer
    /// is not reachable from its producer.  Ops are checked in order, and
    /// each op's checks run in that order too.
    pub fn cycle(&mut self, config: &SegmentConfig, ops: &[BusOp]) -> Result<(), BusError> {
        // Every invoked cycle is a scheduled one: the DOU reserved all
        // splits for this bus cycle even when none carries a word.
        self.stats.scheduled_slots += self.splits as u64;
        if ops.is_empty() {
            return Ok(());
        }
        for (i, op) in ops.iter().enumerate() {
            if op.split >= self.splits {
                return Err(BusError::IndexOutOfRange {
                    what: "split",
                    index: op.split,
                    limit: self.splits,
                });
            }
            if op.producer >= self.tiles {
                return Err(BusError::IndexOutOfRange {
                    what: "tile",
                    index: op.producer,
                    limit: self.tiles,
                });
            }
            for &c in &op.consumers {
                if c >= self.tiles {
                    return Err(BusError::IndexOutOfRange {
                        what: "tile",
                        index: c,
                        limit: self.tiles,
                    });
                }
            }
            let (lo, hi) = config.connected_span(op.split, op.producer);
            // Groups are spans, so two drivers conflict exactly when their
            // spans overlap.  The earlier ops of this cycle all passed
            // these checks, so their spans are well-defined.
            for earlier in ops[..i].iter().filter(|o| o.split == op.split) {
                let (other_lo, other_hi) = config.connected_span(earlier.split, earlier.producer);
                if lo <= other_hi && other_lo <= hi {
                    return Err(BusError::DriverConflict {
                        split: op.split,
                        first_driver: earlier.producer,
                        second_driver: op.producer,
                    });
                }
            }
            for &c in &op.consumers {
                if c < lo || c > hi {
                    return Err(BusError::Unreachable {
                        split: op.split,
                        producer: op.producer,
                        consumer: c,
                    });
                }
            }
        }

        self.stats.occupied_slots += ops.len() as u64;
        self.stats.active_cycles += 1;
        self.stats.word_transfers += ops.len() as u64;
        self.stats.deliveries += ops.iter().map(|o| o.consumers.len() as u64).sum::<u64>();
        Ok(())
    }
}

/// The single horizontal bus connecting the columns: one transfer per cycle,
/// any column to any set of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizontalBus {
    columns: usize,
    stats: BusStats,
}

impl HorizontalBus {
    /// A horizontal bus spanning `columns` columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    pub fn new(columns: usize) -> Self {
        assert!(columns > 0, "a horizontal bus needs at least one column");
        HorizontalBus {
            columns,
            stats: BusStats::default(),
        }
    }

    /// Number of columns spanned.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Change the number of columns the bus spans while preserving the
    /// accumulated traffic statistics (used when columns are added to a
    /// chip after transfers have already been accounted).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    pub fn resize(&mut self, columns: usize) {
        assert!(columns > 0, "a horizontal bus needs at least one column");
        self.columns = columns;
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Account one inter-column transfer.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::IndexOutOfRange`] if a column index is invalid.
    pub fn transfer(&mut self, from: usize, to: &[usize]) -> Result<(), BusError> {
        self.transfer_words(from, to, 1)
    }

    /// Account `words` back-to-back transfers from `from` to `to` in one
    /// call (the bus carries one word per cycle, so this stands for
    /// `words` bus cycles).  Statistics-equivalent to calling
    /// [`HorizontalBus::transfer`] `words` times, without the loop.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::IndexOutOfRange`] if a column index is invalid,
    /// and [`BusError::Overflow`], leaving the statistics unchanged, if a
    /// count would pass `u64::MAX`.
    pub fn transfer_words(
        &mut self,
        from: usize,
        to: &[usize],
        words: u64,
    ) -> Result<(), BusError> {
        if from >= self.columns {
            return Err(BusError::IndexOutOfRange {
                what: "column",
                index: from,
                limit: self.columns,
            });
        }
        for &c in to {
            if c >= self.columns {
                return Err(BusError::IndexOutOfRange {
                    what: "column",
                    index: c,
                    limit: self.columns,
                });
            }
        }
        let s = self.stats;
        let (Some(active_cycles), Some(word_transfers), Some(occupied_slots), Some(deliveries)) = (
            s.active_cycles.checked_add(words),
            s.word_transfers.checked_add(words),
            s.occupied_slots.checked_add(words),
            (to.len() as u64)
                .checked_mul(words)
                .and_then(|d| s.deliveries.checked_add(d)),
        ) else {
            return Err(BusError::Overflow {
                what: "horizontal bus traffic",
            });
        };
        self.stats = BusStats {
            active_cycles,
            word_transfers,
            occupied_slots,
            deliveries,
            ..s
        };
        Ok(())
    }

    /// Account `slots` statically scheduled TDM slots (whether occupied or
    /// not).  A TDM-driven chip calls this once per completed schedule
    /// period with `period × splits`; the occupied half is accumulated by
    /// the individual transfers, so `stats().idle_slots()` is the
    /// scheduled-but-idle remainder the power calibration needs.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Overflow`], leaving the statistics unchanged,
    /// if the scheduled-slot count would pass `u64::MAX`.
    pub fn account_scheduled_slots(&mut self, slots: u64) -> Result<(), BusError> {
        self.stats.scheduled_slots =
            self.stats
                .scheduled_slots
                .checked_add(slots)
                .ok_or(BusError::Overflow {
                    what: "horizontal bus traffic",
                })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn default_configuration_matches_paper() {
        let bus = SegmentedBus::isca2004();
        assert_eq!(bus.splits(), 8);
        assert_eq!(bus.tiles(), 4);
    }

    /// The validation `SegmentedBus::cycle` replaced, kept as a
    /// differential oracle: connected groups as explicit tile sets and
    /// driver conflicts as set intersections.
    fn connected_group_oracle(
        config: &SegmentConfig,
        split: usize,
        tile: usize,
    ) -> BTreeSet<usize> {
        let mut group = BTreeSet::new();
        group.insert(tile);
        let gaps = config.switches(split);
        let mut lo = tile;
        while lo > 0 && gaps[lo - 1] {
            lo -= 1;
            group.insert(lo);
        }
        let mut hi = tile;
        while hi < gaps.len() && gaps[hi] {
            hi += 1;
            group.insert(hi);
        }
        group
    }

    fn cycle_oracle(
        splits: usize,
        tiles: usize,
        config: &SegmentConfig,
        ops: &[BusOp],
    ) -> Result<(), BusError> {
        let mut drivers: Vec<Vec<(usize, BTreeSet<usize>)>> = vec![Vec::new(); splits];
        for op in ops {
            if op.split >= splits {
                return Err(BusError::IndexOutOfRange {
                    what: "split",
                    index: op.split,
                    limit: splits,
                });
            }
            if op.producer >= tiles {
                return Err(BusError::IndexOutOfRange {
                    what: "tile",
                    index: op.producer,
                    limit: tiles,
                });
            }
            for &c in &op.consumers {
                if c >= tiles {
                    return Err(BusError::IndexOutOfRange {
                        what: "tile",
                        index: c,
                        limit: tiles,
                    });
                }
            }
            let group = connected_group_oracle(config, op.split, op.producer);
            for (other, other_group) in &drivers[op.split] {
                if !group.is_disjoint(other_group) {
                    return Err(BusError::DriverConflict {
                        split: op.split,
                        first_driver: *other,
                        second_driver: op.producer,
                    });
                }
            }
            for &c in &op.consumers {
                if !group.contains(&c) {
                    return Err(BusError::Unreachable {
                        split: op.split,
                        producer: op.producer,
                        consumer: c,
                    });
                }
            }
            drivers[op.split].push((op.producer, group));
        }
        Ok(())
    }

    /// Every gap pattern of a 4-tile split.
    fn gap_patterns() -> impl Iterator<Item = SegmentConfig> {
        (0u32..8).map(|mask| {
            let mut cfg = SegmentConfig::all_open(1, 4);
            for gap in 0..3 {
                cfg.set(0, gap, mask & (1 << gap) != 0);
            }
            cfg
        })
    }

    #[test]
    fn connected_span_is_the_oracle_group() {
        for cfg in gap_patterns() {
            for tile in 0..4 {
                let group = connected_group_oracle(&cfg, 0, tile);
                let (lo, hi) = cfg.connected_span(0, tile);
                assert_eq!(
                    group,
                    (lo..=hi).collect::<BTreeSet<_>>(),
                    "{cfg:?} tile {tile}"
                );
            }
        }
    }

    #[test]
    fn cycle_matches_the_set_oracle_exhaustively() {
        // Every op with split in 0..=1 (one past a 1-split bus), producer
        // in 0..=4 (one past 4 tiles) and no consumer or one in 0..=4, so
        // every out-of-range error is reachable; then every ordered pair
        // of such ops under every gap pattern.
        let mut singles = Vec::new();
        for split in 0..=1 {
            for producer in 0..=4 {
                singles.push(BusOp {
                    split,
                    producer,
                    consumers: Vec::new(),
                });
                for consumer in 0..=4 {
                    singles.push(BusOp {
                        split,
                        producer,
                        consumers: vec![consumer],
                    });
                }
            }
        }
        let (mut cases, mut failures) = (0, 0);
        for cfg in gap_patterns() {
            for first in &singles {
                for second in &singles {
                    let ops = [first.clone(), second.clone()];
                    let mut bus = SegmentedBus::new(1, 4);
                    let got = bus.cycle(&cfg, &ops);
                    assert_eq!(got, cycle_oracle(1, 4, &cfg, &ops), "{cfg:?} {ops:?}");
                    cases += 1;
                    failures += usize::from(got.is_err());
                }
            }
        }
        assert_eq!(cases, 8 * singles.len() * singles.len());
        assert!(failures > 0 && failures < cases, "both outcomes covered");
    }

    /// The representation the flat table replaced, kept as its model: one
    /// vector of gap switches per split.
    struct Model {
        closed: Vec<Vec<bool>>,
    }

    impl Model {
        fn new(splits: usize, tiles: usize, closed: bool) -> Self {
            Model {
                closed: vec![vec![closed; tiles - 1]; splits],
            }
        }

        fn connected_span(&self, split: usize, tile: usize) -> (usize, usize) {
            let gaps = &self.closed[split];
            let (mut lo, mut hi) = (tile, tile);
            while lo > 0 && gaps[lo - 1] {
                lo -= 1;
            }
            while hi < gaps.len() && gaps[hi] {
                hi += 1;
            }
            (lo, hi)
        }
    }

    /// The configuration and its model after `sets`, each `(split, gap,
    /// closed)` drawn from one `u64`, on a bus started all closed or all
    /// open.
    fn configured(
        splits: usize,
        tiles: usize,
        start: bool,
        sets: &[u64],
    ) -> (SegmentConfig, Model) {
        let mut config = if start {
            SegmentConfig::all_closed(splits, tiles)
        } else {
            SegmentConfig::all_open(splits, tiles)
        };
        let mut model = Model::new(splits, tiles, start);
        for &raw in sets.iter().filter(|_| tiles > 1) {
            let split = (raw % splits as u64) as usize;
            let gap = ((raw >> 8) % (tiles as u64 - 1)) as usize;
            let closed = (raw >> 16) & 1 == 1;
            config.set(split, gap, closed);
            model.closed[split][gap] = closed;
        }
        (config, model)
    }

    proptest! {
        /// On 1–8 splits × 1–8 tiles (one tile: no gaps) and random `set`
        /// sequences, the flat table answers `is_closed`,
        /// `connected_span`, `splits`, `tiles` and `==` as the vector of
        /// vectors does.
        #[test]
        fn flat_table_matches_the_vector_model(
            splits in 1usize..9,
            tiles in 1usize..9,
            starts in any::<u64>(),
            sets in prop::collection::vec(any::<u64>(), 0..24),
            cut in 0usize..24,
        ) {
            let (config, model) = configured(splits, tiles, starts & 1 == 1, &sets);
            prop_assert_eq!(config.splits(), splits);
            prop_assert_eq!(config.tiles(), tiles);
            for split in 0..splits {
                for gap in 0..tiles - 1 {
                    prop_assert_eq!(config.is_closed(split, gap), model.closed[split][gap]);
                }
                for tile in 0..tiles {
                    prop_assert_eq!(
                        config.connected_span(split, tile),
                        model.connected_span(split, tile)
                    );
                }
            }
            // Against a prefix of the same sets, from either start, and
            // against the neighbouring shapes.
            let prefix = &sets[..cut.min(sets.len())];
            for start in [false, true] {
                let (other, other_model) = configured(splits, tiles, start, prefix);
                prop_assert_eq!(config == other, model.closed == other_model.closed);
            }
            for (s, t) in [(splits + 1, tiles), (splits, tiles + 1)] {
                let (other, other_model) = configured(s, t, starts & 1 == 1, &sets);
                prop_assert_eq!(config == other, model.closed == other_model.closed);
            }
        }
    }

    #[test]
    fn zero_splits_span_no_tiles() {
        let none = SegmentConfig::all_closed(0, 4);
        assert_eq!((none.splits(), none.tiles()), (0, 0));
        assert_eq!(none, SegmentConfig::all_open(0, 7));
    }

    #[test]
    fn all_closed_is_a_broadcast_bus() {
        let cfg = SegmentConfig::all_closed(8, 4);
        assert_eq!(cfg.connected_span(0, 0), (0, 3));
    }

    #[test]
    fn all_open_isolates_tiles() {
        let cfg = SegmentConfig::all_open(8, 4);
        assert_eq!(cfg.connected_span(3, 2), (2, 2));
    }

    #[test]
    fn broadcast_reaches_all_tiles() {
        let mut bus = SegmentedBus::isca2004();
        let cfg = SegmentConfig::all_closed(8, 4);
        bus.cycle(
            &cfg,
            &[BusOp {
                split: 0,
                producer: 0,
                consumers: vec![1, 2, 3],
            }],
        )
        .unwrap();
        assert_eq!(bus.stats().word_transfers, 1);
        assert_eq!(bus.stats().deliveries, 3);
    }

    #[test]
    fn segmentation_allows_two_messages_on_one_split() {
        // Open the middle gap: tiles {0,1} and {2,3} form independent
        // segments and can each carry a message on the same split — the
        // "approximate bandwidth of a mesh" property from the paper.
        let mut bus = SegmentedBus::isca2004();
        let mut cfg = SegmentConfig::all_closed(8, 4);
        cfg.set(0, 1, false);
        let ops = [
            BusOp {
                split: 0,
                producer: 0,
                consumers: vec![1],
            },
            BusOp {
                split: 0,
                producer: 3,
                consumers: vec![2],
            },
        ];
        bus.cycle(&cfg, &ops).unwrap();
        assert_eq!(bus.stats().word_transfers, 2);
        assert_eq!(bus.stats().deliveries, 2);
    }

    #[test]
    fn driver_conflict_is_detected() {
        let mut bus = SegmentedBus::isca2004();
        let cfg = SegmentConfig::all_closed(8, 4);
        let ops = [
            BusOp {
                split: 2,
                producer: 0,
                consumers: vec![1],
            },
            BusOp {
                split: 2,
                producer: 3,
                consumers: vec![2],
            },
        ];
        let err = bus.cycle(&cfg, &ops).unwrap_err();
        assert!(matches!(err, BusError::DriverConflict { split: 2, .. }));
    }

    #[test]
    fn different_splits_never_conflict() {
        let mut bus = SegmentedBus::isca2004();
        let cfg = SegmentConfig::all_closed(8, 4);
        let ops: Vec<BusOp> = (0..8)
            .map(|s| BusOp {
                split: s,
                producer: s % 4,
                consumers: vec![(s + 1) % 4],
            })
            .collect();
        assert!(bus.cycle(&cfg, &ops).is_ok());
        assert_eq!(bus.stats().word_transfers, 8);
    }

    #[test]
    fn unreachable_consumer_is_detected() {
        let mut bus = SegmentedBus::isca2004();
        let mut cfg = SegmentConfig::all_closed(8, 4);
        cfg.set(5, 1, false);
        let err = bus
            .cycle(
                &cfg,
                &[BusOp {
                    split: 5,
                    producer: 0,
                    consumers: vec![3],
                }],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            BusError::Unreachable {
                split: 5,
                producer: 0,
                consumer: 3
            }
        ));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut bus = SegmentedBus::isca2004();
        let cfg = SegmentConfig::all_closed(8, 4);
        assert!(bus
            .cycle(
                &cfg,
                &[BusOp {
                    split: 8,
                    producer: 0,
                    consumers: vec![]
                }]
            )
            .is_err());
        assert!(bus
            .cycle(
                &cfg,
                &[BusOp {
                    split: 0,
                    producer: 4,
                    consumers: vec![]
                }]
            )
            .is_err());
        assert!(bus
            .cycle(
                &cfg,
                &[BusOp {
                    split: 0,
                    producer: 0,
                    consumers: vec![9]
                }]
            )
            .is_err());
    }

    #[test]
    fn idle_cycles_do_not_count_as_active() {
        let mut bus = SegmentedBus::isca2004();
        let cfg = SegmentConfig::all_closed(8, 4);
        bus.cycle(&cfg, &[]).unwrap();
        assert_eq!(bus.stats().active_cycles, 0);
        assert_eq!(bus.stats().word_transfers, 0);
        // ... but they are still scheduled slots the DOU reserved.
        assert_eq!(bus.stats().scheduled_slots, 8);
        assert_eq!(bus.stats().occupied_slots, 0);
        assert_eq!(bus.stats().idle_slots(), 8);
    }

    #[test]
    fn scheduled_and_occupied_slots_are_counted_separately() {
        let mut bus = SegmentedBus::isca2004();
        let cfg = SegmentConfig::all_closed(8, 4);
        bus.cycle(
            &cfg,
            &[BusOp {
                split: 0,
                producer: 0,
                consumers: vec![1],
            }],
        )
        .unwrap();
        bus.cycle(&cfg, &[]).unwrap();
        // Two scheduled cycles × 8 splits, one of which carried a word.
        assert_eq!(bus.stats().scheduled_slots, 16);
        assert_eq!(bus.stats().occupied_slots, 1);
        assert_eq!(bus.stats().idle_slots(), 15);
    }

    #[test]
    fn horizontal_scheduled_slots_accumulate_independently_of_transfers() {
        let mut h = HorizontalBus::new(3);
        h.transfer_words(0, &[1], 4).unwrap();
        assert_eq!(h.stats().occupied_slots, 4);
        assert_eq!(h.stats().scheduled_slots, 0);
        h.account_scheduled_slots(10).unwrap();
        assert_eq!(h.stats().scheduled_slots, 10);
        assert_eq!(h.stats().idle_slots(), 6);
        // Hand-accounted stats with no scheduled-slot path never underflow.
        let lone = HorizontalBus::new(2).stats();
        assert_eq!(lone.idle_slots(), 0);
    }

    #[test]
    fn scheduled_slots_past_u64_are_an_error_not_a_wrapped_count() {
        let mut h = HorizontalBus::new(2);
        h.account_scheduled_slots(u64::MAX).unwrap();
        assert_eq!(
            h.account_scheduled_slots(2),
            Err(BusError::Overflow {
                what: "horizontal bus traffic"
            })
        );
        assert_eq!(h.stats().scheduled_slots, u64::MAX, "left unchanged");
    }

    #[test]
    fn bulk_word_transfers_match_repeated_single_transfers() {
        let mut bulk = HorizontalBus::new(3);
        bulk.transfer_words(0, &[1, 2], 5).unwrap();
        let mut single = HorizontalBus::new(3);
        for _ in 0..5 {
            single.transfer(0, &[1, 2]).unwrap();
        }
        assert_eq!(bulk.stats(), single.stats());
        assert!(bulk.transfer_words(3, &[0], 1).is_err());
        assert!(bulk.transfer_words(0, &[9], 1).is_err());
    }

    #[test]
    fn scaled_accumulation_matches_replayed_cycles() {
        let cfg = SegmentConfig::all_closed(8, 4);
        let op = BusOp {
            split: 0,
            producer: 0,
            consumers: vec![1, 2, 3],
        };
        // Measure one period: an active cycle followed by an idle one.
        let mut probe = SegmentedBus::isca2004();
        probe.cycle(&cfg, std::slice::from_ref(&op)).unwrap();
        probe.cycle(&cfg, &[]).unwrap();
        // Replay the period 7 times against the measured one repeated 6
        // more times.
        let mut replayed = SegmentedBus::isca2004();
        for _ in 0..7 {
            replayed.cycle(&cfg, std::slice::from_ref(&op)).unwrap();
            replayed.cycle(&cfg, &[]).unwrap();
        }
        let mut bulk = probe.clone();
        bulk.repeat(&BusStats::default(), 6).unwrap();
        assert_eq!(bulk.stats(), replayed.stats());
        // Zero repetitions accumulate nothing.
        bulk.repeat(&BusStats::default(), 0).unwrap();
        assert_eq!(bulk.stats(), replayed.stats());
        // A repetition whose count passes `u64::MAX` changes nothing.
        assert_eq!(
            bulk.repeat(&BusStats::default(), u64::MAX),
            Err(BusError::Overflow {
                what: "vertical bus traffic"
            })
        );
        assert_eq!(bulk.stats(), replayed.stats());
    }

    #[test]
    fn horizontal_resize_preserves_stats() {
        let mut h = HorizontalBus::new(2);
        h.transfer(0, &[1]).unwrap();
        h.transfer(1, &[0]).unwrap();
        let before = h.stats();
        h.resize(3);
        assert_eq!(h.columns(), 3);
        assert_eq!(h.stats(), before, "resizing must not discard statistics");
        // The new column is immediately addressable.
        h.transfer(2, &[0, 1]).unwrap();
        assert_eq!(h.stats().word_transfers, 3);
    }

    #[test]
    fn horizontal_bus_counts_traffic_and_validates() {
        let mut h = HorizontalBus::new(4);
        h.transfer(0, &[1, 2]).unwrap();
        h.transfer(3, &[0]).unwrap();
        assert_eq!(h.stats().word_transfers, 2);
        assert_eq!(h.stats().deliveries, 3);
        assert!(h.transfer(4, &[0]).is_err());
        assert!(h.transfer(0, &[7]).is_err());
        assert_eq!(h.columns(), 4);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BusError::DriverConflict {
            split: 1,
            first_driver: 0,
            second_driver: 2,
        };
        assert!(e.to_string().contains("split 1"));
        let e = BusError::Unreachable {
            split: 0,
            producer: 1,
            consumer: 3,
        };
        assert!(e.to_string().contains("consumer tile 3"));
    }
}
