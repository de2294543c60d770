//! Trace analytics: energy attribution, bottleneck/slack analysis, and
//! rejection ledgers ("explain infeasibility").
//!
//! The third exporter next to [`crate::chrome`] and [`crate::report`]:
//! where those render *what happened*, this module answers *where the
//! joules went* and *which resource binds the rate*.  It prices each
//! simulation event of a captured stream through the `synchro-power`
//! models —
//!
//! * divider ticks × the column's voltage/frequency operating point
//!   ([`synchro_power::TilePowerModel::energy_per_cycle_nj`]),
//! * horizontal-bus slot occupancy × the wire-capacitance word energy
//!   ([`synchro_power::InterconnectModel::word_energy_j`]),
//! * bridge transfers × the lane's per-word rating,
//! * plus supply-time leakage ([`synchro_power::LeakageModel`]) —
//!
//! into per-column / per-bus / per-bridge [`EnergyLedger`]s and a
//! time-bucketed [`PowerTimeline`] (exported as Perfetto counter tracks
//! by [`crate::chrome::chrome_trace_with_power`]).  Because both
//! execution tiers emit equivalent streams modulo batching, the same
//! pricing applies to either; the `synchroscalar` experiments pin the
//! attributed totals against the independent report-counter energy on
//! every reference profile.
//!
//! [`bottlenecks`] turns the same stream into per-track load against
//! each track's ceiling (a column's divider-implied cycle budget, the
//! bus/bridge TDM frames), identifying the binding resource and the
//! deadline headroom per hyperperiod.  [`RejectionLedger`] is a
//! [`TraceSink`] aggregating the router's and explorer's structured
//! rejection events into a ranked explanation of *why* a `(graph, rate,
//! budget)` triple is infeasible.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use synchro_power::{BusGeometry, InterconnectModel, LeakageModel, TilePowerModel};

use crate::{TraceEvent, TraceSink};

/// Pricing context for one column: its placement identity and the
/// operating point its events are billed at.
#[derive(Debug, Clone)]
pub struct ColumnPricing {
    /// Board chip hosting the column.
    pub chip: u32,
    /// Column index within the chip.
    pub column: u32,
    /// Human-readable label (actor name).
    pub label: String,
    /// Tiles the placement runs (every billed cycle clocks all of them).
    pub tiles: u32,
    /// Supply voltage of the column's operating point.
    pub voltage: f64,
    /// Clock divider relative to the reference clock — the column's
    /// cycle-budget ceiling is `reference_ticks / clock_divider`.
    pub clock_divider: u32,
}

/// Pricing context for one chip's horizontal bus.
#[derive(Debug, Clone)]
pub struct BusPricing {
    /// Board chip the bus belongs to.
    pub chip: u32,
    /// Physical geometry the word energy derives from.
    pub geometry: BusGeometry,
    /// Supply voltage the transfers switch at (the chip's maximum column
    /// voltage, matching the route-schedule calibration convention).
    pub voltage: f64,
    /// TDM slots the schedule reserves per graph iteration (occupied +
    /// idle) — the bus ceiling for bottleneck analysis.  Not derivable
    /// from the event stream: idle slots emit nothing.
    pub scheduled_slots_per_iteration: u64,
}

/// Everything needed to price a captured event stream: per-column and
/// per-bus operating points plus the shared power models.  Built by
/// `synchroscalar::mapper::CompiledChip::price_spec` (or the board
/// variant) from the compiled plans; kept as plain data here so the
/// exporter layer stays independent of the mapper.
#[derive(Debug, Clone)]
pub struct PriceSpec {
    /// Graph-iteration rate the run was compiled for.
    pub iteration_rate_hz: f64,
    /// Reference ticks per graph iteration.
    pub hyperperiod: u64,
    /// Dynamic tile power model (per-cycle energy).
    pub tile_power: TilePowerModel,
    /// Leakage model (supply-time energy of powered tiles).
    pub leakage: LeakageModel,
    /// Interconnect model (bus word energy, bridge word energy).
    pub interconnect: InterconnectModel,
    /// Column pricing rows, one per placed column.
    pub columns: Vec<ColumnPricing>,
    /// Bus pricing rows, one per chip.
    pub buses: Vec<BusPricing>,
    /// Per-word energy rating of the board's bridge lanes, in pJ.
    pub bridge_energy_pj_per_word: f64,
    /// Bridge TDM slots reserved per graph iteration (0 on single-chip
    /// runs) — the bridge ceiling for bottleneck analysis.
    pub bridge_scheduled_slots_per_iteration: u64,
}

impl PriceSpec {
    /// Wall-clock seconds a run of `reference_ticks` spans:
    /// `ticks / (hyperperiod × iteration rate)`.
    pub fn duration_s(&self, reference_ticks: u64) -> f64 {
        if self.hyperperiod == 0 || self.iteration_rate_hz <= 0.0 {
            return 0.0;
        }
        reference_ticks as f64 / (self.hyperperiod as f64 * self.iteration_rate_hz)
    }

    fn column(&self, chip: u32, column: u32) -> Option<&ColumnPricing> {
        self.columns
            .iter()
            .find(|c| c.chip == chip && c.column == column)
    }

    fn bus(&self, chip: u32) -> Option<&BusPricing> {
        self.buses.iter().find(|b| b.chip == chip)
    }

    /// Dynamic energy of one billed cycle of `column`, in joules (all
    /// tiles of the column clock together).
    fn cycle_energy_j(&self, column: &ColumnPricing) -> f64 {
        self.tile_power.energy_per_cycle_nj(column.voltage) * 1e-9 * f64::from(column.tiles)
    }

    /// Leakage power of `column` in watts.
    fn leakage_w(&self, column: &ColumnPricing) -> f64 {
        self.leakage.power_mw(column.tiles, column.voltage) * 1e-3
    }
}

/// Energy attributed to one column over a run.
#[derive(Debug, Clone)]
pub struct ColumnEnergy {
    /// Board chip hosting the column.
    pub chip: u32,
    /// Column index within the chip.
    pub column: u32,
    /// Column label from the pricing spec.
    pub label: String,
    /// Billed column cycles (divider ticks, ZORM stall slots included).
    pub cycles: u64,
    /// ZORM stall cycles among them (billed but doing no useful work).
    pub zorm_stall_cycles: u64,
    /// Dynamic switching energy, joules.
    pub dynamic_j: f64,
    /// Supply-time leakage energy, joules.
    pub leakage_j: f64,
}

impl ColumnEnergy {
    /// Dynamic + leakage energy of the column, joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.leakage_j
    }
}

/// Energy attributed to one chip's horizontal bus over a run.
#[derive(Debug, Clone)]
pub struct BusEnergy {
    /// Board chip the bus belongs to.
    pub chip: u32,
    /// Words observed crossing the bus.
    pub words: u64,
    /// Wire-switching energy of those words, joules.
    pub energy_j: f64,
}

/// Energy attributed to one bridge lane over a run.
#[derive(Debug, Clone)]
pub struct BridgeEnergy {
    /// Bridge lane index within the board.
    pub lane: u32,
    /// Producing chip.
    pub from_chip: u32,
    /// Consuming chip.
    pub to_chip: u32,
    /// Words observed crossing the lane.
    pub words: u64,
    /// Rated transfer energy of those words, joules.
    pub energy_j: f64,
}

/// The priced run: where every joule of a captured event stream went.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    /// Reference ticks the priced run spanned.
    pub reference_ticks: u64,
    /// Wall-clock seconds the run spanned.
    pub duration_s: f64,
    /// Per-column ledger rows, in pricing-spec order.
    pub columns: Vec<ColumnEnergy>,
    /// Per-bus ledger rows, in pricing-spec order.
    pub buses: Vec<BusEnergy>,
    /// Per-bridge-lane ledger rows, in first-seen order.
    pub bridges: Vec<BridgeEnergy>,
    /// Simulation events that named a chip/column the spec does not
    /// price — nonzero means the spec and the stream disagree about the
    /// hardware and the ledger under-counts.
    pub unpriced_events: u64,
}

impl EnergyLedger {
    /// Total dynamic (switching) energy of all columns, joules.
    pub fn dynamic_j(&self) -> f64 {
        self.columns.iter().map(|c| c.dynamic_j).sum()
    }

    /// Total leakage energy of all columns, joules.
    pub fn leakage_j(&self) -> f64 {
        self.columns.iter().map(|c| c.leakage_j).sum()
    }

    /// Total interconnect energy (horizontal buses + bridge lanes),
    /// joules.
    pub fn interconnect_j(&self) -> f64 {
        self.buses.iter().map(|b| b.energy_j).sum::<f64>()
            + self.bridges.iter().map(|b| b.energy_j).sum::<f64>()
    }

    /// Everything: compute + leakage + interconnect, joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j() + self.leakage_j() + self.interconnect_j()
    }

    /// Average power over the run, milliwatts (0 for a zero-length run).
    pub fn average_power_mw(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.total_j() / self.duration_s * 1e3
    }

    /// Render the ledger as an aligned plain-text table titled `title`.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>12} {:>12} {:>8}",
            "track", "cycles/words", "dynamic µJ", "leakage µJ", "share"
        );
        let total = self.total_j().max(f64::MIN_POSITIVE);
        for c in &self.columns {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>12.3} {:>12.3} {:>7.1}%",
                format!("chip{}/col{} {}", c.chip, c.column, c.label),
                c.cycles,
                c.dynamic_j * 1e6,
                c.leakage_j * 1e6,
                c.total_j() / total * 100.0,
            );
        }
        for b in &self.buses {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>12.3} {:>12} {:>7.1}%",
                format!("chip{}/horizontal bus", b.chip),
                b.words,
                b.energy_j * 1e6,
                "-",
                b.energy_j / total * 100.0,
            );
        }
        for b in &self.bridges {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>12.3} {:>12} {:>7.1}%",
                format!("bridge lane {} {}→{}", b.lane, b.from_chip, b.to_chip),
                b.words,
                b.energy_j * 1e6,
                "-",
                b.energy_j / total * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "  total {:.3} µJ over {:.3} µs = {:.3} mW average",
            self.total_j() * 1e6,
            self.duration_s * 1e6,
            self.average_power_mw(),
        );
        if self.unpriced_events > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} events named unpriced hardware",
                self.unpriced_events
            );
        }
        out
    }
}

/// Price a captured event stream: fold every simulation event into
/// per-column / per-bus / per-bridge energy, plus supply-time leakage
/// over the run's `reference_ticks`.
///
/// Works on raw streams from either execution tier — the interpreter's
/// one-event-per-occurrence form and the fast tier's batched form sum
/// to identical totals, so no [`crate::normalize`] pass is needed.
/// Compile-side events (route slots, phases, counters) carry no energy
/// and are ignored.
pub fn attribute(events: &[TraceEvent], spec: &PriceSpec, reference_ticks: u64) -> EnergyLedger {
    let duration_s = spec.duration_s(reference_ticks);
    let mut columns: Vec<ColumnEnergy> = spec
        .columns
        .iter()
        .map(|c| ColumnEnergy {
            chip: c.chip,
            column: c.column,
            label: c.label.clone(),
            cycles: 0,
            zorm_stall_cycles: 0,
            dynamic_j: 0.0,
            leakage_j: spec.leakage_w(c) * duration_s,
        })
        .collect();
    let mut buses: Vec<BusEnergy> = spec
        .buses
        .iter()
        .map(|b| BusEnergy {
            chip: b.chip,
            words: 0,
            energy_j: 0.0,
        })
        .collect();
    let mut bridges: Vec<BridgeEnergy> = Vec::new();
    let mut unpriced = 0u64;

    for event in events {
        match event {
            TraceEvent::DividerTick {
                chip,
                column,
                count,
                ..
            } => match spec.column(*chip, *column) {
                Some(pricing) => {
                    let row = columns
                        .iter_mut()
                        .find(|c| c.chip == *chip && c.column == *column)
                        .expect("ledger rows mirror the spec");
                    row.cycles += count;
                    row.dynamic_j += spec.cycle_energy_j(pricing) * *count as f64;
                }
                None => unpriced += 1,
            },
            TraceEvent::ZormStall {
                chip,
                column,
                cycles,
                ..
            } => match columns
                .iter_mut()
                .find(|c| c.chip == *chip && c.column == *column)
            {
                // Stall slots are billed cycles and already priced via
                // their DividerTick; record them for the stall share only.
                Some(row) => row.zorm_stall_cycles += cycles,
                None => unpriced += 1,
            },
            TraceEvent::BusSlot { chip, words: w, .. } => match spec.bus(*chip) {
                Some(pricing) => {
                    let row = buses
                        .iter_mut()
                        .find(|b| b.chip == *chip)
                        .expect("ledger rows mirror the spec");
                    row.words += w;
                    row.energy_j += spec
                        .interconnect
                        .word_energy_j(&pricing.geometry, pricing.voltage)
                        * *w as f64;
                }
                None => unpriced += 1,
            },
            TraceEvent::BridgeTransfer {
                lane,
                from_chip,
                to_chip,
                words: w,
                ..
            } => {
                let energy = spec
                    .interconnect
                    .bridge_word_energy_j(spec.bridge_energy_pj_per_word)
                    * *w as f64;
                match bridges.iter_mut().find(|b| b.lane == *lane) {
                    Some(row) => {
                        row.words += w;
                        row.energy_j += energy;
                    }
                    None => bridges.push(BridgeEnergy {
                        lane: *lane,
                        from_chip: *from_chip,
                        to_chip: *to_chip,
                        words: *w,
                        energy_j: energy,
                    }),
                }
            }
            _ => {}
        }
    }
    bridges.sort_by_key(|b| b.lane);
    EnergyLedger {
        reference_ticks,
        duration_s,
        columns,
        buses,
        bridges,
        unpriced_events: unpriced,
    }
}

/// One sample of the time-bucketed power timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// First reference tick the bucket covers.
    pub start_tick: u64,
    /// Dynamic compute power over the bucket, milliwatts.
    pub compute_mw: f64,
    /// Interconnect (bus + bridge) power over the bucket, milliwatts.
    pub interconnect_mw: f64,
    /// Leakage power over the bucket, milliwatts (constant).
    pub leakage_mw: f64,
}

impl PowerSample {
    /// Total power of the sample, milliwatts.
    pub fn total_mw(&self) -> f64 {
        self.compute_mw + self.interconnect_mw + self.leakage_mw
    }
}

/// A run's power over reference time, bucketed into equal tick windows.
///
/// Built from per-event ticks, so it is most informative on interpreted
/// captures; the fast tier batches a whole run into a handful of events,
/// which all land in the bucket of their (final) tick.
#[derive(Debug, Clone)]
pub struct PowerTimeline {
    /// Reference ticks per bucket.
    pub bucket_ticks: u64,
    /// Wall-clock seconds per bucket.
    pub bucket_seconds: f64,
    /// Samples, earliest bucket first.
    pub samples: Vec<PowerSample>,
}

/// Bucket a captured event stream's energy over reference time into
/// `buckets` equal windows and convert each to average power.
pub fn power_timeline(
    events: &[TraceEvent],
    spec: &PriceSpec,
    reference_ticks: u64,
    buckets: usize,
) -> PowerTimeline {
    let buckets = buckets.max(1);
    let bucket_ticks = reference_ticks.div_ceil(buckets as u64).max(1);
    let bucket_seconds = spec.duration_s(bucket_ticks);
    let leakage_mw: f64 = spec.columns.iter().map(|c| spec.leakage_w(c) * 1e3).sum();
    let mut compute_j = vec![0.0f64; buckets];
    let mut interconnect_j = vec![0.0f64; buckets];
    let bucket_of = |tick: u64| ((tick / bucket_ticks) as usize).min(buckets - 1);

    for event in events {
        match event {
            TraceEvent::DividerTick {
                chip,
                column,
                tick,
                count,
            } => {
                if let Some(pricing) = spec.column(*chip, *column) {
                    compute_j[bucket_of(*tick)] += spec.cycle_energy_j(pricing) * *count as f64;
                }
            }
            TraceEvent::BusSlot {
                chip, tick, words, ..
            } => {
                if let Some(pricing) = spec.bus(*chip) {
                    interconnect_j[bucket_of(*tick)] += spec
                        .interconnect
                        .word_energy_j(&pricing.geometry, pricing.voltage)
                        * *words as f64;
                }
            }
            TraceEvent::BridgeTransfer { tick, words, .. } => {
                interconnect_j[bucket_of(*tick)] += spec
                    .interconnect
                    .bridge_word_energy_j(spec.bridge_energy_pj_per_word)
                    * *words as f64;
            }
            _ => {}
        }
    }

    let to_mw = |j: f64| {
        if bucket_seconds > 0.0 {
            j / bucket_seconds * 1e3
        } else {
            0.0
        }
    };
    PowerTimeline {
        bucket_ticks,
        bucket_seconds,
        samples: (0..buckets)
            .map(|i| PowerSample {
                start_tick: i as u64 * bucket_ticks,
                compute_mw: to_mw(compute_j[i]),
                interconnect_mw: to_mw(interconnect_j[i]),
                leakage_mw,
            })
            .collect(),
    }
}

/// One track of the bottleneck report: how much of its ceiling a
/// resource consumed over the run.
#[derive(Debug, Clone)]
pub struct TrackLoad {
    /// Track label (column, bus, bridge).
    pub label: String,
    /// Units consumed (billed cycles, words).
    pub used: u64,
    /// Ceiling in the same units over the run — a column's
    /// divider-implied cycle budget, a bus/bridge frame's scheduled
    /// slots.
    pub capacity: u64,
    /// ZORM stall cycles among `used` (columns only) — billed slots that
    /// did no useful work, i.e. the rate-matching tax.
    pub stall_cycles: u64,
}

impl TrackLoad {
    /// `used / capacity` in `[0, 1]` (0 for an idle/absent ceiling).
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            (self.used as f64 / self.capacity as f64).min(1.0)
        }
    }
}

/// The bottleneck/slack verdict of one run.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Reference ticks per graph iteration.
    pub hyperperiod: u64,
    /// Per-track loads: columns first, then buses, then bridge lanes.
    pub tracks: Vec<TrackLoad>,
    /// Label of the binding resource (highest utilization), if any track
    /// saw load at all.
    pub binding: Option<String>,
    /// Utilization of the binding resource in `[0, 1]`.
    pub binding_utilization: f64,
    /// Reference ticks of slack per hyperperiod on the binding resource:
    /// how much the deadline could tighten before it saturates.
    pub headroom_ticks_per_hyperperiod: u64,
}

impl BottleneckReport {
    /// Render the report as plain text titled `title`.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let width = self
            .tracks
            .iter()
            .map(|t| t.label.chars().count())
            .max()
            .unwrap_or(0)
            .max(28);
        for t in &self.tracks {
            let _ = writeln!(
                out,
                "  {:<width$} {:>12}/{:<12} {:>6.1}%{}",
                t.label,
                t.used,
                t.capacity,
                t.utilization() * 100.0,
                if t.stall_cycles > 0 {
                    format!("  ({} ZORM stall cycles)", t.stall_cycles)
                } else {
                    String::new()
                },
            );
        }
        match &self.binding {
            Some(binding) => {
                let _ = writeln!(
                    out,
                    "  binding resource: {} at {:.1}% — {} of {} ticks headroom per hyperperiod",
                    binding,
                    self.binding_utilization * 100.0,
                    self.headroom_ticks_per_hyperperiod,
                    self.hyperperiod,
                );
            }
            None => {
                let _ = writeln!(out, "  no load observed");
            }
        }
        out
    }
}

/// Analyse a captured event stream against each resource's ceiling: per
/// column, billed cycles against the divider-implied budget
/// (`reference_ticks / divider`); per bus/bridge, observed words against
/// the scheduled TDM slots.  The binding resource is the track with the
/// highest utilization, and the headroom is how many reference ticks of
/// each hyperperiod it leaves unused.
pub fn bottlenecks(
    events: &[TraceEvent],
    spec: &PriceSpec,
    reference_ticks: u64,
) -> BottleneckReport {
    let iterations = reference_ticks.checked_div(spec.hyperperiod).unwrap_or(0);
    let mut tracks: Vec<TrackLoad> = spec
        .columns
        .iter()
        .map(|c| TrackLoad {
            label: format!(
                "chip{}/col{} {} (\u{f7}{})",
                c.chip, c.column, c.label, c.clock_divider
            ),
            used: 0,
            capacity: reference_ticks / u64::from(c.clock_divider.max(1)),
            stall_cycles: 0,
        })
        .collect();
    let columns = tracks.len();
    tracks.extend(spec.buses.iter().map(|b| TrackLoad {
        label: format!("chip{}/horizontal bus", b.chip),
        used: 0,
        capacity: b.scheduled_slots_per_iteration * iterations,
        stall_cycles: 0,
    }));
    let mut bridge = TrackLoad {
        label: "bridge lanes".to_owned(),
        used: 0,
        capacity: spec.bridge_scheduled_slots_per_iteration * iterations,
        stall_cycles: 0,
    };

    for event in events {
        match event {
            TraceEvent::DividerTick {
                chip,
                column,
                count,
                ..
            } => {
                if let Some(i) = spec
                    .columns
                    .iter()
                    .position(|c| c.chip == *chip && c.column == *column)
                {
                    tracks[i].used += count;
                }
            }
            TraceEvent::ZormStall {
                chip,
                column,
                cycles,
                ..
            } => {
                if let Some(i) = spec
                    .columns
                    .iter()
                    .position(|c| c.chip == *chip && c.column == *column)
                {
                    tracks[i].stall_cycles += cycles;
                }
            }
            TraceEvent::BusSlot { chip, words, .. } => {
                if let Some(i) = spec.buses.iter().position(|b| b.chip == *chip) {
                    tracks[columns + i].used += words;
                }
            }
            TraceEvent::BridgeTransfer { words, .. } => bridge.used += words,
            _ => {}
        }
    }
    if bridge.capacity > 0 || bridge.used > 0 {
        tracks.push(bridge);
    }

    let binding = tracks.iter().filter(|t| t.used > 0).max_by(|a, b| {
        // Ties (e.g. several exactly rate-matched columns at 100 %)
        // break toward the track consuming more absolute cycles —
        // the fastest-clocked, least-slowable resource.
        a.utilization()
            .total_cmp(&b.utilization())
            .then(a.used.cmp(&b.used))
    });
    let (binding, utilization) = match binding {
        Some(t) => (Some(t.label.clone()), t.utilization()),
        None => (None, 0.0),
    };
    BottleneckReport {
        hyperperiod: spec.hyperperiod,
        headroom_ticks_per_hyperperiod: ((1.0 - utilization) * spec.hyperperiod as f64).round()
            as u64,
        tracks,
        binding,
        binding_utilization: utilization,
    }
}

/// One aggregated class of rejection: every structured reject sharing a
/// machine-readable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectionClass {
    /// Stable machine-readable code (`"period_overflow"`,
    /// `"budget_too_small"`, `"comm_prune"`, `"fault"`, …).
    pub code: String,
    /// Occurrences observed.
    pub count: u64,
    /// The first rendered detail seen for the class (the human-readable
    /// why).
    pub example: String,
}

#[derive(Debug, Default)]
struct RejectionState {
    classes: BTreeMap<String, (u64, String)>,
}

impl RejectionState {
    fn add(&mut self, code: &str, count: u64, detail: impl FnOnce() -> String) {
        let entry = self
            .classes
            .entry(code.to_owned())
            .or_insert_with(|| (0, detail()));
        entry.0 += count;
    }
}

/// A [`TraceSink`] that aggregates *why mappings died*: structured
/// router/explorer rejections ([`TraceEvent::RouteReject`]), the
/// explorer's comm-prune counters, and fault events, folded per class
/// and ranked by count.  Install it on an `ExplorerConfig` and
/// `MapperOptions` trace to get a machine-checkable explanation of an
/// infeasible `(graph, rate, budget)` triple.
#[derive(Debug, Default)]
pub struct RejectionLedger {
    state: Mutex<RejectionState>,
}

impl RejectionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregated classes, most frequent first (ties broken by code).
    pub fn classes(&self) -> Vec<RejectionClass> {
        let state = self.state.lock().expect("rejection ledger poisoned");
        let mut classes: Vec<RejectionClass> = state
            .classes
            .iter()
            .map(|(code, (count, example))| RejectionClass {
                code: code.clone(),
                count: *count,
                example: example.clone(),
            })
            .collect();
        classes.sort_by(|a, b| b.count.cmp(&a.count).then(a.code.cmp(&b.code)));
        classes
    }

    /// The highest-ranked class, if anything was rejected at all.
    pub fn dominant(&self) -> Option<RejectionClass> {
        self.classes().into_iter().next()
    }

    /// Total rejections across all classes.
    pub fn total(&self) -> u64 {
        self.classes().iter().map(|c| c.count).sum()
    }

    /// True when nothing has been rejected.
    pub fn is_empty(&self) -> bool {
        self.state
            .lock()
            .expect("rejection ledger poisoned")
            .classes
            .is_empty()
    }

    /// Render the ranked explanation titled `title`.
    pub fn explain(&self, title: &str) -> String {
        let classes = self.classes();
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        if classes.is_empty() {
            let _ = writeln!(out, "  no rejections recorded");
            return out;
        }
        for (rank, class) in classes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}. {} \u{d7}{} — {}",
                rank + 1,
                class.code,
                class.count,
                class.example,
            );
        }
        out
    }
}

impl TraceSink for RejectionLedger {
    fn record(&self, event: &TraceEvent) {
        let mut state = self.state.lock().expect("rejection ledger poisoned");
        match event {
            TraceEvent::RouteReject { code, detail } => {
                state.add(code, 1, || detail.clone());
            }
            TraceEvent::Counter { name, delta }
                if *delta > 0 && name.ends_with("groupings_comm_pruned") =>
            {
                state.add("comm_prune", *delta, || {
                    "cross-column traffic cannot fit the TDM frame".to_owned()
                });
            }
            TraceEvent::FaultColumnKilled { chip, column, tick } => {
                state.add("fault", 1, || {
                    format!("chip {chip} column {column} killed at tick {tick}")
                });
            }
            TraceEvent::FaultLaneKilled { lane, tick, .. } => {
                state.add("fault", 1, || format!("lane {lane} killed at tick {tick}"));
            }
            TraceEvent::FaultStalled { tick, window } => {
                state.add("fault", 1, || {
                    format!("stalled at tick {tick} (window {window})")
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchro_power::Technology;

    fn spec() -> PriceSpec {
        let tech = Technology::isca2004();
        PriceSpec {
            iteration_rate_hz: 1e6,
            hyperperiod: 100,
            tile_power: TilePowerModel::new(&tech),
            leakage: LeakageModel::new(&tech),
            interconnect: InterconnectModel::new(&tech),
            columns: vec![
                ColumnPricing {
                    chip: 0,
                    column: 0,
                    label: "a".to_owned(),
                    tiles: 4,
                    voltage: 1.0,
                    clock_divider: 1,
                },
                ColumnPricing {
                    chip: 0,
                    column: 1,
                    label: "b".to_owned(),
                    tiles: 2,
                    voltage: 0.8,
                    clock_divider: 2,
                },
            ],
            buses: vec![BusPricing {
                chip: 0,
                geometry: BusGeometry::horizontal(&tech),
                voltage: 1.0,
                scheduled_slots_per_iteration: 10,
            }],
            bridge_energy_pj_per_word: 2.0,
            bridge_scheduled_slots_per_iteration: 0,
        }
    }

    fn tick(column: u32, tick: u64, count: u64) -> TraceEvent {
        TraceEvent::DividerTick {
            chip: 0,
            column,
            tick,
            count,
        }
    }

    #[test]
    fn attribution_matches_hand_arithmetic() {
        let spec = spec();
        let events = vec![
            tick(0, 0, 50),
            tick(1, 1, 25),
            TraceEvent::ZormStall {
                chip: 0,
                column: 1,
                tick: 3,
                cycles: 5,
            },
            TraceEvent::BusSlot {
                chip: 0,
                tick: 10,
                from: 0,
                to: vec![1],
                words: 8,
                count: 8,
            },
            TraceEvent::BridgeTransfer {
                lane: 0,
                from_chip: 0,
                to_chip: 1,
                tick: 20,
                words: 4,
                count: 2,
            },
        ];
        let ledger = attribute(&events, &spec, 100);
        // 100 ticks of a 100-tick hyperperiod at 1 MHz = 1 µs.
        assert!((ledger.duration_s - 1e-6).abs() < 1e-18);
        let expected_col0 = spec.tile_power.energy_per_cycle_nj(1.0) * 1e-9 * 4.0 * 50.0;
        assert!((ledger.columns[0].dynamic_j - expected_col0).abs() < 1e-18);
        assert_eq!(ledger.columns[1].cycles, 25);
        assert_eq!(ledger.columns[1].zorm_stall_cycles, 5);
        let word = spec
            .interconnect
            .word_energy_j(&spec.buses[0].geometry, 1.0);
        assert!((ledger.buses[0].energy_j - word * 8.0).abs() < 1e-18);
        assert!((ledger.bridges[0].energy_j - 2.0e-12 * 4.0).abs() < 1e-24);
        assert_eq!(ledger.unpriced_events, 0);
        assert!(ledger.total_j() > 0.0);
        assert!(ledger.render("test").contains("horizontal bus"));
    }

    #[test]
    fn batched_and_per_event_streams_price_identically() {
        let spec = spec();
        let batched = vec![tick(0, 9, 10)];
        let unbatched: Vec<TraceEvent> = (0..10).map(|i| tick(0, i, 1)).collect();
        let a = attribute(&batched, &spec, 10);
        let b = attribute(&unbatched, &spec, 10);
        assert_eq!(a.columns[0].cycles, b.columns[0].cycles);
        assert!((a.total_j() - b.total_j()).abs() < 1e-18);
    }

    #[test]
    fn unpriced_hardware_is_counted_not_dropped_silently() {
        let spec = spec();
        let ledger = attribute(&[tick(7, 0, 3)], &spec, 10);
        assert_eq!(ledger.unpriced_events, 1);
    }

    #[test]
    fn timeline_buckets_conserve_energy() {
        let spec = spec();
        let events = vec![tick(0, 10, 20), tick(0, 90, 20)];
        let ledger = attribute(&events, &spec, 100);
        let timeline = power_timeline(&events, &spec, 100, 4);
        assert_eq!(timeline.samples.len(), 4);
        let bucketed_j: f64 = timeline
            .samples
            .iter()
            .map(|s| s.total_mw() * 1e-3 * timeline.bucket_seconds)
            .sum();
        assert!(
            (bucketed_j - ledger.total_j()).abs() <= 1e-9 * ledger.total_j(),
            "{bucketed_j} vs {}",
            ledger.total_j()
        );
        // First and last buckets carry the compute; middle two only leak.
        assert!(timeline.samples[0].compute_mw > 0.0);
        assert_eq!(timeline.samples[1].compute_mw, 0.0);
        assert!(timeline.samples[3].compute_mw > 0.0);
    }

    #[test]
    fn bottleneck_finds_the_binding_resource_and_headroom() {
        let spec = spec();
        // Column 0 (divider 1) runs 80 of its 100-cycle budget; column 1
        // (divider 2) runs 10 of 50; the bus moves 2 of 10 slots.
        let events = vec![
            tick(0, 0, 80),
            tick(1, 1, 10),
            TraceEvent::BusSlot {
                chip: 0,
                tick: 5,
                from: 0,
                to: vec![1],
                words: 2,
                count: 2,
            },
        ];
        let report = bottlenecks(&events, &spec, 100);
        assert_eq!(report.binding.as_deref(), Some("chip0/col0 a (\u{f7}1)"));
        assert!((report.binding_utilization - 0.8).abs() < 1e-12);
        assert_eq!(report.headroom_ticks_per_hyperperiod, 20);
        assert!(report.render("t").contains("binding resource"));
    }

    #[test]
    fn rejection_ledger_ranks_classes_and_explains() {
        let ledger = RejectionLedger::new();
        for _ in 0..3 {
            ledger.record(&TraceEvent::RouteReject {
                code: "period_overflow",
                detail: "46 words exceed 25 slots".to_owned(),
            });
        }
        ledger.record(&TraceEvent::RouteReject {
            code: "budget_too_small",
            detail: "tile budget 4 cannot host 24 column groups".to_owned(),
        });
        ledger.record(&TraceEvent::Counter {
            name: "explore.groupings_comm_pruned",
            delta: 2,
        });
        ledger.record(&TraceEvent::Counter {
            name: "explore.states_pruned",
            delta: 99,
        });
        let classes = ledger.classes();
        assert_eq!(classes[0].code, "period_overflow");
        assert_eq!(classes[0].count, 3);
        assert_eq!(
            ledger.dominant().expect("non-empty").code,
            "period_overflow"
        );
        assert_eq!(ledger.total(), 6);
        let text = ledger.explain("why deep_pipeline fails on one chip");
        assert!(text.contains("1. period_overflow \u{d7}3"));
        assert!(text.contains("comm_prune"));
        assert!(!text.contains("states_pruned"));
    }

    #[test]
    fn empty_ledger_explains_nothing_gracefully() {
        let ledger = RejectionLedger::new();
        assert!(ledger.is_empty());
        assert!(ledger.dominant().is_none());
        assert!(ledger.explain("t").contains("no rejections"));
    }
}
