//! Structured tracing and metrics for the Synchroscalar stack.
//!
//! The paper's whole argument rests on being able to *see* where cycles,
//! bus slots and milliwatts go.  This crate is the observability substrate
//! every layer reports into:
//!
//! * a typed event vocabulary ([`TraceEvent`]) covering column firings,
//!   divider ticks, ZORM stalls, horizontal-bus slot occupancy, bridge
//!   transfers, rate-matcher re-locks and the mapper/router/explorer
//!   compile phases,
//! * a sink abstraction ([`TraceSink`]) with three implementations —
//!   [`NullSink`] (drop everything), [`RingBufferSink`] (keep the last N
//!   events for timeline export) and [`MetricsSink`] (a counting metrics
//!   registry, lock-free on the simulator hot path),
//! * a zero-cost-when-disabled handle ([`Trace`]): an instrumented hot
//!   loop pays exactly one branch per event site when no sink is
//!   installed, and events are only *constructed* when a sink will
//!   receive them,
//! * exporters: Chrome `trace_event` JSON ([`chrome::chrome_trace`],
//!   loadable in Perfetto / `chrome://tracing`) and a plain-text
//!   utilization histogram ([`report::histogram`]).
//!
//! The two execution tiers of `synchro-sim` emit *equivalent* streams at
//! different granularity — the interpreter one event per occurrence, the
//! fast tier one batched event per column or slot with a `count` — so
//! [`normalize`] folds both to one canonical form for bit-exact
//! comparison (the `sim_equivalence` differential suite pins this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod analyze;
pub mod chrome;
pub mod json;
pub mod report;

/// One structured observation from somewhere in the stack.
///
/// Simulation events carry a `count` (or batch-summed payload) so the
/// fast execution tier can emit one event per column or slot where the
/// interpreter emits one per occurrence; [`normalize`] makes the two
/// granularities comparable.  `tick` is always a board/chip reference
/// tick: the shared timebase every timeline track is plotted against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `count` completed firings on a column (derived from the static
    /// schedule's repetition vector by the mapper layer).
    ColumnFiring {
        /// Board chip index.
        chip: u32,
        /// Column index within the chip.
        column: u32,
        /// Reference tick of (the last of) the completions.
        tick: u64,
        /// Firings completed.
        count: u64,
    },
    /// `count` divider-selected column steps (billed column cycles).
    DividerTick {
        /// Board chip index.
        chip: u32,
        /// Column index within the chip.
        column: u32,
        /// Reference tick of (the last of) the steps.
        tick: u64,
        /// Billed column cycles.
        count: u64,
    },
    /// `cycles` Zero-Overhead Rate Matching stall cycles.
    ZormStall {
        /// Board chip index.
        chip: u32,
        /// Column index within the chip.
        column: u32,
        /// Reference tick of (the last of) the stalls.
        tick: u64,
        /// Stall cycles.
        cycles: u64,
    },
    /// A rate matcher re-armed its stall budget at a period boundary
    /// (`count` re-locks).
    RateMatcherRelock {
        /// Board chip index.
        chip: u32,
        /// Column index within the chip.
        column: u32,
        /// Reference tick of (the last of) the re-locks.
        tick: u64,
        /// Period boundaries crossed.
        count: u64,
    },
    /// `count` occurrences of one horizontal-bus TDM slot carrying
    /// `words` words in total from column `from` to columns `to`.
    BusSlot {
        /// Board chip index.
        chip: u32,
        /// Reference tick of (the last of) the occurrences.
        tick: u64,
        /// Producing column.
        from: u32,
        /// Consuming columns.
        to: Vec<u32>,
        /// Words transferred, summed over the batch.
        words: u64,
        /// Slot occurrences batched into this event.
        count: u64,
    },
    /// `count` bridge-lane transfers carrying `words` words in total
    /// between two chips of a board.
    BridgeTransfer {
        /// Bridge lane index.
        lane: u32,
        /// Producing chip.
        from_chip: u32,
        /// Consuming chip.
        to_chip: u32,
        /// Reference tick of (the last of) the transfers.
        tick: u64,
        /// Words transferred, summed over the batch.
        words: u64,
        /// Transfers batched into this event.
        count: u64,
    },
    /// A named compile/search phase opened (mapper, router, explorer).
    PhaseBegin {
        /// Phase name, e.g. `"mapper.compile_board"`.
        phase: &'static str,
    },
    /// A named compile/search phase closed.
    PhaseEnd {
        /// Phase name matching the corresponding [`TraceEvent::PhaseBegin`].
        phase: &'static str,
    },
    /// The router placed one TDM slot: `words` words of SDF edge `edge`
    /// on `(split, cycle)` from column `from` to column `to`.
    RouteSlot {
        /// Bus split carrying the slot.
        split: u32,
        /// First bus cycle of the slot within the frame.
        cycle: u64,
        /// Producing column.
        from: u32,
        /// Consuming column.
        to: u32,
        /// Words placed.
        words: u64,
        /// SDF edge index the words belong to.
        edge: u64,
    },
    /// The router rejected a flow set, with the structured error code and
    /// rendered context of the `RouteError`.
    RouteReject {
        /// Stable machine-readable variant code, e.g. `"period_overflow"`.
        code: &'static str,
        /// Human-readable context (the error's `Display` output).
        detail: String,
    },
    /// A named counter increment — the generic metrics-registry event
    /// (the explorer reports its prune/cache counters through this).
    Counter {
        /// Registry key, e.g. `"explore.states_pruned"`.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
    /// A fault plan killed one SIMD column mid-run: from `tick` onward
    /// the column executes nothing and bills no cycles.
    FaultColumnKilled {
        /// Chip holding the column.
        chip: u32,
        /// Column index within the chip.
        column: u32,
        /// Reference tick the fault fired at.
        tick: u64,
    },
    /// A fault plan killed one bridge lane mid-run: slots scheduled on
    /// the lane at or after `tick` are dropped undelivered.
    FaultLaneKilled {
        /// Bridge lane index within the board.
        lane: u32,
        /// Producing chip of the lane.
        from_chip: u32,
        /// Consuming chip of the lane.
        to_chip: u32,
        /// Reference tick the fault fired at.
        tick: u64,
    },
    /// The starvation watchdog tripped: no column, bus, or bridge
    /// progress across a full observation `window`, so the driver gave
    /// up instead of spinning.
    FaultStalled {
        /// Reference tick the run was abandoned at.
        tick: u64,
        /// Watchdog window (reference ticks) that saw zero progress.
        window: u64,
    },
}

/// Where events go.  Implementations must tolerate concurrent `record`
/// calls ([`MetricsSink`] is lock-free; [`RingBufferSink`] takes one
/// uncontended lock per event).
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn record(&self, event: &TraceEvent);

    /// Will this sink do anything with events?  [`Trace::to`] drops
    /// disabled sinks entirely, so instrumented code pays nothing — not
    /// even event construction — for a sink that reports `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// A sink that drops everything.  Installing it is indistinguishable
/// (including in cost) from installing no sink at all: [`Trace::to`]
/// collapses it to the disabled handle.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

struct RingState {
    events: Vec<TraceEvent>,
    /// Index of the logical first event within `events` once the buffer
    /// has wrapped.
    head: usize,
    dropped: u64,
}

/// A consistent occupancy snapshot of a [`RingBufferSink`], taken under
/// one lock so `len` and `dropped` agree with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Events the buffer retains before evicting.
    pub capacity: usize,
    /// Events currently held.
    pub len: usize,
    /// Events evicted because the buffer was full.
    pub dropped: u64,
}

impl RingStats {
    /// True when the captured timeline is incomplete (events were
    /// evicted).
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

/// A bounded buffer keeping the most recent `capacity` events (oldest
/// dropped first), for timeline export and differential testing.
pub struct RingBufferSink {
    capacity: usize,
    state: Mutex<RingState>,
}

impl fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().expect("ring buffer poisoned");
        f.debug_struct("RingBufferSink")
            .field("capacity", &self.capacity)
            .field("len", &state.events.len())
            .field("dropped", &state.dropped)
            .finish()
    }
}

impl RingBufferSink {
    /// A sink keeping the latest `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                events: Vec::new(),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Events recorded so far, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let state = self.state.lock().expect("ring buffer poisoned");
        let mut out = Vec::with_capacity(state.events.len());
        out.extend_from_slice(&state.events[state.head..]);
        out.extend_from_slice(&state.events[..state.head]);
        out
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("ring buffer poisoned").dropped
    }

    /// The buffer's capacity (events retained before eviction starts).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One consistent snapshot of the buffer's occupancy — a
    /// [`TraceEvent`]-free view for consumers that only need to know
    /// whether a timeline is complete, without cloning the events.
    pub fn stats(&self) -> RingStats {
        let state = self.state.lock().expect("ring buffer poisoned");
        RingStats {
            capacity: self.capacity,
            len: state.events.len(),
            dropped: state.dropped,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("ring buffer poisoned")
            .events
            .len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, event: &TraceEvent) {
        let mut state = self.state.lock().expect("ring buffer poisoned");
        if state.events.len() < self.capacity {
            state.events.push(event.clone());
        } else {
            let head = state.head;
            state.events[head] = event.clone();
            state.head = (head + 1) % self.capacity;
            state.dropped += 1;
        }
    }
}

/// A counting metrics registry: every event folds into a monotonic
/// counter.  The simulation-event counters are plain atomics — recording
/// from the simulator hot path is lock-free — while named
/// [`TraceEvent::Counter`] events (batched by their emitters) share one
/// mutex-guarded map.
#[derive(Debug, Default)]
pub struct MetricsSink {
    firings: AtomicU64,
    divider_ticks: AtomicU64,
    zorm_stall_cycles: AtomicU64,
    relocks: AtomicU64,
    bus_slots: AtomicU64,
    bus_words: AtomicU64,
    bridge_transfers: AtomicU64,
    bridge_words: AtomicU64,
    phases: AtomicU64,
    route_slots: AtomicU64,
    route_words: AtomicU64,
    route_rejects: AtomicU64,
    fault_columns: AtomicU64,
    fault_lanes: AtomicU64,
    fault_stalls: AtomicU64,
    named: Mutex<BTreeMap<&'static str, u64>>,
}

impl MetricsSink {
    /// A fresh, all-zero registry.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// The unified registry view: every non-zero counter under its
    /// canonical `sim.` / `route.` / named key, sorted by key.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut put = |key: &str, value: u64| {
            if value > 0 {
                out.insert(key.to_owned(), value);
            }
        };
        put("sim.firings", self.firings.load(Ordering::Relaxed));
        put(
            "sim.divider_ticks",
            self.divider_ticks.load(Ordering::Relaxed),
        );
        put(
            "sim.zorm_stall_cycles",
            self.zorm_stall_cycles.load(Ordering::Relaxed),
        );
        put(
            "sim.rate_matcher_relocks",
            self.relocks.load(Ordering::Relaxed),
        );
        put("sim.bus_slots", self.bus_slots.load(Ordering::Relaxed));
        put("sim.bus_words", self.bus_words.load(Ordering::Relaxed));
        put(
            "sim.bridge_transfers",
            self.bridge_transfers.load(Ordering::Relaxed),
        );
        put(
            "sim.bridge_words",
            self.bridge_words.load(Ordering::Relaxed),
        );
        put("trace.phases", self.phases.load(Ordering::Relaxed));
        put("route.slots", self.route_slots.load(Ordering::Relaxed));
        put("route.words", self.route_words.load(Ordering::Relaxed));
        put("route.rejects", self.route_rejects.load(Ordering::Relaxed));
        put(
            "sim.fault_columns",
            self.fault_columns.load(Ordering::Relaxed),
        );
        put("sim.fault_lanes", self.fault_lanes.load(Ordering::Relaxed));
        put(
            "sim.fault_stalls",
            self.fault_stalls.load(Ordering::Relaxed),
        );
        for (name, value) in self.named.lock().expect("registry poisoned").iter() {
            put(name, *value);
        }
        out
    }

    /// One counter by canonical key (0 when never bumped).
    pub fn value(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }
}

impl TraceSink for MetricsSink {
    fn record(&self, event: &TraceEvent) {
        match event {
            TraceEvent::ColumnFiring { count, .. } => {
                self.firings.fetch_add(*count, Ordering::Relaxed);
            }
            TraceEvent::DividerTick { count, .. } => {
                self.divider_ticks.fetch_add(*count, Ordering::Relaxed);
            }
            TraceEvent::ZormStall { cycles, .. } => {
                self.zorm_stall_cycles.fetch_add(*cycles, Ordering::Relaxed);
            }
            TraceEvent::RateMatcherRelock { count, .. } => {
                self.relocks.fetch_add(*count, Ordering::Relaxed);
            }
            TraceEvent::BusSlot { words, count, .. } => {
                self.bus_slots.fetch_add(*count, Ordering::Relaxed);
                self.bus_words.fetch_add(*words, Ordering::Relaxed);
            }
            TraceEvent::BridgeTransfer { words, count, .. } => {
                self.bridge_transfers.fetch_add(*count, Ordering::Relaxed);
                self.bridge_words.fetch_add(*words, Ordering::Relaxed);
            }
            TraceEvent::PhaseBegin { .. } => {
                self.phases.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::PhaseEnd { .. } => {}
            TraceEvent::RouteSlot { words, .. } => {
                self.route_slots.fetch_add(1, Ordering::Relaxed);
                self.route_words.fetch_add(*words, Ordering::Relaxed);
            }
            TraceEvent::RouteReject { .. } => {
                self.route_rejects.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::Counter { name, delta } => {
                *self
                    .named
                    .lock()
                    .expect("registry poisoned")
                    .entry(name)
                    .or_insert(0) += delta;
            }
            TraceEvent::FaultColumnKilled { .. } => {
                self.fault_columns.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::FaultLaneKilled { .. } => {
                self.fault_lanes.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::FaultStalled { .. } => {
                self.fault_stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The handle instrumented code holds.  Disabled (the default) it is one
/// `Option` branch per event site — no event is constructed, no dynamic
/// call is made — which is what keeps the simulator's per-cycle hot path
/// within its <2 % overhead budget.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.sink.is_some() {
            "Trace(on)"
        } else {
            "Trace(off)"
        })
    }
}

impl Trace {
    /// The disabled handle (what [`Trace::default`] gives).
    pub fn off() -> Self {
        Trace::default()
    }

    /// A handle feeding `sink`.  A sink reporting `enabled() == false`
    /// (e.g. [`NullSink`]) collapses to the disabled handle, so the
    /// "tracing compiled in but switched off" path is bit-for-bit the
    /// no-sink path.
    pub fn to(sink: Arc<dyn TraceSink>) -> Self {
        Trace {
            sink: sink.enabled().then_some(sink),
        }
    }

    /// Is a sink installed?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record the event built by `build` — which runs only when a sink is
    /// installed.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&build());
        }
    }

    /// Bump the named registry counter by `delta` (a no-op when disabled
    /// or when `delta` is zero).
    pub fn counter(&self, name: &'static str, delta: u64) {
        if delta > 0 {
            self.emit(|| TraceEvent::Counter { name, delta });
        }
    }

    /// Open a phase span: emits [`TraceEvent::PhaseBegin`] now and
    /// [`TraceEvent::PhaseEnd`] when the returned guard drops.
    pub fn span(&self, phase: &'static str) -> TraceSpan<'_> {
        self.emit(|| TraceEvent::PhaseBegin { phase });
        TraceSpan { trace: self, phase }
    }
}

/// RAII guard of one [`Trace::span`] phase.
pub struct TraceSpan<'a> {
    trace: &'a Trace,
    phase: &'static str,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.trace
            .emit(|| TraceEvent::PhaseEnd { phase: self.phase });
    }
}

/// The canonical aggregation key of one event, used by [`normalize`].
type NormKey = (u8, u64, u64, u64, Vec<u64>, String);

fn key_of(event: &TraceEvent) -> NormKey {
    match event {
        TraceEvent::ColumnFiring { chip, column, .. } => (
            0,
            u64::from(*chip),
            u64::from(*column),
            0,
            Vec::new(),
            String::new(),
        ),
        TraceEvent::DividerTick { chip, column, .. } => (
            1,
            u64::from(*chip),
            u64::from(*column),
            0,
            Vec::new(),
            String::new(),
        ),
        TraceEvent::ZormStall { chip, column, .. } => (
            2,
            u64::from(*chip),
            u64::from(*column),
            0,
            Vec::new(),
            String::new(),
        ),
        TraceEvent::RateMatcherRelock { chip, column, .. } => (
            3,
            u64::from(*chip),
            u64::from(*column),
            0,
            Vec::new(),
            String::new(),
        ),
        TraceEvent::BusSlot { chip, from, to, .. } => (
            4,
            u64::from(*chip),
            u64::from(*from),
            0,
            to.iter().map(|&c| u64::from(c)).collect(),
            String::new(),
        ),
        TraceEvent::BridgeTransfer {
            lane,
            from_chip,
            to_chip,
            ..
        } => (
            5,
            u64::from(*lane),
            u64::from(*from_chip),
            u64::from(*to_chip),
            Vec::new(),
            String::new(),
        ),
        TraceEvent::PhaseBegin { phase } => (6, 0, 0, 0, Vec::new(), (*phase).to_owned()),
        TraceEvent::PhaseEnd { phase } => (7, 0, 0, 0, Vec::new(), (*phase).to_owned()),
        TraceEvent::RouteSlot {
            split,
            from,
            to,
            edge,
            ..
        } => (
            8,
            u64::from(*split),
            u64::from(*from),
            u64::from(*to),
            vec![*edge],
            String::new(),
        ),
        TraceEvent::RouteReject { code, .. } => (9, 0, 0, 0, Vec::new(), (*code).to_owned()),
        TraceEvent::Counter { name, .. } => (10, 0, 0, 0, Vec::new(), (*name).to_owned()),
        TraceEvent::FaultColumnKilled { chip, column, .. } => (
            11,
            u64::from(*chip),
            u64::from(*column),
            0,
            Vec::new(),
            String::new(),
        ),
        TraceEvent::FaultLaneKilled {
            lane,
            from_chip,
            to_chip,
            ..
        } => (
            12,
            u64::from(*lane),
            u64::from(*from_chip),
            u64::from(*to_chip),
            Vec::new(),
            String::new(),
        ),
        TraceEvent::FaultStalled { .. } => (13, 0, 0, 0, Vec::new(), String::new()),
    }
}

/// The two payload accumulators of one normalized key: `(count, words)`
/// for slot-like events, `(count, 0)` otherwise.
fn payload_of(event: &TraceEvent) -> (u64, u64) {
    match event {
        TraceEvent::ColumnFiring { count, .. }
        | TraceEvent::DividerTick { count, .. }
        | TraceEvent::RateMatcherRelock { count, .. } => (*count, 0),
        TraceEvent::ZormStall { cycles, .. } => (*cycles, 0),
        TraceEvent::BusSlot { words, count, .. }
        | TraceEvent::BridgeTransfer { words, count, .. } => (*count, *words),
        TraceEvent::PhaseBegin { .. } | TraceEvent::PhaseEnd { .. } => (1, 0),
        TraceEvent::RouteSlot { words, .. } => (1, *words),
        TraceEvent::RouteReject { .. } => (1, 0),
        TraceEvent::Counter { delta, .. } => (*delta, 0),
        TraceEvent::FaultColumnKilled { .. }
        | TraceEvent::FaultLaneKilled { .. }
        | TraceEvent::FaultStalled { .. } => (1, 0),
    }
}

/// Fold an event stream to its canonical batching-independent form: one
/// event per `(kind, track)` key with ticks dropped and counts/words
/// summed, sorted by key.
///
/// Two streams describing the same execution at different batching
/// granularity — the interpreter's per-occurrence events and the fast
/// tier's per-column/per-slot batches — normalize to bit-identical
/// vectors; this is the comparison the tier-equivalence suite pins.
pub fn normalize(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut folded: BTreeMap<NormKey, ((u64, u64), TraceEvent)> = BTreeMap::new();
    for event in events {
        let (count, words) = payload_of(event);
        folded
            .entry(key_of(event))
            .and_modify(|((c, w), _)| {
                *c += count;
                *w += words;
            })
            .or_insert(((count, words), event.clone()));
    }
    folded
        .into_values()
        .map(|((count, words), representative)| match representative {
            TraceEvent::ColumnFiring { chip, column, .. } => TraceEvent::ColumnFiring {
                chip,
                column,
                tick: 0,
                count,
            },
            TraceEvent::DividerTick { chip, column, .. } => TraceEvent::DividerTick {
                chip,
                column,
                tick: 0,
                count,
            },
            TraceEvent::ZormStall { chip, column, .. } => TraceEvent::ZormStall {
                chip,
                column,
                tick: 0,
                cycles: count,
            },
            TraceEvent::RateMatcherRelock { chip, column, .. } => TraceEvent::RateMatcherRelock {
                chip,
                column,
                tick: 0,
                count,
            },
            TraceEvent::BusSlot { chip, from, to, .. } => TraceEvent::BusSlot {
                chip,
                tick: 0,
                from,
                to,
                words,
                count,
            },
            TraceEvent::BridgeTransfer {
                lane,
                from_chip,
                to_chip,
                ..
            } => TraceEvent::BridgeTransfer {
                lane,
                from_chip,
                to_chip,
                tick: 0,
                words,
                count,
            },
            TraceEvent::PhaseBegin { phase } => TraceEvent::PhaseBegin { phase },
            TraceEvent::PhaseEnd { phase } => TraceEvent::PhaseEnd { phase },
            TraceEvent::RouteSlot {
                split,
                from,
                to,
                edge,
                ..
            } => TraceEvent::RouteSlot {
                split,
                cycle: 0,
                from,
                to,
                words,
                edge,
            },
            TraceEvent::RouteReject { code, detail } => TraceEvent::RouteReject { code, detail },
            TraceEvent::Counter { name, .. } => TraceEvent::Counter { name, delta: count },
            TraceEvent::FaultColumnKilled { chip, column, .. } => TraceEvent::FaultColumnKilled {
                chip,
                column,
                tick: 0,
            },
            TraceEvent::FaultLaneKilled {
                lane,
                from_chip,
                to_chip,
                ..
            } => TraceEvent::FaultLaneKilled {
                lane,
                from_chip,
                to_chip,
                tick: 0,
            },
            TraceEvent::FaultStalled { window, .. } => TraceEvent::FaultStalled { tick: 0, window },
        })
        .collect()
}

/// Render `seconds` since the Unix epoch as an ISO-8601 UTC timestamp
/// (`YYYY-MM-DDTHH:MM:SSZ`), via the standard civil-from-days algorithm.
pub fn iso8601_utc(seconds_since_epoch: u64) -> String {
    let days = seconds_since_epoch / 86_400;
    let secs = seconds_since_epoch % 86_400;
    // Howard Hinnant's civil_from_days, shifted to the 0000-03-01 era.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// The current wall clock as an ISO-8601 UTC timestamp — what the perf
/// records stamp into their `generated_at` field.
pub fn iso8601_utc_now() -> String {
    let seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso8601_utc(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tickless_bus(chip: u32, from: u32, words: u64, count: u64) -> TraceEvent {
        TraceEvent::BusSlot {
            chip,
            tick: 0,
            from,
            to: vec![from + 1],
            words,
            count,
        }
    }

    #[test]
    fn null_sink_collapses_to_the_disabled_handle() {
        let trace = Trace::to(Arc::new(NullSink));
        assert!(!trace.enabled());
        // The builder must never run.
        trace.emit(|| unreachable!("disabled handles must not build events"));
        assert_eq!(format!("{trace:?}"), "Trace(off)");
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_events() {
        let ring = RingBufferSink::new(3);
        let trace = Trace::to(Arc::new(RingBufferSink::new(3)));
        assert!(trace.enabled());
        for i in 0..5u64 {
            ring.record(&TraceEvent::Counter {
                name: "x",
                delta: i,
            });
        }
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
        let deltas: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Counter { delta, .. } => *delta,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(deltas, vec![2, 3, 4], "oldest events are evicted first");
    }

    #[test]
    fn ring_buffer_stats_detect_truncation_without_cloning_events() {
        let ring = RingBufferSink::new(2);
        assert_eq!(ring.capacity(), 2);
        let before = ring.stats();
        assert_eq!(before.len, 0);
        assert!(!before.truncated());
        for i in 0..3u64 {
            ring.record(&TraceEvent::Counter {
                name: "x",
                delta: i,
            });
        }
        let after = ring.stats();
        assert_eq!(
            after,
            RingStats {
                capacity: 2,
                len: 2,
                dropped: 1
            }
        );
        assert!(after.truncated());
    }

    #[test]
    fn metrics_sink_folds_events_into_the_registry() {
        let sink = MetricsSink::new();
        sink.record(&TraceEvent::DividerTick {
            chip: 0,
            column: 1,
            tick: 9,
            count: 4,
        });
        sink.record(&tickless_bus(0, 0, 6, 2));
        sink.record(&TraceEvent::Counter {
            name: "explore.states_pruned",
            delta: 17,
        });
        sink.record(&TraceEvent::Counter {
            name: "explore.states_pruned",
            delta: 3,
        });
        assert_eq!(sink.value("sim.divider_ticks"), 4);
        assert_eq!(sink.value("sim.bus_words"), 6);
        assert_eq!(sink.value("sim.bus_slots"), 2);
        assert_eq!(sink.value("explore.states_pruned"), 20);
        assert_eq!(sink.value("never.bumped"), 0);
        assert!(sink.counters().keys().all(|k| !k.is_empty()));
    }

    #[test]
    fn span_emits_matched_begin_and_end() {
        let ring = Arc::new(RingBufferSink::new(8));
        let trace = Trace::to(ring.clone());
        {
            let _span = trace.span("mapper.compile");
            trace.counter("inner", 1);
        }
        let events = ring.events();
        assert_eq!(
            events,
            vec![
                TraceEvent::PhaseBegin {
                    phase: "mapper.compile"
                },
                TraceEvent::Counter {
                    name: "inner",
                    delta: 1
                },
                TraceEvent::PhaseEnd {
                    phase: "mapper.compile"
                },
            ]
        );
    }

    #[test]
    fn normalize_is_batching_independent() {
        // Interpreter granularity: per occurrence, with ticks.
        let fine = vec![
            TraceEvent::DividerTick {
                chip: 0,
                column: 0,
                tick: 0,
                count: 1,
            },
            TraceEvent::BusSlot {
                chip: 0,
                tick: 3,
                from: 0,
                to: vec![1],
                words: 2,
                count: 1,
            },
            TraceEvent::DividerTick {
                chip: 0,
                column: 0,
                tick: 2,
                count: 1,
            },
            TraceEvent::BusSlot {
                chip: 0,
                tick: 14,
                from: 0,
                to: vec![1],
                words: 2,
                count: 1,
            },
        ];
        // Fast-tier granularity: one batch per track.
        let batched = vec![
            tickless_bus(0, 0, 4, 2),
            TraceEvent::DividerTick {
                chip: 0,
                column: 0,
                tick: 2,
                count: 2,
            },
        ];
        assert_eq!(normalize(&fine), normalize(&batched));
        // Different totals must NOT normalize equal.
        assert_ne!(normalize(&fine), normalize(&batched[..1]));
    }

    #[test]
    fn fault_events_fold_into_the_registry_and_normalize() {
        let sink = MetricsSink::new();
        sink.record(&TraceEvent::FaultColumnKilled {
            chip: 0,
            column: 2,
            tick: 700,
        });
        sink.record(&TraceEvent::FaultLaneKilled {
            lane: 1,
            from_chip: 0,
            to_chip: 1,
            tick: 700,
        });
        sink.record(&TraceEvent::FaultStalled {
            tick: 1_440,
            window: 720,
        });
        sink.record(&TraceEvent::FaultStalled {
            tick: 2_880,
            window: 720,
        });
        assert_eq!(sink.value("sim.fault_columns"), 1);
        assert_eq!(sink.value("sim.fault_lanes"), 1);
        assert_eq!(sink.value("sim.fault_stalls"), 2);

        // Normalization drops ticks but keeps the fault's identity, so
        // the ticked and windowed drivers compare equal while a fault
        // on a different column does not.
        let a = vec![TraceEvent::FaultColumnKilled {
            chip: 0,
            column: 2,
            tick: 700,
        }];
        let b = vec![TraceEvent::FaultColumnKilled {
            chip: 0,
            column: 2,
            tick: 703,
        }];
        let c = vec![TraceEvent::FaultColumnKilled {
            chip: 0,
            column: 1,
            tick: 700,
        }];
        assert_eq!(normalize(&a), normalize(&b));
        assert_ne!(normalize(&a), normalize(&c));
    }

    #[test]
    fn iso8601_matches_known_instants() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        // 2004-06-19 (ISCA 2004 week) 12:34:56 UTC.
        assert_eq!(iso8601_utc(1_087_648_496), "2004-06-19T12:34:56Z");
        // Leap-year boundary.
        assert_eq!(iso8601_utc(951_782_400), "2000-02-29T00:00:00Z");
        let now = iso8601_utc_now();
        assert_eq!(now.len(), 20);
        assert!(now.ends_with('Z'));
    }
}
