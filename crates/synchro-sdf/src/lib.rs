//! Synchronous Dataflow (SDF) application modelling (Section 2.1).
//!
//! Synchroscalar applications fit the SDF model of computation: a graph of
//! actors connected by FIFO channels, where every actor produces and
//! consumes a fixed number of tokens per firing.  This restriction buys
//! static schedulability and decidability of bounded-memory and deadlock
//! questions, which is what lets the paper statically assign columns,
//! frequencies and communication schedules.
//!
//! The crate provides:
//!
//! * [`SdfGraph`] — graph construction and validation,
//! * [`SdfGraph::repetition_vector`] — the balance-equation solution
//!   (rate consistency check),
//! * [`SdfGraph::schedule`] — a periodic admissible sequential schedule
//!   (and with it a deadlock check),
//! * [`SdfGraph::buffer_bounds`] — bounded-memory requirements per edge,
//! * [`SdfGraph::analyze`] — all of the above, and the tokens each edge
//!   carries per iteration, from one solve and one schedule
//!   ([`SdfAnalysis`]),
//! * [`Mapping`] — assignment of actors to groups of tiles with the
//!   frequency each group must sustain for a target graph-iteration rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

/// Identifier of an actor within a graph (index order of insertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// One SDF actor: a computational block with a fixed per-firing cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Actor {
    /// Human-readable name ("FFT", "Viterbi ACS", ...).
    pub name: String,
    /// Tile-cycles required per firing when the actor runs on one tile.
    pub cycles_per_firing: u64,
    /// Maximum useful parallelism: the largest number of tiles across which
    /// one firing can be split (1 for inherently serial actors such as the
    /// stereo-vision SVD).
    pub max_parallel_tiles: u32,
}

/// One SDF edge: a FIFO channel with fixed production/consumption rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing actor.
    pub from: ActorId,
    /// Consuming actor.
    pub to: ActorId,
    /// Tokens produced per firing of `from`.
    pub produce: u64,
    /// Tokens consumed per firing of `to`.
    pub consume: u64,
    /// Initial tokens (delays) on the channel.
    pub initial_tokens: u64,
}

/// The most firings one iteration may take: [`SdfGraph::schedule`], which
/// lists every firing, rejects a larger graph with
/// [`SdfError::TooManyFirings`].  Four times the largest iteration of any
/// graph in this repository (1,048,556 firings); a schedule at the limit
/// holds 4,194,304 actor ids, 32 MiB.
pub const MAX_FIRINGS_PER_ITERATION: u64 = 1 << 22;

/// Errors raised by graph analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdfError {
    /// An edge referenced an actor that does not exist.
    UnknownActor {
        /// The dangling actor id.
        id: ActorId,
    },
    /// A rate or cycle count of zero was supplied where a positive value is
    /// required.
    ZeroRate {
        /// Description of the offending quantity.
        what: &'static str,
    },
    /// The balance equations have no non-trivial solution: the graph is
    /// rate-inconsistent and cannot run forever in bounded memory.
    Inconsistent {
        /// The edge at which the inconsistency was detected.
        edge: usize,
    },
    /// The graph is consistent but deadlocks: no periodic admissible
    /// schedule exists with the given initial tokens.
    Deadlock {
        /// Actors that still had firings outstanding when progress stopped.
        blocked: Vec<ActorId>,
    },
    /// The graph has no actors.
    Empty,
    /// A rate quantity does not fit in 64 bits: the graph may be
    /// consistent, but its repetition vector cannot be represented.
    Overflow {
        /// Description of the quantity that overflowed.
        quantity: &'static str,
    },
    /// One iteration takes more firings than a schedule may list
    /// ([`MAX_FIRINGS_PER_ITERATION`]).
    TooManyFirings {
        /// Firings per iteration: the sum of the repetition vector.
        firings: u64,
    },
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::UnknownActor { id } => write!(f, "edge references unknown actor {}", id.0),
            SdfError::ZeroRate { what } => write!(f, "{what} must be positive"),
            SdfError::Inconsistent { edge } => {
                write!(f, "balance equations are inconsistent at edge {edge}")
            }
            SdfError::Deadlock { blocked } => {
                write!(f, "graph deadlocks with {} actors blocked", blocked.len())
            }
            SdfError::Empty => write!(f, "graph has no actors"),
            SdfError::Overflow { quantity } => write!(f, "{quantity} overflows 64 bits"),
            SdfError::TooManyFirings { firings } => {
                write!(
                    f,
                    "{firings} firings per iteration (limit {MAX_FIRINGS_PER_ITERATION})"
                )
            }
        }
    }
}

impl Error for SdfError {}

/// A synchronous dataflow graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfGraph {
    actors: Vec<Actor>,
    edges: Vec<Edge>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    (a / gcd(a, b)).checked_mul(b)
}

/// `a * b`, or [`SdfError::Overflow`] naming `quantity`.
fn mul(a: u64, b: u64, quantity: &'static str) -> Result<u64, SdfError> {
    a.checked_mul(b).ok_or(SdfError::Overflow { quantity })
}

/// The rate `num/den · p/c` in lowest terms, given `num/den` and `p/c`
/// each in lowest terms.  Cancelling the cross factors before multiplying
/// leaves a result already in lowest terms, and each part is a product of
/// two `u64`s, so it always fits in `u128`.
fn scale_rate(num: u64, den: u64, p: u64, c: u64) -> (u128, u128) {
    let (g_num, g_den) = (gcd(num, c), gcd(p, den));
    (
        u128::from(num / g_num) * u128::from(p / g_den),
        u128::from(den / g_den) * u128::from(c / g_num),
    )
}

/// A reduced rate narrowed to `u64` parts, or [`SdfError::Overflow`].
fn narrow_rate((num, den): (u128, u128)) -> Result<(u64, u64), SdfError> {
    match (u64::try_from(num), u64::try_from(den)) {
        (Ok(num), Ok(den)) => Ok((num, den)),
        _ => Err(SdfError::Overflow {
            quantity: "actor rate",
        }),
    }
}

impl SdfGraph {
    /// An empty graph.
    pub fn new() -> Self {
        SdfGraph::default()
    }

    /// Add an actor and return its id.
    pub fn add_actor(
        &mut self,
        name: impl Into<String>,
        cycles_per_firing: u64,
        max_parallel_tiles: u32,
    ) -> ActorId {
        self.actors.push(Actor {
            name: name.into(),
            cycles_per_firing,
            max_parallel_tiles: max_parallel_tiles.max(1),
        });
        ActorId(self.actors.len() - 1)
    }

    /// Add an edge.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError`] if either endpoint is unknown or a rate is zero.
    pub fn add_edge(
        &mut self,
        from: ActorId,
        to: ActorId,
        produce: u64,
        consume: u64,
        initial_tokens: u64,
    ) -> Result<(), SdfError> {
        for id in [from, to] {
            if id.0 >= self.actors.len() {
                return Err(SdfError::UnknownActor { id });
            }
        }
        if produce == 0 {
            return Err(SdfError::ZeroRate {
                what: "produce rate",
            });
        }
        if consume == 0 {
            return Err(SdfError::ZeroRate {
                what: "consume rate",
            });
        }
        self.edges.push(Edge {
            from,
            to,
            produce,
            consume,
            initial_tokens,
        });
        Ok(())
    }

    /// The actors in insertion order.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// The edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Look up an actor.
    pub fn actor(&self, id: ActorId) -> Option<&Actor> {
        self.actors.get(id.0)
    }

    /// Solve the balance equations and return the repetition vector: the
    /// minimal positive number of firings of each actor per graph iteration.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::Empty`] for an empty graph,
    /// [`SdfError::Inconsistent`] when no solution exists, or
    /// [`SdfError::Overflow`] when a rate or the solution does not fit in
    /// 64 bits.
    pub fn repetition_vector(&self) -> Result<Vec<u64>, SdfError> {
        if self.actors.is_empty() {
            return Err(SdfError::Empty);
        }
        // Represent each actor's rate as a rational num/den and propagate
        // along edges; disconnected components each get an independent
        // normalisation.
        let n = self.actors.len();
        let mut num = vec![0u64; n];
        let mut den = vec![1u64; n];

        for start in 0..n {
            if num[start] != 0 {
                continue;
            }
            num[start] = 1;
            den[start] = 1;
            // Breadth-first propagation across edges touching known actors.
            let mut changed = true;
            while changed {
                changed = false;
                for (ei, e) in self.edges.iter().enumerate() {
                    let (a, b) = (e.from.0, e.to.0);
                    let known_a = num[a] != 0;
                    let known_b = num[b] != 0;
                    let g = gcd(e.produce, e.consume);
                    let (p, c) = (e.produce / g, e.consume / g);
                    if known_a && !known_b {
                        // r_b = r_a * produce / consume
                        (num[b], den[b]) = narrow_rate(scale_rate(num[a], den[a], p, c))?;
                        changed = true;
                    } else if known_b && !known_a {
                        (num[a], den[a]) = narrow_rate(scale_rate(num[b], den[b], c, p))?;
                        changed = true;
                    } else if known_a && known_b {
                        // Consistency check: r_a * produce == r_b * consume.
                        // Both rates are in lowest terms, so they are equal
                        // exactly when their parts are.
                        let implied = scale_rate(num[a], den[a], p, c);
                        if implied != (u128::from(num[b]), u128::from(den[b])) {
                            return Err(SdfError::Inconsistent { edge: ei });
                        }
                    }
                }
            }
        }

        // Scale to the smallest integer vector.
        let common_den = den
            .iter()
            .try_fold(1u64, |acc, &d| checked_lcm(acc, d))
            .ok_or(SdfError::Overflow {
                quantity: "rate denominator lcm",
            })?;
        let mut reps = num
            .iter()
            .zip(&den)
            .map(|(&n_i, &d_i)| mul(n_i, common_den / d_i, "repetition vector"))
            .collect::<Result<Vec<u64>, SdfError>>()?;
        let common_gcd = reps.iter().fold(0u64, |acc, &r| gcd(acc, r));
        if common_gcd > 1 {
            for r in &mut reps {
                *r /= common_gcd;
            }
        }
        Ok(reps)
    }

    /// Compute a periodic admissible sequential schedule (one graph
    /// iteration) by demand-driven simulation, which doubles as the
    /// deadlock check.
    ///
    /// # Errors
    ///
    /// Propagates rate-consistency errors, then returns
    /// [`SdfError::TooManyFirings`] past [`MAX_FIRINGS_PER_ITERATION`] and
    /// [`SdfError::Deadlock`] when no actor can fire but firings remain.
    pub fn schedule(&self) -> Result<Vec<ActorId>, SdfError> {
        self.schedule_for(&self.repetition_vector()?)
    }

    /// Analyse the graph once: solve the balance equations, schedule one
    /// iteration (the deadlock check), and derive the buffer bounds along
    /// that schedule and the tokens each edge carries per iteration.  The
    /// result holds what [`SdfGraph::repetition_vector`],
    /// [`SdfGraph::buffer_bounds`] and [`SdfGraph::tokens_per_iteration`]
    /// return, from one solve of the balance equations where calling the
    /// three in turn solves them three times.
    ///
    /// # Errors
    ///
    /// Those of [`SdfGraph::repetition_vector`], then those of
    /// [`SdfGraph::schedule`].
    pub fn analyze(&self) -> Result<SdfAnalysis<'_>, SdfError> {
        let repetitions = self.repetition_vector()?;
        let order = self.schedule_for(&repetitions)?;
        Ok(SdfAnalysis {
            graph: self,
            buffer_bounds: self.bounds_along(&order),
            tokens: self.tokens_for(&repetitions),
            repetitions,
        })
    }

    /// [`SdfGraph::schedule`] for the graph's repetition vector `reps`.
    fn schedule_for(&self, reps: &[u64]) -> Result<Vec<ActorId>, SdfError> {
        let firings = reps
            .iter()
            .try_fold(0u64, |sum, &r| sum.checked_add(r))
            .ok_or(SdfError::Overflow {
                quantity: "firings per iteration",
            })?;
        if firings > MAX_FIRINGS_PER_ITERATION {
            return Err(SdfError::TooManyFirings { firings });
        }
        let mut remaining: Vec<u64> = reps.to_vec();
        let mut tokens: Vec<u64> = self.edges.iter().map(|e| e.initial_tokens).collect();
        let mut order = Vec::with_capacity(firings as usize);

        loop {
            if remaining.iter().all(|&r| r == 0) {
                return Ok(order);
            }
            let mut fired = false;
            for (i, _) in self.actors.iter().enumerate() {
                if remaining[i] == 0 {
                    continue;
                }
                let can_fire = self
                    .edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.to.0 == i)
                    .all(|(ei, e)| tokens[ei] >= e.consume);
                if can_fire {
                    for (ei, e) in self.edges.iter().enumerate() {
                        if e.to.0 == i {
                            tokens[ei] -= e.consume;
                        }
                        if e.from.0 == i {
                            tokens[ei] += e.produce;
                        }
                    }
                    remaining[i] -= 1;
                    order.push(ActorId(i));
                    fired = true;
                }
            }
            if !fired {
                let blocked = remaining
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r > 0)
                    .map(|(i, _)| ActorId(i))
                    .collect();
                return Err(SdfError::Deadlock { blocked });
            }
        }
    }

    /// Maximum tokens simultaneously buffered on each edge during the
    /// schedule returned by [`SdfGraph::schedule`] — the bounded-memory
    /// guarantee the SDF restriction provides.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors.
    pub fn buffer_bounds(&self) -> Result<Vec<u64>, SdfError> {
        Ok(self.bounds_along(&self.schedule()?))
    }

    /// [`SdfGraph::buffer_bounds`] along the admissible schedule `order`.
    fn bounds_along(&self, order: &[ActorId]) -> Vec<u64> {
        let mut tokens: Vec<u64> = self.edges.iter().map(|e| e.initial_tokens).collect();
        let mut bounds = tokens.clone();
        for &id in order {
            for (ei, e) in self.edges.iter().enumerate() {
                if e.to == id {
                    tokens[ei] -= e.consume;
                }
            }
            for (ei, e) in self.edges.iter().enumerate() {
                if e.from == id {
                    tokens[ei] += e.produce;
                    bounds[ei] = bounds[ei].max(tokens[ei]);
                }
            }
        }
        bounds
    }

    /// Tokens that flow across each edge during one graph iteration:
    /// `reps[from] × produce`, which by the balance equations equals
    /// `reps[to] × consume`.  This is the analytic communication-traffic
    /// model a mapped chip's measured bus transfers are validated against.
    ///
    /// # Errors
    ///
    /// Propagates rate-consistency errors.
    pub fn tokens_per_iteration(&self) -> Result<Vec<u64>, SdfError> {
        Ok(self.tokens_for(&self.repetition_vector()?))
    }

    /// [`SdfGraph::tokens_per_iteration`] for the repetition vector `reps`.
    fn tokens_for(&self, reps: &[u64]) -> Vec<u64> {
        self.edges
            .iter()
            .map(|e| reps[e.from.0] * e.produce)
            .collect()
    }

    /// Total tile-cycles consumed by one graph iteration if every actor ran
    /// on a single tile.
    ///
    /// # Errors
    ///
    /// Propagates rate-consistency errors.
    pub fn cycles_per_iteration(&self) -> Result<u64, SdfError> {
        let reps = self.repetition_vector()?;
        Ok(self
            .actors
            .iter()
            .zip(&reps)
            .map(|(a, &r)| a.cycles_per_firing * r)
            .sum())
    }
}

/// One graph's static analysis, from [`SdfGraph::analyze`]: its repetition
/// vector, buffer bounds and tokens per iteration, each computed once.
///
/// The analysis borrows the graph it describes, so a consumer that takes
/// one ([`Mapping::requirements_from`], the router's board flows) reads
/// the graph from it and cannot pair it with another graph.
#[derive(Debug, Clone)]
pub struct SdfAnalysis<'g> {
    graph: &'g SdfGraph,
    repetitions: Vec<u64>,
    buffer_bounds: Vec<u64>,
    tokens: Vec<u64>,
}

impl<'g> SdfAnalysis<'g> {
    /// The analysed graph.
    pub fn graph(&self) -> &'g SdfGraph {
        self.graph
    }

    /// [`SdfGraph::repetition_vector`]: firings of each actor per
    /// iteration.
    pub fn repetitions(&self) -> &[u64] {
        &self.repetitions
    }

    /// [`SdfGraph::buffer_bounds`]: the most tokens each edge holds at
    /// once along the admissible schedule.
    pub fn buffer_bounds(&self) -> &[u64] {
        &self.buffer_bounds
    }

    /// [`SdfGraph::tokens_per_iteration`]: tokens each edge carries per
    /// iteration.
    pub fn tokens_per_iteration(&self) -> &[u64] {
        &self.tokens
    }
}

/// One actor's placement in a [`Mapping`]: how many tiles it gets and which
/// columns host it.
///
/// The fields hold the values exactly as requested via [`Mapping::place`];
/// nothing is clamped at insertion time, so [`Mapping::validate`] can
/// report nonsensical placements instead of silently reshaping them.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The actor being placed.
    pub actor: ActorId,
    /// Number of tiles assigned.
    pub tiles: u32,
    /// Parallel efficiency of splitting the actor across those tiles
    /// (1.0 = perfect speedup; lower values model the communication and
    /// load-imbalance losses the paper's Figure 7 explores).
    pub efficiency: f64,
    /// Which chip of a board hosts the placement.  Single-chip mappings
    /// (built via [`Mapping::place`]) always use chip 0; board mappings
    /// assign chips via [`Mapping::place_on_chip`].
    pub chip: usize,
}

/// A typed description of lost or degraded hardware: failed tiles within a
/// column, whole failed columns, failed or width-degraded bridge lanes,
/// and bus splits lost per chip.
///
/// Columns are addressed by `(chip, column)` where `column` is the
/// placement's position among its chip's placements (the order the mapper
/// instantiates columns in); bridge lanes by their `(from_chip, to_chip)`
/// direction.  The spec is pure data — [`Mapping::validate_with_faults`]
/// checks a mapping against it, and the compiler threads it through
/// routing and execution so nothing is ever scheduled onto dead hardware.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSpec {
    failed_columns: Vec<(usize, usize)>,
    failed_tiles: Vec<(usize, usize, usize)>,
    failed_lanes: Vec<(usize, usize)>,
    degraded_lanes: Vec<(usize, usize, u32)>,
    lost_splits: Vec<(usize, u32)>,
}

impl FaultSpec {
    /// A spec with no faults (equivalent to `FaultSpec::default()`).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Does the spec describe any fault at all?
    pub fn is_empty(&self) -> bool {
        self.failed_columns.is_empty()
            && self.failed_tiles.is_empty()
            && self.failed_lanes.is_empty()
            && self.degraded_lanes.is_empty()
            && self.lost_splits.is_empty()
    }

    /// Mark column `column` of chip `chip` as failed.
    pub fn fail_column(&mut self, chip: usize, column: usize) -> &mut Self {
        self.failed_columns.push((chip, column));
        self
    }

    /// Mark tile `tile` within column `column` of chip `chip` as failed.
    pub fn fail_tile(&mut self, chip: usize, column: usize, tile: usize) -> &mut Self {
        self.failed_tiles.push((chip, column, tile));
        self
    }

    /// Mark the bridge lane direction `from_chip → to_chip` as failed.
    pub fn fail_lane(&mut self, from_chip: usize, to_chip: usize) -> &mut Self {
        self.failed_lanes.push((from_chip, to_chip));
        self
    }

    /// Degrade the bridge lane direction `from_chip → to_chip` to at most
    /// `width_words` words per bridge cycle (0 is equivalent to
    /// [`FaultSpec::fail_lane`]).
    pub fn degrade_lane(
        &mut self,
        from_chip: usize,
        to_chip: usize,
        width_words: u32,
    ) -> &mut Self {
        self.degraded_lanes.push((from_chip, to_chip, width_words));
        self
    }

    /// Mark `splits` of chip `chip`'s horizontal-bus splits as failed.
    pub fn lose_splits(&mut self, chip: usize, splits: u32) -> &mut Self {
        self.lost_splits.push((chip, splits));
        self
    }

    /// Is column `column` of chip `chip` failed?
    pub fn column_failed(&self, chip: usize, column: usize) -> bool {
        self.failed_columns.contains(&(chip, column))
    }

    /// Is tile `tile` within column `column` of chip `chip` failed?
    pub fn tile_failed(&self, chip: usize, column: usize, tile: usize) -> bool {
        self.failed_tiles.contains(&(chip, column, tile))
    }

    /// Is the lane direction `from_chip → to_chip` failed (outright, or
    /// degraded to zero width)?
    pub fn lane_failed(&self, from_chip: usize, to_chip: usize) -> bool {
        self.failed_lanes.contains(&(from_chip, to_chip))
            || self
                .degraded_lanes
                .iter()
                .any(|&(f, t, w)| (f, t) == (from_chip, to_chip) && w == 0)
    }

    /// The width cap (words per bridge cycle) faults impose on the lane
    /// direction `from_chip → to_chip`, if any.
    pub fn lane_width_limit(&self, from_chip: usize, to_chip: usize) -> Option<u32> {
        self.degraded_lanes
            .iter()
            .filter(|&&(f, t, _)| (f, t) == (from_chip, to_chip))
            .map(|&(_, _, w)| w)
            .min()
    }

    /// Total horizontal-bus splits chip `chip` has lost.
    pub fn splits_lost(&self, chip: usize) -> u32 {
        self.lost_splits
            .iter()
            .filter(|&&(c, _)| c == chip)
            .map(|&(_, s)| s)
            .fold(0, u32::saturating_add)
    }

    /// The failed `(chip, column)` pairs, in insertion order.
    pub fn failed_columns(&self) -> &[(usize, usize)] {
        &self.failed_columns
    }

    /// The failed `(from_chip, to_chip)` lane directions, in insertion
    /// order (outright failures only; degraded-to-zero lanes are reported
    /// through [`FaultSpec::lane_failed`]).
    pub fn failed_lanes(&self) -> &[(usize, usize)] {
        &self.failed_lanes
    }
}

/// One problem found by [`Mapping::validate`]: a placement that the lenient
/// accessors ([`Mapping::requirements`]) would otherwise silently reshape,
/// or (via [`Mapping::validate_with_faults`]) a placement landing on
/// hardware a [`FaultSpec`] marks as dead.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingViolation {
    /// A placement references an actor the graph does not contain.
    UnknownActor {
        /// The dangling actor id.
        actor: ActorId,
        /// The chip the placement targets.
        chip: usize,
        /// The column the placement occupies on that chip.
        column: usize,
    },
    /// A placement assigns zero tiles.
    ZeroTiles {
        /// The actor placed on zero tiles.
        actor: ActorId,
        /// The chip the placement targets.
        chip: usize,
        /// The column the placement occupies on that chip.
        column: usize,
    },
    /// A placement assigns more tiles than the actor can use in parallel.
    OverParallel {
        /// The over-parallelised actor.
        actor: ActorId,
        /// The chip the placement targets.
        chip: usize,
        /// The column the placement occupies on that chip.
        column: usize,
        /// Tiles the placement requested.
        tiles: u32,
        /// The actor's parallelism limit.
        max_parallel_tiles: u32,
    },
    /// A placement's parallel efficiency lies outside `(0.0, 1.0]`.
    EfficiencyOutOfRange {
        /// The actor with the bad efficiency.
        actor: ActorId,
        /// The chip the placement targets.
        chip: usize,
        /// The column the placement occupies on that chip.
        column: usize,
        /// The requested efficiency.
        efficiency: f64,
    },
    /// A placement targets a chip the board does not have (reported by
    /// [`Mapping::validate_on_board`]).
    ChipOutOfRange {
        /// The actor placed on the missing chip.
        actor: ActorId,
        /// The column the placement occupies on that chip.
        column: usize,
        /// The chip the placement requested.
        chip: usize,
        /// Number of chips on the board.
        chips: usize,
    },
    /// A placement lands on a column a [`FaultSpec`] marks as failed.
    FailedColumn {
        /// The actor placed on the dead column.
        actor: ActorId,
        /// The chip hosting the failed column.
        chip: usize,
        /// The failed column.
        column: usize,
    },
    /// A placement needs a tile a [`FaultSpec`] marks as failed.
    FailedTile {
        /// The actor whose placement covers the dead tile.
        actor: ActorId,
        /// The chip hosting the column.
        chip: usize,
        /// The column containing the failed tile.
        column: usize,
        /// The failed tile's index within the column.
        tile: usize,
        /// Tiles the placement requested (the failed tile lies below it).
        tiles: u32,
    },
    /// A chip has lost every horizontal-bus split (reported by the
    /// compiler, which knows the configured split count).
    BusSplitsExhausted {
        /// The chip with no surviving splits.
        chip: usize,
        /// Splits the chip was configured with.
        splits: u32,
        /// Splits the faults removed.
        lost: u32,
    },
    /// Every bridge lane in a direction cross-chip traffic needs is failed
    /// (reported by the compiler, which knows the board topology).
    BridgeDown {
        /// The producing chip.
        from_chip: usize,
        /// The consuming chip.
        to_chip: usize,
    },
}

impl MappingViolation {
    /// Is this violation caused by a [`FaultSpec`] (dead hardware) rather
    /// than by the mapping itself being malformed?  Fault violations are
    /// retryable by remapping around the lost resource; the rest are hard
    /// errors in the mapping.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            MappingViolation::FailedColumn { .. }
                | MappingViolation::FailedTile { .. }
                | MappingViolation::BusSplitsExhausted { .. }
                | MappingViolation::BridgeDown { .. }
        )
    }
}

impl fmt::Display for MappingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingViolation::UnknownActor {
                actor,
                chip,
                column,
            } => write!(
                f,
                "placement on chip {chip} column {column} references unknown actor {}",
                actor.0
            ),
            MappingViolation::ZeroTiles {
                actor,
                chip,
                column,
            } => write!(
                f,
                "actor {} on chip {chip} column {column} is placed on zero tiles",
                actor.0
            ),
            MappingViolation::OverParallel {
                actor,
                chip,
                column,
                tiles,
                max_parallel_tiles,
            } => write!(
                f,
                "actor {} on chip {chip} column {column} is placed on {tiles} tiles \
                 but can only use {max_parallel_tiles}",
                actor.0
            ),
            MappingViolation::EfficiencyOutOfRange {
                actor,
                chip,
                column,
                efficiency,
            } => write!(
                f,
                "actor {} on chip {chip} column {column} has parallel efficiency \
                 {efficiency} outside (0, 1]",
                actor.0
            ),
            MappingViolation::ChipOutOfRange {
                actor,
                column,
                chip,
                chips,
            } => write!(
                f,
                "actor {} (column {column}) is placed on chip {chip} but the board \
                 has {chips} chip(s)",
                actor.0
            ),
            MappingViolation::FailedColumn {
                actor,
                chip,
                column,
            } => write!(
                f,
                "actor {} is placed on failed column {column} of chip {chip}",
                actor.0
            ),
            MappingViolation::FailedTile {
                actor,
                chip,
                column,
                tile,
                tiles,
            } => write!(
                f,
                "actor {} needs {tiles} tiles on chip {chip} column {column} \
                 but tile {tile} is failed",
                actor.0
            ),
            MappingViolation::BusSplitsExhausted { chip, splits, lost } => write!(
                f,
                "chip {chip} lost {lost} of its {splits} bus split(s), leaving none"
            ),
            MappingViolation::BridgeDown { from_chip, to_chip } => write!(
                f,
                "every bridge lane from chip {from_chip} to chip {to_chip} is failed"
            ),
        }
    }
}

/// An assignment of the graph's actors to tile groups.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mapping {
    placements: Vec<Placement>,
}

/// The computed operating requirement of one placed actor.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRequirement {
    /// The actor.
    pub actor: ActorId,
    /// Tiles assigned.
    pub tiles: u32,
    /// Required per-tile frequency in MHz to sustain the target iteration
    /// rate.
    pub frequency_mhz: f64,
}

impl Mapping {
    /// An empty mapping.
    pub fn new() -> Self {
        Mapping::default()
    }

    /// Place `actor` on `tiles` tiles with the given parallel efficiency.
    ///
    /// The values are recorded verbatim; use [`Mapping::validate`] to check
    /// them against a graph.  ([`Mapping::requirements`] clamps nonsensical
    /// values while computing, for backwards compatibility, but compilers
    /// should reject them loudly instead.)
    pub fn place(&mut self, actor: ActorId, tiles: u32, efficiency: f64) -> &mut Self {
        self.place_on_chip(0, actor, tiles, efficiency)
    }

    /// Place `actor` on `tiles` tiles of board chip `chip`.
    ///
    /// Identical to [`Mapping::place`] except that the placement is
    /// chip-qualified; use [`Mapping::validate_on_board`] to check the chip
    /// index against a board size.
    pub fn place_on_chip(
        &mut self,
        chip: usize,
        actor: ActorId,
        tiles: u32,
        efficiency: f64,
    ) -> &mut Self {
        self.placements.push(Placement {
            actor,
            tiles,
            efficiency,
            chip,
        });
        self
    }

    /// The placements made so far.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of chips the mapping spans: one more than the highest chip
    /// index referenced by any placement (at least 1, so an empty or purely
    /// single-chip mapping reports a board of one).
    pub fn chips(&self) -> usize {
        self.placements
            .iter()
            .map(|p| p.chip + 1)
            .max()
            .unwrap_or(1)
    }

    /// The `(chip, column)` seat each placement occupies, aligned with
    /// [`Mapping::placements`]: a placement's column index is its position
    /// among its chip's placements, in insertion order — exactly the order
    /// the compiler instantiates columns in, and the coordinate system
    /// [`FaultSpec`] addresses columns by.
    pub fn seats(&self) -> Vec<(usize, usize)> {
        let chips = self.chips();
        let mut next_column = vec![0usize; chips];
        self.placements
            .iter()
            .map(|p| {
                let column = next_column[p.chip];
                next_column[p.chip] += 1;
                (p.chip, column)
            })
            .collect()
    }

    /// Check every placement against `graph` and report the problems the
    /// lenient computations would otherwise paper over: unknown actors,
    /// zero-tile placements, placements beyond an actor's parallelism
    /// limit, and efficiencies outside `(0.0, 1.0]`.
    ///
    /// An empty vector means the mapping is well-formed.
    pub fn validate(&self, graph: &SdfGraph) -> Vec<MappingViolation> {
        let mut violations = Vec::new();
        for (p, (chip, column)) in self.placements.iter().zip(self.seats()) {
            let Some(actor) = graph.actor(p.actor) else {
                violations.push(MappingViolation::UnknownActor {
                    actor: p.actor,
                    chip,
                    column,
                });
                continue;
            };
            if p.tiles == 0 {
                violations.push(MappingViolation::ZeroTiles {
                    actor: p.actor,
                    chip,
                    column,
                });
            } else if p.tiles > actor.max_parallel_tiles {
                violations.push(MappingViolation::OverParallel {
                    actor: p.actor,
                    chip,
                    column,
                    tiles: p.tiles,
                    max_parallel_tiles: actor.max_parallel_tiles,
                });
            }
            if !(p.efficiency > 0.0 && p.efficiency <= 1.0) {
                violations.push(MappingViolation::EfficiencyOutOfRange {
                    actor: p.actor,
                    chip,
                    column,
                    efficiency: p.efficiency,
                });
            }
        }
        violations
    }

    /// [`Mapping::validate`] plus the board dimension: every placement's
    /// chip index must fall inside a board of `chips` chips.
    ///
    /// An empty vector means the mapping is well-formed for that board.
    pub fn validate_on_board(&self, graph: &SdfGraph, chips: usize) -> Vec<MappingViolation> {
        let mut violations = self.validate(graph);
        for (p, (chip, column)) in self.placements.iter().zip(self.seats()) {
            if p.chip >= chips {
                violations.push(MappingViolation::ChipOutOfRange {
                    actor: p.actor,
                    column,
                    chip,
                    chips,
                });
            }
        }
        violations
    }

    /// Check every placement against the hardware `faults` declares lost:
    /// placements on failed columns and placements whose tile range covers
    /// a failed tile.  Returns only the fault-class violations; run
    /// [`Mapping::validate`] (or [`Mapping::validate_on_board`]) alongside
    /// for the mapping-shape checks.
    ///
    /// An empty vector means no placement touches dead hardware.
    pub fn validate_with_faults(
        &self,
        graph: &SdfGraph,
        faults: &FaultSpec,
    ) -> Vec<MappingViolation> {
        let _ = graph;
        let mut violations = Vec::new();
        for (p, (chip, column)) in self.placements.iter().zip(self.seats()) {
            if faults.column_failed(chip, column) {
                violations.push(MappingViolation::FailedColumn {
                    actor: p.actor,
                    chip,
                    column,
                });
                continue;
            }
            for tile in 0..p.tiles as usize {
                if faults.tile_failed(chip, column, tile) {
                    violations.push(MappingViolation::FailedTile {
                        actor: p.actor,
                        chip,
                        column,
                        tile,
                        tiles: p.tiles,
                    });
                }
            }
        }
        violations
    }

    /// Total tiles used by the mapping.
    pub fn total_tiles(&self) -> u32 {
        self.placements.iter().map(|p| p.tiles).sum()
    }

    /// Compute, for every placed actor, the per-tile frequency needed to
    /// sustain `iterations_per_second` graph iterations per second.
    ///
    /// Nonsensical placements are clamped while computing (zero tiles to
    /// one, tiles above the parallelism limit down to it, efficiency into
    /// `[0.01, 1.0]`); run [`Mapping::validate`] first to detect and reject
    /// them instead.
    ///
    /// # Errors
    ///
    /// Propagates rate-consistency errors; placements of unknown actors are
    /// reported as [`SdfError::UnknownActor`].
    pub fn requirements(
        &self,
        graph: &SdfGraph,
        iterations_per_second: f64,
    ) -> Result<Vec<PlacementRequirement>, SdfError> {
        self.requirements_with(graph, &graph.repetition_vector()?, iterations_per_second)
    }

    /// [`Mapping::requirements`] from a graph already analysed, without
    /// solving its balance equations again.
    ///
    /// # Errors
    ///
    /// Placements of unknown actors are reported as
    /// [`SdfError::UnknownActor`].
    pub fn requirements_from(
        &self,
        analysis: &SdfAnalysis<'_>,
        iterations_per_second: f64,
    ) -> Result<Vec<PlacementRequirement>, SdfError> {
        self.requirements_with(analysis.graph, &analysis.repetitions, iterations_per_second)
    }

    /// [`Mapping::requirements`] for `graph`'s repetition vector `reps`.
    fn requirements_with(
        &self,
        graph: &SdfGraph,
        reps: &[u64],
        iterations_per_second: f64,
    ) -> Result<Vec<PlacementRequirement>, SdfError> {
        let mut out = Vec::with_capacity(self.placements.len());
        for p in &self.placements {
            let actor = graph
                .actor(p.actor)
                .ok_or(SdfError::UnknownActor { id: p.actor })?;
            let rep = reps[p.actor.0] as f64;
            let cycles_per_iteration = actor.cycles_per_firing as f64 * rep;
            let effective_tiles = f64::from(p.tiles.clamp(1, actor.max_parallel_tiles))
                * p.efficiency.clamp(0.01, 1.0);
            let cycles_per_tile = cycles_per_iteration / effective_tiles;
            let hz = cycles_per_tile * iterations_per_second;
            out.push(PlacementRequirement {
                actor: p.actor,
                tiles: p.tiles,
                frequency_mhz: hz / 1e6,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DDC front end: mixer → CIC integrator → CIC comb with a 1:1 and
    /// a 4:1 rate change.
    fn ddc_like() -> (SdfGraph, ActorId, ActorId, ActorId) {
        let mut g = SdfGraph::new();
        let mixer = g.add_actor("mixer", 10, 16);
        let integ = g.add_actor("integrator", 16, 16);
        let comb = g.add_actor("comb", 8, 4);
        g.add_edge(mixer, integ, 1, 1, 0).unwrap();
        g.add_edge(integ, comb, 1, 4, 0).unwrap();
        (g, mixer, integ, comb)
    }

    #[test]
    fn repetition_vector_solves_balance_equations() {
        let (g, ..) = ddc_like();
        // mixer and integrator fire 4× per comb firing.
        assert_eq!(g.repetition_vector().unwrap(), vec![4, 4, 1]);
    }

    #[test]
    fn repetition_vector_is_minimal() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        let b = g.add_actor("b", 1, 1);
        g.add_edge(a, b, 6, 4, 0).unwrap();
        // 6p = 4c → minimal (2, 3).
        assert_eq!(g.repetition_vector().unwrap(), vec![2, 3]);
    }

    #[test]
    fn rate_overflow_is_reported_not_wrapped() {
        // A consistent 12-actor chain whose edges each produce 1 token and
        // consume 1000: the first actor fires 1000^11 times per iteration,
        // which no u64 holds.  That is an overflow, not an inconsistency,
        // in debug and release builds alike.
        let mut g = SdfGraph::new();
        let actors: Vec<ActorId> = (0..12)
            .map(|i| g.add_actor(format!("a{i}"), 1, 1))
            .collect();
        for pair in actors.windows(2) {
            g.add_edge(pair[0], pair[1], 1, 1000, 0).unwrap();
        }
        let err = g.repetition_vector().unwrap_err();
        assert!(matches!(err, SdfError::Overflow { .. }), "{err:?}");
        assert!(err.to_string().contains("overflows"));
        // Six such edges still fit: 1000^6 < 2^64.
        let mut short = SdfGraph::new();
        let actors: Vec<ActorId> = (0..7)
            .map(|i| short.add_actor(format!("a{i}"), 1, 1))
            .collect();
        for pair in actors.windows(2) {
            short.add_edge(pair[0], pair[1], 1, 1000, 0).unwrap();
        }
        assert_eq!(short.repetition_vector().unwrap()[0], 1000u64.pow(6));
        // Every reduced rate fits even where an unreduced product would
        // not: r = [1, x/5, 1/5], so den[2] must not be formed as 5 · x.
        let x = (1u64 << 62) + 3;
        let mut wide = SdfGraph::new();
        let actors: Vec<ActorId> = (0..3)
            .map(|i| wide.add_actor(format!("a{i}"), 1, 1))
            .collect();
        wide.add_edge(actors[0], actors[1], x, 5, 0).unwrap();
        wide.add_edge(actors[1], actors[2], 1, x, 0).unwrap();
        assert_eq!(wide.repetition_vector().unwrap(), vec![5, x, 1]);
        // The balance check compares those rates without overflowing.
        let mut closed = wide.clone();
        closed.add_edge(actors[2], actors[1], x, 1, 0).unwrap();
        assert_eq!(closed.repetition_vector().unwrap(), vec![5, x, 1]);
        wide.add_edge(actors[2], actors[1], x, 3, 0).unwrap();
        assert_eq!(
            wide.repetition_vector(),
            Err(SdfError::Inconsistent { edge: 2 })
        );
    }

    #[test]
    fn inconsistent_graph_is_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        let b = g.add_actor("b", 1, 1);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g.add_edge(a, b, 2, 1, 0).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(SdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = SdfGraph::new();
        assert!(matches!(g.repetition_vector(), Err(SdfError::Empty)));
    }

    #[test]
    fn schedule_is_admissible_and_complete() {
        let (g, mixer, integ, comb) = ddc_like();
        let order = g.schedule().unwrap();
        assert_eq!(order.len(), 9, "4 + 4 + 1 firings");
        assert_eq!(order.iter().filter(|&&a| a == mixer).count(), 4);
        assert_eq!(order.iter().filter(|&&a| a == integ).count(), 4);
        assert_eq!(order.iter().filter(|&&a| a == comb).count(), 1);
        // The comb can only fire after the integrator has fired four times.
        let comb_pos = order.iter().position(|&a| a == comb).unwrap();
        let integ_count_before = order[..comb_pos].iter().filter(|&&a| a == integ).count();
        assert_eq!(integ_count_before, 4);
    }

    #[test]
    fn cyclic_graph_without_delays_deadlocks() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        let b = g.add_actor("b", 1, 1);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g.add_edge(b, a, 1, 1, 0).unwrap();
        assert!(matches!(g.schedule(), Err(SdfError::Deadlock { .. })));
    }

    /// A consistent chain of `actors` actors whose edges produce one token
    /// and consume `consume`: actor 0 fires `consume^(actors - 1)` times
    /// per iteration.
    fn decimating_chain(actors: usize, consume: u64) -> SdfGraph {
        let mut g = SdfGraph::new();
        let ids: Vec<ActorId> = (0..actors)
            .map(|i| g.add_actor(format!("a{i}"), 1, 1))
            .collect();
        for pair in ids.windows(2) {
            g.add_edge(pair[0], pair[1], 1, consume, 0).unwrap();
        }
        g
    }

    #[test]
    fn iterations_past_the_firing_limit_are_errors_not_aborts() {
        // Seven actors at 1:1000 fire 1,001,001,001,001,001,001 times per
        // iteration: the schedule used to reserve that many entries and
        // abort the process on the failed allocation.
        let g = decimating_chain(7, 1000);
        assert_eq!(g.repetition_vector().unwrap()[0], 1_000_000_000_000_000_000);
        let expected = SdfError::TooManyFirings {
            firings: 1_001_001_001_001_001_001,
        };
        assert_eq!(g.schedule(), Err(expected.clone()));
        assert_eq!(g.buffer_bounds(), Err(expected.clone()));
        assert_eq!(g.analyze().map(|a| a.repetitions().to_vec()), Err(expected));
        // At the limit the schedule lists every firing; one past it is
        // rejected.
        let at_limit = decimating_chain(2, MAX_FIRINGS_PER_ITERATION - 1);
        assert_eq!(
            at_limit.schedule().unwrap().len() as u64,
            MAX_FIRINGS_PER_ITERATION
        );
        assert_eq!(
            decimating_chain(2, MAX_FIRINGS_PER_ITERATION).schedule(),
            Err(SdfError::TooManyFirings {
                firings: MAX_FIRINGS_PER_ITERATION + 1
            })
        );
        // A repetition vector whose every entry fits but whose sum does not.
        let mut wide = SdfGraph::new();
        let (a, b) = (wide.add_actor("a", 1, 1), wide.add_actor("b", 1, 1));
        wide.add_edge(a, b, u64::MAX - 1, u64::MAX, 0).unwrap();
        assert_eq!(
            wide.schedule(),
            Err(SdfError::Overflow {
                quantity: "firings per iteration"
            })
        );
        assert!(SdfError::TooManyFirings { firings: 7 }
            .to_string()
            .contains(&MAX_FIRINGS_PER_ITERATION.to_string()));
    }

    #[test]
    fn one_analysis_matches_the_separate_ones_and_their_errors() {
        let (g, mixer, integ, comb) = ddc_like();
        let analysis = g.analyze().unwrap();
        assert_eq!(analysis.repetitions(), g.repetition_vector().unwrap());
        assert_eq!(analysis.buffer_bounds(), g.buffer_bounds().unwrap());
        assert_eq!(
            analysis.tokens_per_iteration(),
            g.tokens_per_iteration().unwrap()
        );
        let mut m = Mapping::new();
        m.place(mixer, 2, 0.9)
            .place(integ, 0, 1.0)
            .place(comb, 99, 1.5);
        assert_eq!(
            m.requirements_from(&analysis, 250e3).unwrap(),
            m.requirements(&g, 250e3).unwrap()
        );

        // Each failing graph fails `analyze` as its first failing separate
        // analysis does: the balance equations first, then the schedule.
        let mut inconsistent = SdfGraph::new();
        let a = inconsistent.add_actor("a", 1, 1);
        let b = inconsistent.add_actor("b", 1, 1);
        inconsistent.add_edge(a, b, 1, 1, 0).unwrap();
        inconsistent.add_edge(b, a, 1, 1, 0).unwrap();
        let deadlocked = inconsistent.clone();
        inconsistent.add_edge(a, b, 2, 1, 0).unwrap();
        let mut overflowing = SdfGraph::new();
        let chain: Vec<ActorId> = (0..12)
            .map(|i| overflowing.add_actor(format!("a{i}"), 1, 1))
            .collect();
        for pair in chain.windows(2) {
            overflowing.add_edge(pair[0], pair[1], 1, 1000, 0).unwrap();
        }
        for graph in [SdfGraph::new(), inconsistent, deadlocked, overflowing] {
            let expected = graph.repetition_vector().and_then(|_| graph.schedule());
            assert_eq!(graph.analyze().unwrap_err(), expected.unwrap_err());
        }
    }

    #[test]
    fn cyclic_graph_with_initial_tokens_schedules() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        let b = g.add_actor("b", 1, 1);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g.add_edge(b, a, 1, 1, 1).unwrap();
        let order = g.schedule().unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn buffer_bounds_are_finite_and_cover_rate_changes() {
        let (g, ..) = ddc_like();
        let bounds = g.buffer_bounds().unwrap();
        assert_eq!(bounds.len(), 2);
        // The integrator→comb edge must buffer the 4 tokens one comb firing
        // consumes.
        assert_eq!(bounds[1], 4);
    }

    #[test]
    fn tokens_per_iteration_balance_both_directions() {
        let (g, ..) = ddc_like();
        let tokens = g.tokens_per_iteration().unwrap();
        let reps = g.repetition_vector().unwrap();
        assert_eq!(tokens, vec![4, 4]);
        for (t, e) in tokens.iter().zip(g.edges()) {
            assert_eq!(*t, reps[e.from.0] * e.produce);
            assert_eq!(*t, reps[e.to.0] * e.consume);
        }
    }

    #[test]
    fn zero_rates_and_unknown_actors_are_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        assert!(matches!(
            g.add_edge(a, ActorId(5), 1, 1, 0),
            Err(SdfError::UnknownActor { .. })
        ));
        let b = g.add_actor("b", 1, 1);
        assert!(matches!(
            g.add_edge(a, b, 0, 1, 0),
            Err(SdfError::ZeroRate { .. })
        ));
        assert!(matches!(
            g.add_edge(a, b, 1, 0, 0),
            Err(SdfError::ZeroRate { .. })
        ));
    }

    #[test]
    fn cycles_per_iteration_weights_by_repetitions() {
        let (g, ..) = ddc_like();
        // 4×10 + 4×16 + 1×8 = 112.
        assert_eq!(g.cycles_per_iteration().unwrap(), 112);
    }

    #[test]
    fn mapping_computes_frequency_requirements() {
        let (g, mixer, integ, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 8, 1.0);
        m.place(integ, 8, 1.0);
        m.place(comb, 2, 1.0);
        assert_eq!(m.total_tiles(), 18);
        // 16 M graph iterations/s (64 MS/s with 4 samples per iteration).
        let reqs = m.requirements(&g, 16e6).unwrap();
        // Mixer: 10 cycles × 4 firings / 8 tiles = 5 cycles per iteration
        // per tile → 80 MHz.
        assert!((reqs[0].frequency_mhz - 80.0).abs() < 1e-6);
        // Integrator: 16 × 4 / 8 = 8 → 128 MHz.
        assert!((reqs[1].frequency_mhz - 128.0).abs() < 1e-6);
        // Comb: 8 × 1 / 2 = 4 → 64 MHz.
        assert!((reqs[2].frequency_mhz - 64.0).abs() < 1e-6);
    }

    #[test]
    fn mapping_respects_parallelism_limits_and_efficiency() {
        let mut g = SdfGraph::new();
        let svd = g.add_actor("svd", 1000, 1);
        let mut m = Mapping::new();
        // Asking for 16 tiles on a serial actor must not reduce the
        // frequency requirement below the 1-tile value.
        m.place(svd, 16, 1.0);
        let reqs = m.requirements(&g, 1000.0).unwrap();
        assert!((reqs[0].frequency_mhz - 1.0).abs() < 1e-9);

        let mut m2 = Mapping::new();
        m2.place(svd, 1, 0.5);
        let reqs2 = m2.requirements(&g, 1000.0).unwrap();
        assert!(reqs2[0].frequency_mhz > reqs[0].frequency_mhz);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SdfError::Empty.to_string().contains("no actors"));
        assert!(SdfError::Inconsistent { edge: 3 }.to_string().contains('3'));
    }

    #[test]
    fn validate_accepts_wellformed_mappings() {
        let (g, mixer, integ, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 8, 1.0);
        m.place(integ, 8, 0.9);
        m.place(comb, 2, 1.0);
        assert!(m.validate(&g).is_empty());
    }

    #[test]
    fn place_defaults_to_chip_zero_and_chips_counts_the_span() {
        let (g, mixer, integ, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 8, 1.0);
        assert_eq!(m.placements()[0].chip, 0);
        assert_eq!(m.chips(), 1);
        m.place_on_chip(1, integ, 8, 0.9);
        m.place_on_chip(1, comb, 2, 1.0);
        assert_eq!(m.chips(), 2);
        assert!(m.validate(&g).is_empty());
        assert_eq!(Mapping::new().chips(), 1);
    }

    #[test]
    fn validate_on_board_reports_out_of_range_chips() {
        let (g, mixer, integ, _) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 8, 1.0);
        m.place_on_chip(3, integ, 8, 0.9);
        assert!(m.validate_on_board(&g, 4).is_empty());
        let violations = m.validate_on_board(&g, 2);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            MappingViolation::ChipOutOfRange { actor, chip: 3, chips: 2, .. } if actor == integ
        ));
    }

    #[test]
    fn validate_reports_zero_tile_and_over_parallel_placements() {
        let (g, mixer, _, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 0, 1.0);
        m.place(comb, 9, 1.0); // comb can use at most 4 tiles
        let violations = m.validate(&g);
        assert_eq!(violations.len(), 2);
        assert!(matches!(
            violations[0],
            MappingViolation::ZeroTiles { actor, .. } if actor == mixer
        ));
        assert!(matches!(
            violations[1],
            MappingViolation::OverParallel { actor, tiles: 9, max_parallel_tiles: 4, .. }
                if actor == comb
        ));
    }

    #[test]
    fn validate_reports_unknown_actors_and_bad_efficiency() {
        let (g, mixer, ..) = ddc_like();
        let mut m = Mapping::new();
        m.place(ActorId(17), 2, 1.0);
        m.place(mixer, 4, 0.0);
        m.place(mixer, 4, 1.5);
        let violations = m.validate(&g);
        assert_eq!(violations.len(), 3);
        assert!(matches!(
            violations[0],
            MappingViolation::UnknownActor {
                actor: ActorId(17),
                ..
            }
        ));
        assert!(matches!(
            violations[1],
            MappingViolation::EfficiencyOutOfRange { .. }
        ));
        assert!(matches!(
            violations[2],
            MappingViolation::EfficiencyOutOfRange { .. }
        ));
        for v in &violations {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn validate_display_pins_chip_column_and_tile_indices() {
        let (g, mixer, integ, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 0, 1.0);
        m.place_on_chip(1, integ, 8, 1.5);
        m.place_on_chip(1, comb, 9, 1.0);
        m.place_on_chip(3, ActorId(17), 2, 1.0);
        let texts: Vec<String> = m
            .validate_on_board(&g, 2)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            texts,
            vec![
                "actor 0 on chip 0 column 0 is placed on zero tiles".to_string(),
                "actor 1 on chip 1 column 0 has parallel efficiency 1.5 outside (0, 1]".to_string(),
                "actor 2 on chip 1 column 1 is placed on 9 tiles but can only use 4".to_string(),
                "placement on chip 3 column 0 references unknown actor 17".to_string(),
                "actor 17 (column 0) is placed on chip 3 but the board has 2 chip(s)".to_string(),
            ]
        );
    }

    #[test]
    fn seats_number_columns_per_chip_in_placement_order() {
        let (_, mixer, integ, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place_on_chip(1, mixer, 8, 1.0);
        m.place(integ, 8, 1.0);
        m.place_on_chip(1, comb, 2, 1.0);
        assert_eq!(m.seats(), vec![(1, 0), (0, 0), (1, 1)]);
        assert!(Mapping::new().seats().is_empty());
    }

    #[test]
    fn fault_spec_builders_and_queries_agree() {
        let mut f = FaultSpec::none();
        assert!(f.is_empty());
        f.fail_column(0, 2)
            .fail_tile(1, 0, 3)
            .fail_lane(0, 1)
            .degrade_lane(1, 0, 2)
            .degrade_lane(1, 0, 1)
            .degrade_lane(2, 0, 0)
            .lose_splits(0, 1)
            .lose_splits(0, 2);
        assert!(!f.is_empty());
        assert!(f.column_failed(0, 2));
        assert!(!f.column_failed(0, 1));
        assert!(f.tile_failed(1, 0, 3));
        assert!(!f.tile_failed(1, 0, 2));
        assert!(f.lane_failed(0, 1), "outright failure");
        assert!(f.lane_failed(2, 0), "degraded to zero width");
        assert!(!f.lane_failed(1, 0), "degraded but alive");
        assert_eq!(f.lane_width_limit(1, 0), Some(1), "tightest cap wins");
        assert_eq!(f.lane_width_limit(0, 2), None);
        assert_eq!(f.splits_lost(0), 3);
        assert_eq!(f.splits_lost(1), 0);
        assert_eq!(f.failed_columns(), &[(0, 2)]);
        assert_eq!(f.failed_lanes(), &[(0, 1)]);
    }

    #[test]
    fn validate_with_faults_reports_dead_columns_and_tiles() {
        let (g, mixer, integ, comb) = ddc_like();
        let mut m = Mapping::new();
        m.place(mixer, 8, 1.0);
        m.place(integ, 8, 1.0);
        m.place(comb, 2, 1.0);
        assert!(m.validate_with_faults(&g, &FaultSpec::none()).is_empty());

        let mut f = FaultSpec::none();
        f.fail_column(0, 1);
        // Tile 1 lies under the comb's 2-tile placement; tile 7 of the
        // mixer's column is beyond nothing (tile 7 < 8 tiles, so it hits).
        f.fail_tile(0, 2, 1).fail_tile(0, 0, 7);
        // A failure beyond the placement's width is harmless.
        f.fail_tile(0, 2, 3);
        let violations = m.validate_with_faults(&g, &f);
        assert_eq!(violations.len(), 3);
        assert!(matches!(
            violations[0],
            MappingViolation::FailedTile { actor, chip: 0, column: 0, tile: 7, tiles: 8 }
                if actor == mixer
        ));
        assert!(matches!(
            violations[1],
            MappingViolation::FailedColumn { actor, chip: 0, column: 1 } if actor == integ
        ));
        assert!(matches!(
            violations[2],
            MappingViolation::FailedTile { actor, chip: 0, column: 2, tile: 1, tiles: 2 }
                if actor == comb
        ));
        for v in &violations {
            assert!(v.is_fault());
        }
        assert_eq!(
            violations[1].to_string(),
            "actor 1 is placed on failed column 1 of chip 0"
        );
        assert_eq!(
            violations[2].to_string(),
            "actor 2 needs 2 tiles on chip 0 column 2 but tile 1 is failed"
        );
    }

    #[test]
    fn fault_classification_separates_fault_from_shape_violations() {
        let shape = [
            MappingViolation::UnknownActor {
                actor: ActorId(0),
                chip: 0,
                column: 0,
            },
            MappingViolation::ZeroTiles {
                actor: ActorId(0),
                chip: 0,
                column: 0,
            },
            MappingViolation::OverParallel {
                actor: ActorId(0),
                chip: 0,
                column: 0,
                tiles: 9,
                max_parallel_tiles: 4,
            },
            MappingViolation::EfficiencyOutOfRange {
                actor: ActorId(0),
                chip: 0,
                column: 0,
                efficiency: 0.0,
            },
            MappingViolation::ChipOutOfRange {
                actor: ActorId(0),
                column: 0,
                chip: 3,
                chips: 2,
            },
        ];
        for v in &shape {
            assert!(!v.is_fault(), "{v}");
        }
        let faulty = [
            MappingViolation::FailedColumn {
                actor: ActorId(0),
                chip: 0,
                column: 0,
            },
            MappingViolation::FailedTile {
                actor: ActorId(0),
                chip: 0,
                column: 0,
                tile: 0,
                tiles: 1,
            },
            MappingViolation::BusSplitsExhausted {
                chip: 0,
                splits: 1,
                lost: 1,
            },
            MappingViolation::BridgeDown {
                from_chip: 0,
                to_chip: 1,
            },
        ];
        for v in &faulty {
            assert!(v.is_fault(), "{v}");
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn requirements_still_clamp_raw_placements() {
        // Backwards compatibility: the lenient computation reshapes what
        // validate() reports, so legacy callers keep working.
        let (g, mixer, ..) = ddc_like();
        let mut zero = Mapping::new();
        zero.place(mixer, 0, 1.0);
        let mut one = Mapping::new();
        one.place(mixer, 1, 1.0);
        let rz = zero.requirements(&g, 1e6).unwrap();
        let ro = one.requirements(&g, 1e6).unwrap();
        assert!((rz[0].frequency_mhz - ro[0].frequency_mhz).abs() < 1e-9);
        assert!(rz[0].frequency_mhz.is_finite());
    }
}
