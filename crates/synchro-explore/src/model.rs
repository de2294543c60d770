//! The explorer's analytic cost model: graph-derived work and traffic per
//! candidate column group, and the frequency → voltage → power evaluation
//! of one group at one tile count.
//!
//! The model mirrors the paper's methodology steps 6–9 exactly as the
//! hand-built pipeline applies them: the repetition vector fixes each
//! group's cycles per graph iteration, the tile count divides that work
//! into a per-tile frequency, the Figure 5 VF curve picks the minimum
//! quantised supply able to sustain it, and the `synchro-power` models
//! roll dynamic tile power, column-bus interconnect power and leakage
//! into a per-column total.

use synchro_power::{
    ColumnActivity, ColumnPower, InterconnectModel, LeakageModel, PowerModelError, Technology,
    TilePowerModel, VfCurve,
};
use synchro_sdf::{SdfError, SdfGraph};

use crate::ExplorerError;

/// Static per-graph analysis shared by every candidate evaluation: the
/// repetition vector, per-actor work, parallelism caps, and per-edge
/// token traffic.
#[derive(Debug, Clone)]
pub(crate) struct GraphContext {
    /// Actors in the graph.
    pub n: usize,
    /// Prefix sums of per-actor work (cycles per graph iteration), so any
    /// contiguous group's work is one subtraction.
    work_prefix: Vec<u64>,
    /// Per-actor parallelism caps.
    caps: Vec<u32>,
    /// Edge endpoints (actor indices).
    edges: Vec<(usize, usize)>,
    /// Tokens crossing each edge per graph iteration.
    tokens: Vec<u64>,
}

impl GraphContext {
    /// Analyse `graph`; fails on inconsistent or deadlocking graphs (the
    /// schedule check guarantees any mapping the explorer returns is
    /// actually executable).
    pub fn new(graph: &SdfGraph) -> Result<Self, SdfError> {
        let reps = graph.repetition_vector()?;
        graph.schedule()?;
        let tokens = graph.tokens_per_iteration()?;
        let mut work_prefix = Vec::with_capacity(graph.actors().len() + 1);
        work_prefix.push(0u64);
        for (actor, &rep) in graph.actors().iter().zip(&reps) {
            let w = actor.cycles_per_firing.saturating_mul(rep);
            work_prefix.push(work_prefix.last().unwrap().saturating_add(w));
        }
        Ok(GraphContext {
            n: graph.actors().len(),
            work_prefix,
            caps: graph
                .actors()
                .iter()
                .map(|a| a.max_parallel_tiles)
                .collect(),
            edges: graph.edges().iter().map(|e| (e.from.0, e.to.0)).collect(),
            tokens,
        })
    }

    /// Cycles per graph iteration of the contiguous actor group
    /// `start..end`.
    pub fn group_work(&self, start: usize, end: usize) -> u64 {
        self.work_prefix[end] - self.work_prefix[start]
    }

    /// The parallelism cap of a group: the smallest member cap, since a
    /// fused SIMD column time-multiplexes every member across the same
    /// tiles.
    pub fn group_cap(&self, start: usize, end: usize) -> u32 {
        self.caps[start..end].iter().copied().min().unwrap_or(1)
    }

    /// Tokens per graph iteration crossing the group's boundary (edges
    /// with exactly one endpoint inside `start..end`) — the traffic the
    /// group's column bus must stage and distribute.
    pub fn boundary_tokens(&self, start: usize, end: usize) -> u64 {
        let inside = |a: usize| a >= start && a < end;
        self.edges
            .iter()
            .zip(&self.tokens)
            .filter(|((from, to), _)| inside(*from) != inside(*to))
            .map(|(_, &t)| t)
            .sum()
    }

    /// Words per graph iteration between two actors of `start..end`
    /// (saturating): what a chip hosting the range, one actor per
    /// column, carries on its bus.
    pub fn internal_words(&self, start: usize, end: usize) -> u64 {
        let inside = |a: usize| a >= start && a < end;
        self.edges
            .iter()
            .zip(&self.tokens)
            .filter(|((from, to), _)| from != to && inside(*from) && inside(*to))
            .fold(0, |words, (_, &t)| words.saturating_add(t))
    }

    /// Total words per graph iteration crossing *any* column boundary of
    /// a complete contiguous grouping — the demand the horizontal bus's
    /// TDM frame must absorb.  `groups` must tile `0..n` in order, so
    /// membership is a binary search over group starts.
    pub fn grouping_cross_words(&self, groups: &[(usize, usize)]) -> u64 {
        let group_of = |actor: usize| groups.partition_point(|&(start, _)| start <= actor) - 1;
        self.edges
            .iter()
            .zip(&self.tokens)
            .filter(|((from, to), _)| group_of(*from) != group_of(*to))
            .map(|(_, &t)| t)
            .sum()
    }

    /// The cross-word contribution a contiguous grouping *gains* when the
    /// group `start..end` is appended: the tokens of every edge whose
    /// lower endpoint lands in the group while its upper endpoint lies
    /// beyond it.  Each crossing edge of a complete grouping is counted
    /// exactly once — at the group containing its lower endpoint — so
    /// summing this over a grouping's groups equals
    /// [`GraphContext::grouping_cross_words`].  The search tracks
    /// cross words per partial with it (the increment depends only on the
    /// new group, never on how the prefix was grouped).
    pub fn group_cross_out(&self, start: usize, end: usize) -> u64 {
        self.edges
            .iter()
            .zip(&self.tokens)
            .filter(|((from, to), _)| {
                let lo = (*from).min(*to);
                let hi = (*from).max(*to);
                lo >= start && lo < end && hi >= end
            })
            .map(|(_, &t)| t)
            .sum()
    }
}

/// The operating point and power of one candidate column group at one
/// tile count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnEval {
    /// Tiles assigned to the group.
    pub tiles: u32,
    /// Required per-tile frequency (MHz).
    pub frequency_mhz: f64,
    /// Minimum quantised supply voltage for that frequency (extrapolated
    /// beyond the envelope when the frequency is unreachable).
    pub voltage: f64,
    /// Whether the operating point fits the technology's supply envelope.
    pub within_envelope: bool,
    /// Power breakdown at the operating point.
    pub power: ColumnPower,
}

/// Evaluates candidate column groups under one technology and iteration
/// rate.
#[derive(Debug, Clone)]
pub(crate) struct Evaluator {
    tech: Technology,
    curve: VfCurve,
    tile_model: TilePowerModel,
    bus_model: InterconnectModel,
    leakage_model: LeakageModel,
    rate_hz: f64,
    efficiency: f64,
}

/// Reject an iteration rate that is not finite and positive, a NaN
/// parallel efficiency, or a technology [`Technology::validate`]
/// rejects: any of them would price columns as NaN or negative power.
/// Efficiency is otherwise clamped to `[0.01, 1]`.
pub(crate) fn check_inputs(
    tech: &Technology,
    rate_hz: f64,
    efficiency: f64,
) -> Result<(), ExplorerError> {
    if !(rate_hz.is_finite() && rate_hz > 0.0) {
        return Err(ExplorerError::InvalidConfig {
            field: "iteration_rate_hz",
            value: rate_hz,
        });
    }
    if efficiency.is_nan() {
        return Err(ExplorerError::InvalidConfig {
            field: "efficiency",
            value: efficiency,
        });
    }
    if let Err(PowerModelError::InvalidParameter { name, value }) = tech.validate() {
        return Err(ExplorerError::InvalidConfig { field: name, value });
    }
    Ok(())
}

impl Evaluator {
    /// # Errors
    ///
    /// [`ExplorerError::InvalidConfig`] as [`check_inputs`] decides.
    pub fn new(tech: &Technology, rate_hz: f64, efficiency: f64) -> Result<Self, ExplorerError> {
        check_inputs(tech, rate_hz, efficiency)?;
        Ok(Evaluator {
            curve: VfCurve::fo4_20(tech),
            tile_model: TilePowerModel::new(tech),
            bus_model: InterconnectModel::new(tech),
            leakage_model: LeakageModel::new(tech),
            tech: tech.clone(),
            rate_hz,
            efficiency: efficiency.clamp(0.01, 1.0),
        })
    }

    /// Evaluate a group with `work` cycles per iteration, parallelism cap
    /// `cap` and `boundary_tokens` words of boundary traffic per
    /// iteration, placed on `tiles` tiles.
    ///
    /// Tiles beyond the cap sit idle: they stop reducing the frequency
    /// and stop receiving token distributions, but keep leaking — exactly
    /// the diminishing-returns shape of the paper's Figure 7.  Boundary
    /// tokens are staged across the group's active tiles, so bus traffic
    /// grows with the parallel width (the communication overhead the
    /// paper identifies).
    pub fn evaluate_column(
        &self,
        work: u64,
        cap: u32,
        boundary_tokens: u64,
        tiles: u32,
    ) -> ColumnEval {
        let active = tiles.clamp(1, cap);
        let effective = f64::from(active) * self.efficiency;
        let frequency_mhz = work as f64 * self.rate_hz / effective / 1e6;
        let (voltage, within_envelope) =
            self.curve.voltage_for_frequency_extrapolated(frequency_mhz);
        self.finish_eval(
            cap,
            boundary_tokens,
            tiles,
            frequency_mhz,
            voltage,
            within_envelope,
        )
    }

    /// Re-price an already-evaluated group at an externally imposed
    /// supply voltage (the single-voltage policy: every column runs at
    /// the chip-wide maximum required voltage).  The frequency
    /// requirement is unchanged; only the power scales with the higher
    /// supply.  `within_envelope` keeps the group's own reachability
    /// verdict — a shared voltage can only be at least the group's
    /// minimum, which `voltage.max(..)` also enforces.
    pub fn reprice_at_voltage(
        &self,
        base: &ColumnEval,
        cap: u32,
        boundary_tokens: u64,
        voltage: f64,
    ) -> ColumnEval {
        self.finish_eval(
            cap,
            boundary_tokens,
            base.tiles,
            base.frequency_mhz,
            voltage.max(base.voltage),
            base.within_envelope,
        )
    }

    fn finish_eval(
        &self,
        cap: u32,
        boundary_tokens: u64,
        tiles: u32,
        frequency_mhz: f64,
        voltage: f64,
        within_envelope: bool,
    ) -> ColumnEval {
        let active = tiles.clamp(1, cap);
        let bus_words_per_second = boundary_tokens as f64 * self.rate_hz * f64::from(active);
        let activity = ColumnActivity {
            tiles,
            frequency_mhz,
            voltage,
            bus_words_per_second,
            bus_length_mm: self.tech.column_bus_length_mm,
        };
        let power = ColumnPower::estimate_with(
            &self.tile_model,
            &self.bus_model,
            &self.leakage_model,
            &self.tech,
            &activity,
        );
        ColumnEval {
            tiles,
            frequency_mhz,
            voltage,
            within_envelope,
            power,
        }
    }

    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchro_sdf::SdfGraph;

    fn ddc_like() -> SdfGraph {
        let mut g = SdfGraph::new();
        let mixer = g.add_actor("mixer", 15, 16);
        let integ = g.add_actor("integ", 25, 16);
        let comb = g.add_actor("comb", 5, 4);
        g.add_edge(mixer, integ, 1, 1, 0).unwrap();
        g.add_edge(integ, comb, 1, 4, 0).unwrap();
        g
    }

    #[test]
    fn context_work_and_caps_follow_the_repetition_vector() {
        let ctx = GraphContext::new(&ddc_like()).unwrap();
        // reps = (4, 4, 1) → work = (60, 100, 5).
        assert_eq!(ctx.group_work(0, 1), 60);
        assert_eq!(ctx.group_work(1, 2), 100);
        assert_eq!(ctx.group_work(0, 3), 165);
        assert_eq!(ctx.group_cap(0, 2), 16);
        assert_eq!(ctx.group_cap(0, 3), 4);
    }

    #[test]
    fn boundary_tokens_exclude_internal_edges() {
        let ctx = GraphContext::new(&ddc_like()).unwrap();
        // Both edges carry 4 tokens per iteration.
        assert_eq!(ctx.boundary_tokens(0, 1), 4);
        assert_eq!(ctx.boundary_tokens(1, 2), 8);
        assert_eq!(ctx.boundary_tokens(0, 2), 4, "mixer→integ is internal");
        assert_eq!(ctx.boundary_tokens(0, 3), 0, "whole graph has no boundary");
    }

    #[test]
    fn column_eval_reproduces_a_table4_operating_point() {
        // DDC digital mixer: 60 cycles/iter × 16 MHz / 8 tiles = 120 MHz
        // at 0.8 V.
        let eval = Evaluator::new(&Technology::isca2004(), 16e6, 1.0).unwrap();
        let col = eval.evaluate_column(60, 16, 4, 8);
        assert!((col.frequency_mhz - 120.0).abs() < 1e-9);
        assert!((col.voltage - 0.8).abs() < 1e-9);
        assert!(col.within_envelope);
        assert!(col.power.total_mw() > 0.0);
    }

    #[test]
    fn idle_tiles_beyond_the_cap_leak_but_do_not_speed_up() {
        let eval = Evaluator::new(&Technology::isca2004(), 1e6, 1.0).unwrap();
        let at_cap = eval.evaluate_column(4000, 4, 10, 4);
        let beyond = eval.evaluate_column(4000, 4, 10, 8);
        assert!((at_cap.frequency_mhz - beyond.frequency_mhz).abs() < 1e-9);
        assert!(beyond.power.leakage_mw > at_cap.power.leakage_mw);
        assert!(beyond.power.total_mw() > at_cap.power.total_mw());
    }

    #[test]
    fn unreachable_frequencies_are_flagged_infeasible() {
        let eval = Evaluator::new(&Technology::isca2004(), 1e6, 1.0).unwrap();
        let col = eval.evaluate_column(5_000, 1, 0, 1);
        assert!(!col.within_envelope);
        assert!(col.voltage > 1.7);
    }

    #[test]
    fn group_cross_out_deltas_sum_to_grouping_cross_words() {
        let ctx = GraphContext::new(&ddc_like()).unwrap();
        for groups in [
            vec![(0usize, 1usize), (1, 2), (2, 3)],
            vec![(0, 1), (1, 3)],
            vec![(0, 2), (2, 3)],
            vec![(0, 3)],
        ] {
            let total: u64 = groups
                .iter()
                .map(|&(start, end)| ctx.group_cross_out(start, end))
                .sum();
            assert_eq!(
                total,
                ctx.grouping_cross_words(&groups),
                "delta sum must equal the whole-grouping cross words for {groups:?}"
            );
        }
    }
}
