//! Seeded input generation: the synthetic chains of `map_suite`, the
//! per-design trace lengths of `long_trace` and the kill points of
//! `fault_recovery` all come from one [`Rng`] seeded by `--seed`.
//!
//! Generated chains are bounded by construction and by a static filter,
//! so every chain the benchmark keeps is one the pipeline maps: at most
//! three 2:1 decimating edges keep repetition entries at or below 8, and
//! candidates whose per-tile frequency, bus traffic or minimum tile count
//! would not fit are discarded and counted before any program code runs.
//! The hyperperiod bound comes from the validation run's compute cap
//! (see `workloads::MAP_COMPUTE_CAP`), which holds for whatever grouping
//! the explorer fuses; fused stage costs are sums, so no cost set alone
//! keeps their lcm small.

use synchroscalar::sdf::SdfGraph;

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Per-firing stage costs, as in `deep_pipeline`.
pub const STAGE_COSTS: [u64; 4] = [29, 45, 61, 77];
/// Parallelism caps, rotated through the stages as in the explorer's
/// synthetic pipeline.
pub const STAGE_CAPS: [u32; 4] = [4, 8, 16, 32];
/// Iteration rates a chain may target.
pub const CHAIN_RATES_HZ: [f64; 3] = [2e6, 3e6, 4e6];
/// Tile budget of every chain (one 64-tile chip).
pub const CHAIN_BUDGET: u32 = 64;
/// Most decimating edges per chain (repetition entries stay at most 8).
pub const MAX_DECIMATIONS: usize = 3;

/// Static-filter limits: a per-tile frequency well inside the supply
/// envelope, and the reference 400 MHz single-split bus.
const MAX_TILE_MHZ: f64 = 400.0;
const BUS_HZ: f64 = 400e6;

/// One generated chain: stage costs and caps, which edges decimate 2:1,
/// and the rate it must sustain within [`CHAIN_BUDGET`] tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    pub costs: Vec<u64>,
    pub caps: Vec<u32>,
    /// `decimate[i]`: edge `i → i + 1` consumes two tokens per firing.
    pub decimate: Vec<bool>,
    pub rate_hz: f64,
}

impl ChainSpec {
    pub fn stages(&self) -> usize {
        self.costs.len()
    }

    /// Repetition vector: the last stage fires once per iteration and
    /// every decimating edge doubles its producer's firings.
    pub fn repetitions(&self) -> Vec<u64> {
        let mut reps = vec![1u64; self.stages()];
        for i in (0..self.stages().saturating_sub(1)).rev() {
            reps[i] = reps[i + 1] * if self.decimate[i] { 2 } else { 1 };
        }
        reps
    }

    /// Why the static filter rejects this chain, if it does.
    pub fn rejection(&self) -> Option<&'static str> {
        let reps = self.repetitions();
        let mut min_tiles = 0u64;
        for ((&cost, &cap), &rep) in self.costs.iter().zip(&self.caps).zip(&reps) {
            let mhz_tiles = (cost * rep) as f64 * self.rate_hz / 1e6;
            let tiles = (mhz_tiles / MAX_TILE_MHZ).ceil() as u64;
            if tiles > u64::from(cap) {
                return Some("stage exceeds its parallelism cap");
            }
            min_tiles += tiles.max(1);
        }
        if min_tiles > u64::from(CHAIN_BUDGET) {
            return Some("minimum tiles exceed the budget");
        }
        let words: u64 = reps[..reps.len() - 1].iter().sum();
        if words as f64 > (BUS_HZ / self.rate_hz).floor() {
            return Some("traffic exceeds the bus frame");
        }
        None
    }

    pub fn graph(&self) -> SdfGraph {
        let mut graph = SdfGraph::new();
        let mut previous = None;
        for (i, (&cost, &cap)) in self.costs.iter().zip(&self.caps).enumerate() {
            let actor = graph.add_actor(format!("s{i:02}"), cost, cap);
            if let Some(prev) = previous {
                let consume = if self.decimate[i - 1] { 2 } else { 1 };
                graph
                    .add_edge(prev, actor, 1, consume, 0)
                    .expect("chain edges are valid");
            }
            previous = Some(actor);
        }
        graph
    }

    /// Stable text form, fed to the input digest.
    pub fn describe(&self) -> String {
        let decimations: Vec<usize> = (0..self.decimate.len())
            .filter(|&i| self.decimate[i])
            .collect();
        format!(
            "chain costs={:?} caps={:?} decimate={:?} rate={}",
            self.costs, self.caps, decimations, self.rate_hz
        )
    }
}

/// Draw one candidate chain of `stages` stages.  The seed picks the order
/// of the stage costs, the cap rotation and where each decimating edge
/// lands within its stratum.  The multiset of costs (each of
/// [`STAGE_COSTS`] in turn), the rate and the number of decimating edges
/// follow from the stage count, so a chain's total work, and with it
/// every end-to-end figure, moves little from seed to seed.
fn draw_chain(rng: &mut Rng, stages: usize) -> ChainSpec {
    let offset = rng.below(STAGE_CAPS.len() as u64) as usize;
    let mut costs: Vec<u64> = (0..stages)
        .map(|i| STAGE_COSTS[i % STAGE_COSTS.len()])
        .collect();
    rng.shuffle(&mut costs);
    let caps = (0..stages)
        .map(|i| STAGE_CAPS[(i + offset) % STAGE_CAPS.len()])
        .collect();
    let edges = stages - 1;
    let decimations = stages % (MAX_DECIMATIONS + 1);
    let mut decimate = vec![false; edges];
    for k in 1..=decimations {
        let centre = k * edges / (decimations + 1);
        let jitter = rng.below(3) as usize;
        decimate[(centre + jitter).saturating_sub(1).min(edges - 1)] = true;
    }
    let rate_hz = CHAIN_RATES_HZ[stages % CHAIN_RATES_HZ.len()];
    ChainSpec {
        costs,
        caps,
        decimate,
        rate_hz,
    }
}

/// Generated chains plus how many candidates the static filter dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Chains {
    pub chains: Vec<ChainSpec>,
    pub discarded: usize,
}

/// One kept chain per entry of `stage_counts`, in that order.
pub fn chains(rng: &mut Rng, stage_counts: &[usize]) -> Chains {
    let mut chains = Vec::with_capacity(stage_counts.len());
    let mut discarded = 0;
    for &stages in stage_counts {
        loop {
            let chain = draw_chain(rng, stages);
            if chain.rejection().is_none() {
                chains.push(chain);
                break;
            }
            discarded += 1;
        }
    }
    Chains { chains, discarded }
}

/// FNV-1a over the canonical text of every generated input.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTS: [usize; 5] = [6, 10, 16, 20, 24];

    #[test]
    fn generator_is_deterministic_per_seed() {
        assert_eq!(
            chains(&mut Rng::new(7), &COUNTS),
            chains(&mut Rng::new(7), &COUNTS)
        );
    }

    #[test]
    fn generator_differs_across_seeds() {
        assert_ne!(
            chains(&mut Rng::new(1), &COUNTS),
            chains(&mut Rng::new(2), &COUNTS)
        );
    }

    #[test]
    fn kept_chains_pass_the_filter_and_stay_bounded() {
        for seed in 0..50 {
            let generated = chains(&mut Rng::new(seed), &COUNTS);
            for (chain, &stages) in generated.chains.iter().zip(&COUNTS) {
                assert_eq!(chain.stages(), stages);
                assert_eq!(chain.rejection(), None);
                assert!(chain.repetitions().iter().all(|&r| r <= 8));
                assert_eq!(
                    chain.graph().repetition_vector().unwrap(),
                    chain.repetitions()
                );
            }
        }
    }

    #[test]
    fn filter_rejects_a_chain_over_its_cap() {
        let chain = ChainSpec {
            costs: vec![77, 77],
            caps: vec![4, 4],
            decimate: vec![true],
            rate_hz: 16e6,
        };
        assert_eq!(chain.rejection(), Some("stage exceeds its parallelism cap"));
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Digest::new();
        a.add("chain");
        let mut b = Digest::new();
        b.add("chaim");
        assert_ne!(a.hex(), b.hex());
    }
}
