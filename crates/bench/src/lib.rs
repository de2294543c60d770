//! Experiment harness for the Synchroscalar reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section and prints it in the same row/series structure:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — technology parameters |
//! | `table2` | Table 2 — tile / SIMD+DOU area breakdown |
//! | `table3` | Table 3 — power comparison with other platforms |
//! | `table4` | Table 4 — per-algorithm mapping and power |
//! | `fig5`   | Figure 5 — voltage/frequency curves |
//! | `fig6`   | Figure 6 — power with vs without voltage scaling |
//! | `fig7`   | Figure 7 — power vs parallelisation |
//! | `fig8`   | Figure 8 — Viterbi ACS power/area vs bus width |
//! | `fig9`   | Figure 9 — leakage sensitivity (DDC, 802.11a) |
//! | `fig10`  | Figure 10 — leakage sensitivity (MPEG-4, SV) |
//! | `sensitivity` | Section 5.5 — tile-power sensitivity |
//! | `explorer` | Automatic mapping of the suite + explorer time to answer (`BENCH_explorer.json`) |
//! | `sim` | Fast-tier vs interpreter wall-clock on million-frame traces (`BENCH_sim.json`) |
//!
//! The Criterion benches in `benches/` measure the substrate itself (kernel
//! and simulator throughput).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use synchroscalar::sdf::SdfGraph;

/// The synthetic deep pipeline the explorer perf record and the search-core
/// criterion benches share: varied per-stage costs and parallelism caps so
/// no two stages are interchangeable and the grouping × allocation space
/// has no symmetric shortcuts.  The committed `BENCH_explorer.json` numbers
/// are pinned to this exact workload.
pub fn synthetic_pipeline(stages: usize) -> SdfGraph {
    let mut graph = SdfGraph::new();
    let mut prev = None;
    for i in 0..stages {
        let cycles = 40 + 97 * (i as u64 % 5) + 13 * i as u64;
        let cap = [4u32, 8, 16, 32][i % 4];
        let actor = graph.add_actor(format!("stage{i}"), cycles, cap);
        if let Some(p) = prev {
            graph.add_edge(p, actor, 1, 1, 0).expect("valid edge");
        }
        prev = Some(actor);
    }
    graph
}

/// Format a floating point value with a fixed width for table output.
pub fn fmt_f(value: f64, width: usize, decimals: usize) -> String {
    format!("{value:>width$.decimals$}")
}

/// Print a separator line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers_behave() {
        assert_eq!(fmt_f(3.75159, 8, 2), "    3.75");
        rule(3);
    }
}
