//! The search space: candidate tile counts per column group, contiguous
//! actor→column groupings, and SDF clustering (fusing a group of actors
//! into one composite actor so a grouped solution remains a plain
//! `SdfGraph` + `Mapping` that the downstream compiler understands).

use synchro_sdf::{ActorId, Mapping, SdfError, SdfGraph};

/// Which tile counts the explorer considers for a column group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileCandidates {
    /// Powers of two up to (and including) the group's parallelism cap —
    /// the SIMD work-splitting discipline every hand mapping in the paper
    /// follows (all Table 4 tile counts are powers of two).
    #[default]
    PowersOfTwo,
    /// Every tile count from 1 to the parallelism cap.  A larger space
    /// that admits unbalanced splits; the search cost grows linearly with
    /// the options per group.
    All,
}

impl TileCandidates {
    /// The tile counts to try for a group with parallelism cap `cap`
    /// under a total budget of `budget` tiles, in ascending order.
    pub fn for_group(self, cap: u32, budget: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_group_into(cap, budget, &mut out);
        out
    }

    /// Like [`TileCandidates::for_group`], but yields into a reusable
    /// scratch buffer (cleared first) so the interval-table build does
    /// not allocate one `Vec` per interval.
    pub fn for_group_into(self, cap: u32, budget: u32, out: &mut Vec<u32>) {
        out.clear();
        let limit = cap.min(budget).max(1);
        match self {
            TileCandidates::All => out.extend(1..=limit),
            TileCandidates::PowersOfTwo => {
                let mut t = 1u32;
                while t <= limit {
                    out.push(t);
                    t = t.saturating_mul(2);
                }
                if !limit.is_power_of_two() {
                    out.push(limit);
                }
            }
        }
    }
}

/// A contiguous actor→column grouping: ranges `start..end` covering
/// `0..n` without gaps.
pub(crate) type Grouping = Vec<(usize, usize)>;

/// Decode a partition bitmask into group ranges.  Bit `k` set means a
/// column boundary after actor `k`.  Only the exhaustive test oracle
/// enumerates groupings this way.
#[cfg(test)]
pub(crate) fn grouping_from_mask(n: usize, mask: u64) -> Grouping {
    let mut groups = Vec::new();
    let mut start = 0usize;
    for k in 0..n {
        let boundary = k + 1 == n || mask & (1u64 << k) != 0;
        if boundary {
            groups.push((start, k + 1));
            start = k + 1;
        }
    }
    groups
}

/// Does every group of the mask hold at most `max_group_size` actors?
#[cfg(test)]
pub(crate) fn mask_respects_group_size(n: usize, mask: u64, max_group_size: usize) -> bool {
    let mut run = 0usize;
    for k in 0..n {
        run += 1;
        if run > max_group_size {
            return false;
        }
        let boundary = k + 1 == n || mask & (1u64 << k) != 0;
        if boundary {
            run = 0;
        }
    }
    true
}

/// Fuse each group of a contiguous grouping into one composite actor,
/// producing the clustered graph a grouped solution executes as.
///
/// Each composite actor fires once per graph iteration and carries the
/// group's total cycles per iteration; cross-group edges are re-rated to
/// whole-iteration token batches (initial tokens preserved), and
/// intra-group edges disappear into tile-local memory.  The composite
/// parallelism cap is the smallest member cap, since one SIMD column
/// time-multiplexes every member across the same tiles.
///
/// # Errors
///
/// Propagates rate-consistency errors from the source graph.
pub fn cluster(graph: &SdfGraph, groups: &[(usize, usize)]) -> Result<SdfGraph, SdfError> {
    let reps = graph.repetition_vector()?;
    let mut group_of = vec![usize::MAX; graph.actors().len()];
    for (gi, &(start, end)) in groups.iter().enumerate() {
        for slot in group_of.iter_mut().take(end).skip(start) {
            *slot = gi;
        }
    }
    let mut clustered = SdfGraph::new();
    let ids: Vec<ActorId> = groups
        .iter()
        .map(|&(start, end)| {
            let members = &graph.actors()[start..end];
            let name = members
                .iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>()
                .join("+");
            let cycles: u64 = members
                .iter()
                .zip(&reps[start..end])
                .map(|(a, &r)| a.cycles_per_firing * r)
                .sum();
            let cap = members
                .iter()
                .map(|a| a.max_parallel_tiles)
                .min()
                .unwrap_or(1);
            clustered.add_actor(name, cycles.max(1), cap)
        })
        .collect();
    for edge in graph.edges() {
        let from = group_of[edge.from.0];
        let to = group_of[edge.to.0];
        if from != to {
            let tokens = reps[edge.from.0] * edge.produce;
            clustered.add_edge(ids[from], ids[to], tokens, tokens, edge.initial_tokens)?;
        }
    }
    Ok(clustered)
}

/// Build the `Mapping` that places each group of `groups` (over `graph`,
/// in order) on the corresponding tile count of `allocation`.  For the
/// all-singleton grouping the mapping targets the original graph; for
/// fused groups it targets [`cluster`]'s output.
pub(crate) fn mapping_for(
    groups: &[(usize, usize)],
    allocation: &[u32],
    efficiency: f64,
    singleton: bool,
) -> Mapping {
    let mut mapping = Mapping::new();
    for (gi, (&(start, _end), &tiles)) in groups.iter().zip(allocation).enumerate() {
        let actor = if singleton {
            ActorId(start)
        } else {
            ActorId(gi)
        };
        mapping.place(actor, tiles, efficiency);
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_two_candidates_respect_cap_and_budget() {
        assert_eq!(
            TileCandidates::PowersOfTwo.for_group(16, 64),
            vec![1, 2, 4, 8, 16]
        );
        assert_eq!(
            TileCandidates::PowersOfTwo.for_group(16, 6),
            vec![1, 2, 4, 6]
        );
        assert_eq!(
            TileCandidates::PowersOfTwo.for_group(12, 64),
            vec![1, 2, 4, 8, 12]
        );
        assert_eq!(TileCandidates::All.for_group(3, 64), vec![1, 2, 3]);
        assert_eq!(TileCandidates::PowersOfTwo.for_group(0, 4), vec![1]);
    }

    #[test]
    fn masks_decode_to_contiguous_groupings() {
        assert_eq!(grouping_from_mask(3, 0b11), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(grouping_from_mask(3, 0b00), vec![(0, 3)]);
        assert_eq!(grouping_from_mask(3, 0b10), vec![(0, 2), (2, 3)]);
        assert!(mask_respects_group_size(3, 0b10, 2));
        assert!(!mask_respects_group_size(3, 0b10, 1));
        assert!(mask_respects_group_size(3, 0b11, 1));
    }

    #[test]
    fn clustering_fuses_work_and_rescales_edges() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 15, 16);
        let b = g.add_actor("b", 25, 16);
        let c = g.add_actor("c", 5, 4);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g.add_edge(b, c, 1, 4, 0).unwrap();
        // reps = (4, 4, 1); fuse a+b.
        let clustered = cluster(&g, &[(0, 2), (2, 3)]).unwrap();
        assert_eq!(clustered.actors().len(), 2);
        assert_eq!(clustered.actors()[0].name, "a+b");
        assert_eq!(clustered.actors()[0].cycles_per_firing, 4 * 15 + 4 * 25);
        assert_eq!(clustered.actors()[0].max_parallel_tiles, 16);
        assert_eq!(clustered.edges().len(), 1, "internal edge disappears");
        assert_eq!(clustered.edges()[0].produce, 4);
        assert_eq!(clustered.edges()[0].consume, 4);
        assert_eq!(clustered.repetition_vector().unwrap(), vec![1, 1]);
        assert!(clustered.schedule().is_ok());
    }

    #[test]
    fn clustering_preserves_total_work_per_iteration() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 3, 4);
        let b = g.add_actor("b", 7, 8);
        let c = g.add_actor("c", 11, 2);
        g.add_edge(a, b, 2, 3, 0).unwrap();
        g.add_edge(b, c, 5, 4, 0).unwrap();
        let original = g.cycles_per_iteration().unwrap();
        for groups in [
            vec![(0usize, 1usize), (1, 2), (2, 3)],
            vec![(0, 2), (2, 3)],
            vec![(0, 1), (1, 3)],
            vec![(0, 3)],
        ] {
            let clustered = cluster(&g, &groups).unwrap();
            assert_eq!(clustered.cycles_per_iteration().unwrap(), original);
        }
    }
}
