//! Query results and execution statistics.

use probesim_graph::NodeId;

/// Counters collected while answering one query; the ablation benchmarks
/// and EXPERIMENTS.md report these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// √c-walks sampled.
    pub walks: usize,
    /// Walks that hit the truncation cap `ℓt` (pruning rule 1).
    pub truncated_walks: usize,
    /// Total walk nodes generated.
    pub walk_nodes: usize,
    /// PROBE invocations (deterministic + randomized + hybrid).
    pub probes: usize,
    /// Randomized PROBE runs (including hybrid continuations).
    pub randomized_probes: usize,
    /// Deterministic→randomized switches taken by hybrid probes.
    pub hybrid_switches: usize,
    /// Out-edges traversed by deterministic expansions.
    pub edges_expanded: usize,
    /// Candidate nodes sampled by randomized expansions.
    pub nodes_sampled: usize,
    /// Distinct prefixes probed via the batch trie (0 when unbatched).
    pub trie_prefixes: usize,
    /// Frontier entries deduplicated by the fused probe engine: each one
    /// is a `(node, trie position)` contribution the legacy per-prefix
    /// path would have expanded separately (0 off the fused path).
    pub frontier_merges: usize,
    /// Level-synchronous sweeps executed by the fused probe engine
    /// (0 off the fused path).
    pub levels_expanded: usize,
}

impl QueryStats {
    /// Counter names, in declaration order — the schema of
    /// [`QueryStats::field_values`] and the key order serializers emit.
    pub const FIELD_NAMES: [&'static str; 11] = [
        "walks",
        "truncated_walks",
        "walk_nodes",
        "probes",
        "randomized_probes",
        "hybrid_switches",
        "edges_expanded",
        "nodes_sampled",
        "trie_prefixes",
        "frontier_merges",
        "levels_expanded",
    ];

    /// Counter values in [`QueryStats::FIELD_NAMES`] order.
    pub fn field_values(&self) -> [usize; 11] {
        // Exhaustive destructuring: adding a counter to the struct without
        // extending this snapshot is a compile error, not a silent gap.
        let QueryStats {
            walks,
            truncated_walks,
            walk_nodes,
            probes,
            randomized_probes,
            hybrid_switches,
            edges_expanded,
            nodes_sampled,
            trie_prefixes,
            frontier_merges,
            levels_expanded,
        } = *self;
        [
            walks,
            truncated_walks,
            walk_nodes,
            probes,
            randomized_probes,
            hybrid_switches,
            edges_expanded,
            nodes_sampled,
            trie_prefixes,
            frontier_merges,
            levels_expanded,
        ]
    }

    /// `(name, value)` pairs for every counter — the serializable
    /// snapshot consumed by the JSON writers in the CLI and the benchmark
    /// report, so a new counter added here flows into every output format
    /// automatically.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, usize)> {
        Self::FIELD_NAMES.into_iter().zip(self.field_values())
    }

    /// Total algorithmic work: walk nodes generated plus edges expanded
    /// plus nodes sampled. Deterministic given graph + config + seed, which makes it a machine-independent signal for the CI perf
    /// gate (wall-clock medians vary across runners; this does not).
    pub fn total_work(&self) -> usize {
        self.walk_nodes + self.edges_expanded + self.nodes_sampled
    }

    /// Merges counters from another query (for experiment aggregates).
    ///
    /// Exhaustively destructures `other`, so a counter added to the struct
    /// without being merged here (the bug class that would silently drop
    /// it from `run_batch`/`par_batch` aggregates) is a compile error.
    pub fn merge(&mut self, other: &QueryStats) {
        let QueryStats {
            walks,
            truncated_walks,
            walk_nodes,
            probes,
            randomized_probes,
            hybrid_switches,
            edges_expanded,
            nodes_sampled,
            trie_prefixes,
            frontier_merges,
            levels_expanded,
        } = *other;
        self.walks += walks;
        self.truncated_walks += truncated_walks;
        self.walk_nodes += walk_nodes;
        self.probes += probes;
        self.randomized_probes += randomized_probes;
        self.hybrid_switches += hybrid_switches;
        self.edges_expanded += edges_expanded;
        self.nodes_sampled += nodes_sampled;
        self.trie_prefixes += trie_prefixes;
        self.frontier_merges += frontier_merges;
        self.levels_expanded += levels_expanded;
    }
}

/// The answer to a single-source SimRank query.
#[derive(Debug, Clone)]
pub struct SingleSourceResult {
    /// The query node `u`.
    pub query: NodeId,
    /// `scores[v] = s̃(u, v)` for every `v`; `scores[u]` is fixed at 1.0
    /// by the SimRank definition.
    pub scores: Vec<f64>,
    /// Execution counters.
    pub stats: QueryStats,
}

impl SingleSourceResult {
    /// `s̃(u, v)`.
    #[inline]
    pub fn score(&self, v: NodeId) -> f64 {
        self.scores[v as usize]
    }

    /// The `k` most similar nodes to `u` (excluding `u` itself), highest
    /// score first; ties broken by node id for determinism.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        crate::topk::top_k_from_scores(&self.scores, self.query, k)
    }

    /// Nodes with estimate above `threshold`, unordered.
    pub fn above_threshold(&self, threshold: f64) -> Vec<(NodeId, f64)> {
        self.scores
            .iter()
            .enumerate()
            .filter(|&(v, &s)| v as NodeId != self.query && s > threshold)
            .map(|(v, &s)| (v as NodeId, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = QueryStats {
            walks: 1,
            probes: 2,
            edges_expanded: 10,
            ..QueryStats::default()
        };
        let b = QueryStats {
            walks: 3,
            probes: 4,
            hybrid_switches: 1,
            frontier_merges: 5,
            levels_expanded: 2,
            ..QueryStats::default()
        };
        a.merge(&b);
        assert_eq!(a.walks, 4);
        assert_eq!(a.probes, 6);
        assert_eq!(a.edges_expanded, 10);
        assert_eq!(a.hybrid_switches, 1);
        assert_eq!(a.frontier_merges, 5);
        assert_eq!(a.levels_expanded, 2);
    }

    #[test]
    fn fields_snapshot_covers_every_counter() {
        let stats = QueryStats {
            walks: 1,
            truncated_walks: 2,
            walk_nodes: 3,
            probes: 4,
            randomized_probes: 5,
            hybrid_switches: 6,
            edges_expanded: 7,
            nodes_sampled: 8,
            trie_prefixes: 9,
            frontier_merges: 10,
            levels_expanded: 11,
        };
        let fields: Vec<(&str, usize)> = stats.fields().collect();
        assert_eq!(fields.len(), QueryStats::FIELD_NAMES.len());
        // Every value 1..=11 appears exactly once: a counter added to the
        // struct without extending the snapshot would break this.
        let mut values: Vec<usize> = fields.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=11).collect::<Vec<_>>());
        assert_eq!(stats.fields().count(), 11);
        assert_eq!(stats.total_work(), 3 + 7 + 8);
    }

    #[test]
    fn result_accessors() {
        let r = SingleSourceResult {
            query: 1,
            scores: vec![0.3, 1.0, 0.5, 0.05],
            stats: QueryStats::default(),
        };
        assert_eq!(r.score(2), 0.5);
        assert_eq!(r.top_k(2), vec![(2, 0.5), (0, 0.3)]);
        let mut above = r.above_threshold(0.1);
        above.sort_unstable_by_key(|&(v, _)| v);
        assert_eq!(above, vec![(0, 0.3), (2, 0.5)]);
    }
}
