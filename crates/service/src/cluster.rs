//! Cluster-tier primitives shared by the router and its tests: consistent
//! hashing, the cluster session-id codec, and the `/stats` rollup.
//!
//! The paper scales spot noise by dividing the work over processors and
//! compositing the results; the service scales the same way over
//! *processes*. A [`HashRing`] places sessions (and shared-field channels)
//! on worker nodes so that the same key always lands on the same node — a
//! prerequisite for the frame cache and the shared-field broadcast
//! channels to keep working across a cluster. [`ClusterSessionId`] embeds
//! the owning node into the client-visible session id, so every later
//! request routes without a lookup table. [`stats_aggregation`] classifies
//! each per-node `/stats` field by the kind its stats-registry row
//! declares — summable (monotonic counters, additive gauges), max-able
//! (peaks, uptime), or per-node-only (ratios, configuration) — so the
//! router's cluster view never adds numbers that are meaningless to add.

use crate::node;
use crate::stats::StatKind;
use spotnoise::hash::StableHasher;
use spotnoise::json::Json;

/// How many virtual points each node contributes to the ring. More points
/// smooth the key distribution across nodes (the classic consistent-hashing
/// trade-off: memory and lookup cost vs placement variance).
pub const VIRTUAL_POINTS: usize = 64;

/// A consistent-hash ring over `n` nodes.
///
/// Each node owns [`VIRTUAL_POINTS`] pseudo-random points on a `u64`
/// circle (positions come from [`StableHasher`], so placement is identical
/// across processes and runs). A key maps to the first point at or after
/// its own hash, wrapping at the top. Adding or removing one node moves
/// only the keys in that node's arcs — sessions on surviving nodes keep
/// their placement, which keeps their frame caches warm.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, node)` sorted by position.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds a ring over nodes `0..nodes`. A zero-node ring is legal but
    /// places nothing ([`HashRing::node_for`] returns `None`).
    pub fn new(nodes: usize) -> Self {
        let mut points = Vec::with_capacity(nodes * VIRTUAL_POINTS);
        for node in 0..nodes {
            for replica in 0..VIRTUAL_POINTS {
                let mut h = StableHasher::new();
                h.write_str("spotnoise-ring-point");
                h.write_usize(node);
                h.write_usize(replica);
                points.push((h.finish(), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// How many nodes the ring was built over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Mixes an arbitrary `u64` key onto the ring circle. Keys here are
    /// already hashes (content hashes, salted session counters), but one
    /// more mix keeps structured key spaces from clustering on the circle.
    fn position(key: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("spotnoise-ring-key");
        h.write_u64(key);
        h.finish()
    }

    /// The node that owns `key`, or `None` for an empty ring.
    pub fn node_for(&self, key: u64) -> Option<usize> {
        self.nodes_for(key).next()
    }

    /// Every node in ring order starting at `key`'s successor point, each
    /// node once. The router walks this to route around saturated or dead
    /// nodes: the first healthy node in the walk owns the key *for now*,
    /// and when the preferred node recovers the key falls back to it.
    pub fn nodes_for(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = match self.points.is_empty() {
            true => 0,
            false => {
                let pos = Self::position(key);
                self.points.partition_point(|&(p, _)| p < pos) % self.points.len()
            }
        };
        let mut seen = vec![false; self.nodes];
        let mut yielded = 0usize;
        let points = &self.points;
        let nodes = self.nodes;
        (0..points.len()).filter_map(move |offset| {
            if yielded == nodes {
                return None;
            }
            let (_, node) = points[(start + offset) % points.len()];
            if seen[node] {
                return None;
            }
            seen[node] = true;
            yielded += 1;
            Some(node)
        })
    }
}

/// A cluster session id: the owning node's index plus that node's local
/// session id, rendered as `n<node>.<local>` (e.g. `n2.s-17`).
///
/// The id the router hands out *is* the routing table — every follow-up
/// request self-describes which worker owns it, so the router tier stays
/// stateless about sessions and any router replica can proxy any id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSessionId {
    /// The worker node index that owns the session.
    pub node: usize,
    /// The session id on that node (its `s-<n>` form).
    pub local: String,
}

impl ClusterSessionId {
    /// Renders the id in its wire form.
    pub fn format(&self) -> String {
        format!("n{}.{}", self.node, self.local)
    }

    /// Parses a wire-form id; `None` when it is not a cluster id.
    pub fn parse(text: &str) -> Option<ClusterSessionId> {
        let rest = text.strip_prefix('n')?;
        let (node, local) = rest.split_once('.')?;
        if local.is_empty() {
            return None;
        }
        Some(ClusterSessionId {
            node: node.parse().ok()?,
            local: local.to_string(),
        })
    }
}

impl std::fmt::Display for ClusterSessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}.{}", self.node, self.local)
    }
}

/// How one `/stats` field combines across nodes in the cluster view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatAgg {
    /// Monotonic counters and additive gauges: the cluster value is the
    /// sum (`frames.rendered`, `cache.bytes`, `sessions.live`, ...).
    Sum,
    /// High-water marks and clocks: summing would double-count, so the
    /// cluster value is the max (`queue.peak_depth`, `uptime_seconds`).
    Max,
    /// Ratios, identifiers, configuration and latency quantiles: only
    /// meaningful per node, so the cluster view omits them (consult the
    /// `per_node` section instead).
    Skip,
}

/// Classifies a `(section, field)` pair of the per-node `/stats` document
/// (schema `spotnoise_service_stats/v1`) by the kind the node's stats
/// registry declares for it: counters and additive gauges are summed,
/// peaks and clocks maxed, and ratios, configuration and states skipped.
/// A field no registry row declares (identity, id lists, flags) is
/// skipped too.
pub fn stats_aggregation(section: &str, field: &str) -> StatAgg {
    match node::stat_kind(section, field) {
        Some(StatKind::Counter | StatKind::Gauge) => StatAgg::Sum,
        Some(StatKind::Peak) => StatAgg::Max,
        Some(StatKind::State(_) | StatKind::PerNode) | None => StatAgg::Skip,
    }
}

/// Folds per-node `/stats` documents into one cluster-view object: every
/// section of numeric fields combined per [`stats_aggregation`]. The
/// schema line, latency quantiles and per-session lists are omitted — the
/// router's `/stats` carries per-node documents alongside this view.
pub fn aggregate_stats(per_node: &[Json]) -> Json {
    let mut sections: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    let mut scalars: Vec<(String, f64)> = Vec::new();
    for doc in per_node {
        let Json::Object(entries) = doc else { continue };
        for (section, value) in entries {
            match value {
                Json::Number(n) => {
                    fold_field(&mut scalars, section, *n, stats_aggregation("", section));
                }
                Json::Object(fields) => {
                    let slot = match sections.iter_mut().find(|(name, _)| name == section) {
                        Some((_, slot)) => slot,
                        None => {
                            sections.push((section.clone(), Vec::new()));
                            &mut sections.last_mut().expect("just pushed").1
                        }
                    };
                    for (field, value) in fields {
                        let Json::Number(n) = value else { continue };
                        fold_field(slot, field, *n, stats_aggregation(section, field));
                    }
                }
                _ => {}
            }
        }
    }
    let mut out: Vec<(String, Json)> = scalars
        .into_iter()
        .map(|(name, value)| (name, Json::num(value)))
        .collect();
    for (section, fields) in sections {
        if fields.is_empty() {
            continue;
        }
        out.push((
            section,
            Json::Object(
                fields
                    .into_iter()
                    .map(|(name, value)| (name, Json::num(value)))
                    .collect(),
            ),
        ));
    }
    Json::Object(out)
}

fn fold_field(slot: &mut Vec<(String, f64)>, field: &str, value: f64, agg: StatAgg) {
    let combine: fn(f64, f64) -> f64 = match agg {
        StatAgg::Sum => |a, b| a + b,
        StatAgg::Max => f64::max,
        StatAgg::Skip => return,
    };
    match slot.iter_mut().find(|(name, _)| name == field) {
        Some((_, acc)) => *acc = combine(*acc, value),
        None => slot.push((field.to_string(), value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_nodes() {
        let a = HashRing::new(3);
        let b = HashRing::new(3);
        let mut owners = [0usize; 3];
        for key in 0..600u64 {
            let node = a.node_for(key).unwrap();
            assert_eq!(Some(node), b.node_for(key), "placement must be stable");
            owners[node] += 1;
        }
        for (node, count) in owners.iter().enumerate() {
            assert!(*count > 0, "node {node} owns no keys out of 600");
        }
    }

    #[test]
    fn ring_walk_yields_each_node_once_starting_at_owner() {
        let ring = HashRing::new(4);
        for key in [0u64, 17, 0xDEAD_BEEF, u64::MAX] {
            let walk: Vec<usize> = ring.nodes_for(key).collect();
            assert_eq!(walk.len(), 4);
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert_eq!(walk[0], ring.node_for(key).unwrap());
        }
    }

    #[test]
    fn ring_removal_moves_only_the_lost_nodes_keys() {
        // Consistency property: keys owned by a surviving node keep their
        // owner when the highest node index is dropped from the ring.
        let big = HashRing::new(4);
        let small = HashRing::new(3);
        let mut moved = 0usize;
        for key in 0..1000u64 {
            let before = big.node_for(key).unwrap();
            let after = small.node_for(key).unwrap();
            if before < 3 {
                assert_eq!(before, after, "surviving key {key} moved");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "node 3 owned nothing out of 1000 keys");
    }

    #[test]
    fn empty_ring_places_nothing() {
        let ring = HashRing::new(0);
        assert_eq!(ring.node_for(42), None);
        assert_eq!(ring.nodes_for(42).count(), 0);
    }

    #[test]
    fn cluster_session_id_round_trips() {
        let id = ClusterSessionId {
            node: 2,
            local: "s-17".to_string(),
        };
        assert_eq!(id.format(), "n2.s-17");
        assert_eq!(ClusterSessionId::parse("n2.s-17"), Some(id));
        assert_eq!(ClusterSessionId::parse("s-17"), None);
        assert_eq!(ClusterSessionId::parse("n2"), None);
        assert_eq!(ClusterSessionId::parse("n2."), None);
        assert_eq!(ClusterSessionId::parse("nx.s-1"), None);
    }

    #[test]
    fn aggregation_table_sums_counters_maxes_peaks_skips_ratios() {
        assert_eq!(stats_aggregation("frames", "rendered"), StatAgg::Sum);
        assert_eq!(stats_aggregation("cluster", "peer_hits"), StatAgg::Sum);
        assert_eq!(stats_aggregation("queue", "peak_depth"), StatAgg::Max);
        assert_eq!(stats_aggregation("", "uptime_seconds"), StatAgg::Max);
        assert_eq!(stats_aggregation("cache", "hit_rate"), StatAgg::Skip);
        assert_eq!(stats_aggregation("queue", "watermark"), StatAgg::Skip);
        assert_eq!(stats_aggregation("node", "id"), StatAgg::Skip);
    }

    #[test]
    fn aggregate_stats_folds_documents() {
        let a = Json::parse(
            r#"{"schema": "spotnoise_service_stats/v1", "uptime_seconds": 5,
                "frames": {"rendered": 10, "mean_synthesize_us": 3.5},
                "queue": {"depth": 1, "peak_depth": 4}}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"schema": "spotnoise_service_stats/v1", "uptime_seconds": 9,
                "frames": {"rendered": 7, "mean_synthesize_us": 9.0},
                "queue": {"depth": 2, "peak_depth": 3}}"#,
        )
        .unwrap();
        let merged = aggregate_stats(&[a, b]);
        assert_eq!(merged.get("uptime_seconds").unwrap().as_f64(), Some(9.0));
        let frames = merged.get("frames").unwrap();
        assert_eq!(frames.get("rendered").unwrap().as_f64(), Some(17.0));
        assert!(frames.get("mean_synthesize_us").is_none());
        let queue = merged.get("queue").unwrap();
        assert_eq!(queue.get("depth").unwrap().as_f64(), Some(3.0));
        assert_eq!(queue.get("peak_depth").unwrap().as_f64(), Some(4.0));
        assert!(merged.get("schema").is_none());
    }
}
