//! 2-D torus on-chip interconnect model (Table 2: 1-cycle hop latency).
//!
//! The torus connects cores to the NUCA L2 slices (one slice co-located with
//! each core). Only hop-count latency is modeled; link contention is ignored,
//! which is conservative for all schedulers alike and documented in
//! DESIGN.md.

use crate::ids::CoreId;

/// A 2-D torus of `n` nodes arranged in the most square grid possible.
///
/// Pairwise round-trip latencies are precomputed at construction: the
/// coordinate arithmetic costs two integer divisions per endpoint, and the
/// L2 consults the torus on every slice access, so the hot path is a
/// single table load instead. The table holds `nodes²` entries; a
/// simulated system has at most 64 cores (one per sharer-mask bit), so at
/// most 4,096.
///
/// # Examples
///
/// ```
/// use strex_sim::ids::CoreId;
/// use strex_sim::interconnect::Torus;
///
/// let t = Torus::new(16); // 4x4
/// assert_eq!(t.hops(CoreId::new(0), CoreId::new(0)), 0);
/// assert_eq!(t.hops(CoreId::new(0), CoreId::new(15)), 2); // wraparound
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Torus {
    width: usize,
    height: usize,
    hop_latency: u64,
    /// `round_trip(a, b)` for every node pair, indexed `a * nodes + b`.
    round_trips: std::sync::Arc<[u64]>,
}

impl Torus {
    /// Builds a torus of `nodes` nodes with 1-cycle hops.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        Self::with_hop_latency(nodes, 1)
    }

    /// Builds a torus with an explicit per-hop latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_hop_latency(nodes: usize, hop_latency: u64) -> Self {
        assert!(nodes > 0, "torus needs at least one node");
        // Most square factorization: width >= height.
        let mut height = (nodes as f64).sqrt() as usize;
        while height > 1 && !nodes.is_multiple_of(height) {
            height -= 1;
        }
        let width = nodes / height.max(1);
        let mut t = Torus {
            width,
            height: height.max(1),
            hop_latency,
            round_trips: std::sync::Arc::from(Vec::new()),
        };
        let n = t.nodes();
        let mut table = Vec::with_capacity(n * n);
        for a in 0..n {
            for b in 0..n {
                table.push(
                    2 * t.hops_computed(CoreId::new(a as u16), CoreId::new(b as u16)) * hop_latency,
                );
            }
        }
        t.round_trips = std::sync::Arc::from(table);
        t
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    fn coords(&self, node: CoreId) -> (usize, usize) {
        let i = node.as_usize();
        (i % self.width, i / self.width)
    }

    /// Coordinate-arithmetic hop count, used to build the table.
    fn hops_computed(&self, a: CoreId, b: CoreId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        let dx = dx.min(self.width - dx);
        let dy = dy.min(self.height - dy);
        (dx + dy) as u64
    }

    /// Minimal hop count between two nodes, with wraparound links.
    pub fn hops(&self, a: CoreId, b: CoreId) -> u64 {
        self.hops_computed(a, b)
    }

    /// One-way latency in cycles between two nodes.
    pub fn latency(&self, a: CoreId, b: CoreId) -> u64 {
        self.hops(a, b) * self.hop_latency
    }

    /// Round-trip latency in cycles (request + response): one table load.
    #[inline]
    pub fn round_trip(&self, a: CoreId, b: CoreId) -> u64 {
        self.round_trips[a.as_usize() * self.nodes() + b.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_factorization() {
        assert_eq!((Torus::new(16).width(), Torus::new(16).height()), (4, 4));
        assert_eq!((Torus::new(8).width(), Torus::new(8).height()), (4, 2));
        assert_eq!((Torus::new(2).width(), Torus::new(2).height()), (2, 1));
        assert_eq!((Torus::new(1).width(), Torus::new(1).height()), (1, 1));
    }

    #[test]
    fn self_distance_zero() {
        let t = Torus::new(8);
        for i in 0..8 {
            assert_eq!(t.hops(CoreId::new(i), CoreId::new(i)), 0);
        }
    }

    #[test]
    fn symmetry() {
        let t = Torus::new(16);
        for a in 0..16u16 {
            for b in 0..16u16 {
                assert_eq!(
                    t.hops(CoreId::new(a), CoreId::new(b)),
                    t.hops(CoreId::new(b), CoreId::new(a))
                );
            }
        }
    }

    #[test]
    fn wraparound_shortens_paths() {
        let t = Torus::new(16); // 4x4
                                // Node 0 (0,0) to node 3 (3,0): direct 3 hops, wrap 1 hop.
        assert_eq!(t.hops(CoreId::new(0), CoreId::new(3)), 1);
        // Node 0 (0,0) to node 12 (0,3): wrap 1 hop.
        assert_eq!(t.hops(CoreId::new(0), CoreId::new(12)), 1);
    }

    #[test]
    fn diameter_bound() {
        let t = Torus::new(16);
        let max = (0..16u16)
            .flat_map(|a| (0..16u16).map(move |b| (a, b)))
            .map(|(a, b)| t.hops(CoreId::new(a), CoreId::new(b)))
            .max()
            .unwrap();
        assert_eq!(max, 4, "4x4 torus diameter is floor(4/2)+floor(4/2)");
    }

    #[test]
    fn round_trip_doubles() {
        let t = Torus::with_hop_latency(4, 2);
        assert_eq!(t.round_trip(CoreId::new(0), CoreId::new(1)), 4);
    }
}
