//! A generic 3D torus with dimension-ordered routing.
//!
//! Titan's Gemini interconnect "is configured as a 3D torus" (§V-B) and
//! routes packets dimension by dimension (X, then Y, then Z), taking the
//! shorter way around each ring. I/O placement decisions (Figure 2) are all
//! about where traffic concentrates on these links, so the module also
//! provides per-link load accounting.

use std::fmt;

/// A coordinate in the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// X position.
    pub x: u16,
    /// Y position.
    pub y: u16,
    /// Z position.
    pub z: u16,
}

impl Coord {
    /// Construct a coordinate.
    pub fn new(x: u16, y: u16, z: u16) -> Self {
        Coord { x, y, z }
    }

    fn get(&self, dim: usize) -> u16 {
        match dim {
            0 => self.x,
            1 => self.y,
            _ => self.z,
        }
    }

    fn set(&mut self, dim: usize, v: u16) {
        match dim {
            0 => self.x = v,
            1 => self.y = v,
            _ => self.z = v,
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// A directed link: from a node, along a dimension, in a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

/// The torus itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    dims: [u16; 3],
}

impl Torus {
    /// A torus with the given dimensions. Each dimension must be >= 1.
    pub fn new(x: u16, y: u16, z: u16) -> Self {
        assert!(x >= 1 && y >= 1 && z >= 1, "degenerate torus");
        Torus { dims: [x, y, z] }
    }

    /// Dimensions as `[x, y, z]`.
    pub fn dims(&self) -> [u16; 3] {
        self.dims
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.dims[0] as usize * self.dims[1] as usize * self.dims[2] as usize
    }

    /// Total directed link count (6 per node).
    pub fn links(&self) -> usize {
        self.nodes() * 6
    }

    /// Flatten a coordinate to a node index.
    pub fn node_index(&self, c: Coord) -> usize {
        debug_assert!(c.x < self.dims[0] && c.y < self.dims[1] && c.z < self.dims[2]);
        (c.x as usize * self.dims[1] as usize + c.y as usize) * self.dims[2] as usize + c.z as usize
    }

    /// Inverse of [`Self::node_index`].
    pub fn coord_of(&self, idx: usize) -> Coord {
        let z = idx % self.dims[2] as usize;
        let rest = idx / self.dims[2] as usize;
        let y = rest % self.dims[1] as usize;
        let x = rest / self.dims[1] as usize;
        Coord::new(x as u16, y as u16, z as u16)
    }

    /// Directed link leaving `node` along `dim` (0..3) in `positive`
    /// direction.
    pub fn link_id(&self, node: Coord, dim: usize, positive: bool) -> LinkId {
        let idx = (self.node_index(node) * 3 + dim) * 2 + positive as usize;
        LinkId(idx as u32)
    }

    /// Dimension (0=X, 1=Y, 2=Z) of a link.
    pub fn link_dim(&self, link: LinkId) -> usize {
        (link.0 as usize / 2) % 3
    }

    /// Signed shortest displacement from `a` to `b` along `dim`
    /// (wraparound-aware; positive means the +direction is shorter or tied).
    fn shortest_delta(&self, a: u16, b: u16, dim: usize) -> i32 {
        let n = self.dims[dim] as i32;
        let mut d = b as i32 - a as i32;
        if d > n / 2 {
            d -= n;
        } else if d < -(n - 1) / 2 {
            d += n;
        }
        d
    }

    /// Hop distance with wraparound (dimension-ordered routing path length).
    pub fn distance(&self, a: Coord, b: Coord) -> u32 {
        (0..3)
            .map(|d| self.shortest_delta(a.get(d), b.get(d), d).unsigned_abs())
            .sum()
    }

    /// The dimension-ordered route from `a` to `b`: the sequence of directed
    /// links traversed (empty when `a == b`).
    pub fn route(&self, a: Coord, b: Coord) -> Vec<LinkId> {
        let mut path = Vec::with_capacity(self.distance(a, b) as usize);
        self.for_each_route_link(a, b, |l| path.push(l));
        path
    }

    /// Visit the route's links without allocating.
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, a: Coord, b: Coord, mut f: F) {
        let mut cur = a;
        for dim in 0..3 {
            let delta = self.shortest_delta(cur.get(dim), b.get(dim), dim);
            let positive = delta >= 0;
            let n = self.dims[dim];
            for _ in 0..delta.unsigned_abs() {
                f(self.link_id(cur, dim, positive));
                let next = if positive {
                    (cur.get(dim) + 1) % n
                } else {
                    (cur.get(dim) + n - 1) % n
                };
                cur.set(dim, next);
            }
        }
        debug_assert_eq!(cur, b);
    }

    /// Iterate all coordinates.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.nodes()).map(|i| self.coord_of(i))
    }
}

/// Per-link load accumulator.
#[derive(Debug, Clone)]
pub struct LinkLoads {
    loads: Vec<f64>,
}

impl LinkLoads {
    /// Zeroed loads for every link of `torus`.
    pub fn new(torus: &Torus) -> Self {
        LinkLoads {
            loads: vec![0.0; torus.links()],
        }
    }

    /// Add `amount` of traffic along the route from `a` to `b`.
    pub fn add_route(&mut self, torus: &Torus, a: Coord, b: Coord, amount: f64) {
        torus.for_each_route_link(a, b, |l| {
            self.loads[l.0 as usize] += amount;
        });
    }

    /// Load on one link.
    pub fn load(&self, link: LinkId) -> f64 {
        self.loads[link.0 as usize]
    }

    /// Maximum link load — the congestion hotspot metric.
    pub fn max(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Mean load over *loaded* links (idle links excluded).
    pub fn mean_loaded(&self) -> f64 {
        let loaded: Vec<f64> = self.loads.iter().copied().filter(|&l| l > 0.0).collect();
        if loaded.is_empty() {
            0.0
        } else {
            loaded.iter().sum::<f64>() / loaded.len() as f64
        }
    }

    /// Number of links carrying any traffic.
    pub fn loaded_links(&self) -> usize {
        self.loads.iter().filter(|&&l| l > 0.0).count()
    }

    /// The `n` most-loaded links, heaviest first.
    pub fn hotspots(&self, n: usize) -> Vec<(LinkId, f64)> {
        let mut v: Vec<(LinkId, f64)> = self
            .loads
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0.0)
            .map(|(i, &l)| (LinkId(i as u32), l))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(n);
        v
    }

    /// Jain's fairness index over loaded links: 1.0 = perfectly even.
    pub fn fairness(&self) -> f64 {
        let loaded: Vec<f64> = self.loads.iter().copied().filter(|&l| l > 0.0).collect();
        if loaded.is_empty() {
            return 1.0;
        }
        let sum: f64 = loaded.iter().sum();
        let sum_sq: f64 = loaded.iter().map(|l| l * l).sum();
        sum * sum / (loaded.len() as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Torus {
        Torus::new(8, 4, 6)
    }

    #[test]
    fn index_roundtrip() {
        let t = t();
        for i in 0..t.nodes() {
            assert_eq!(t.node_index(t.coord_of(i)), i);
        }
        assert_eq!(t.nodes(), 8 * 4 * 6);
        assert_eq!(t.links(), t.nodes() * 6);
    }

    #[test]
    fn distance_uses_wraparound() {
        let t = t();
        // x: 0 -> 7 is 1 hop the short way around an 8-ring.
        assert_eq!(t.distance(Coord::new(0, 0, 0), Coord::new(7, 0, 0)), 1);
        assert_eq!(t.distance(Coord::new(0, 0, 0), Coord::new(4, 0, 0)), 4);
        assert_eq!(t.distance(Coord::new(1, 1, 1), Coord::new(1, 1, 1)), 0);
        // Combined dims.
        assert_eq!(
            t.distance(Coord::new(0, 0, 0), Coord::new(1, 3, 5)),
            1 + 1 + 1
        );
    }

    #[test]
    fn distance_is_symmetric() {
        let t = t();
        for a in [
            Coord::new(0, 0, 0),
            Coord::new(3, 2, 4),
            Coord::new(7, 3, 5),
        ] {
            for b in [Coord::new(1, 1, 1), Coord::new(6, 0, 2)] {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn route_length_equals_distance() {
        let t = t();
        let a = Coord::new(1, 2, 3);
        let b = Coord::new(6, 0, 5);
        let route = t.route(a, b);
        assert_eq!(route.len() as u32, t.distance(a, b));
        // Dimension-ordered: X links first, then Y, then Z.
        let dims: Vec<usize> = route.iter().map(|&l| t.link_dim(l)).collect();
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        assert_eq!(dims, sorted, "dims must be non-decreasing: {dims:?}");
    }

    #[test]
    fn empty_route_for_same_node() {
        let t = t();
        assert!(t.route(Coord::new(2, 2, 2), Coord::new(2, 2, 2)).is_empty());
    }

    #[test]
    fn link_ids_are_unique_per_node_dim_dir() {
        let t = t();
        let mut seen = std::collections::HashSet::new();
        for c in t.coords() {
            for dim in 0..3 {
                for dir in [false, true] {
                    assert!(seen.insert(t.link_id(c, dim, dir)), "duplicate link id");
                }
            }
        }
        assert_eq!(seen.len(), t.links());
    }

    #[test]
    fn link_loads_accumulate_and_report() {
        let t = t();
        let mut loads = LinkLoads::new(&t);
        let a = Coord::new(0, 0, 0);
        let b = Coord::new(3, 0, 0);
        loads.add_route(&t, a, b, 2.0);
        loads.add_route(&t, a, b, 1.0);
        assert_eq!(loads.max(), 3.0);
        assert_eq!(loads.loaded_links(), 3);
        assert!((loads.mean_loaded() - 3.0).abs() < 1e-12);
        assert!(
            (loads.fairness() - 1.0).abs() < 1e-12,
            "even loads are fair"
        );
        let hs = loads.hotspots(2);
        assert_eq!(hs.len(), 2);
        assert_eq!(hs[0].1, 3.0);
    }

    #[test]
    fn fairness_drops_for_skewed_loads() {
        let t = t();
        let mut even = LinkLoads::new(&t);
        let mut skew = LinkLoads::new(&t);
        // Even: two disjoint single-hop routes. Skewed: one link carries 10x.
        even.add_route(&t, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 1.0);
        even.add_route(&t, Coord::new(2, 0, 0), Coord::new(3, 0, 0), 1.0);
        skew.add_route(&t, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 10.0);
        skew.add_route(&t, Coord::new(2, 0, 0), Coord::new(3, 0, 0), 1.0);
        assert!(skew.fairness() < even.fairness());
    }

    #[test]
    fn odd_ring_wraparound() {
        let t = Torus::new(5, 1, 1);
        // 0 -> 3 on a 5-ring: -2 the short way.
        assert_eq!(t.distance(Coord::new(0, 0, 0), Coord::new(3, 0, 0)), 2);
        let r = t.route(Coord::new(0, 0, 0), Coord::new(3, 0, 0));
        assert_eq!(r.len(), 2);
    }
}
