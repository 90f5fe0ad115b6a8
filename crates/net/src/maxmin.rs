//! Progressive-filling max-min fair bandwidth allocation.
//!
//! The end-to-end throughput engine: every I/O stream is a *flow* with an
//! optional per-process rate cap across a list of capacitated *resources*
//! (LNET router, OSS link, controller couplet, OST). Water-filling raises
//! all flows together; when a resource saturates, the flows crossing it
//! freeze at their fair share and the rest keep growing. The result is the
//! unique max-min fair allocation, a standard steady-state model for
//! TCP-like bandwidth sharing in capacitated networks.
//!
//! # Weighted flow classes
//!
//! A [`FlowSpec`] carries a `weight`: the number of *identical member flows*
//! it stands for. In a max-min fair allocation, flows with the same resource
//! path and the same cap always receive the same rate, so a caller can
//! collapse thousands of identical per-client flows (Titan: 18,688 clients
//! funneling into ~1,000 distinct OST paths) into one weighted class per
//! path and solve a problem that is an order of magnitude smaller. The
//! solver returns the *per-member* rate of each class.
//!
//! # Two solvers
//!
//! [`MaxMinProblem::solve`] is event-driven water-filling: the common water
//! level rises monotonically, per-resource saturation levels live in a lazy
//! min-heap, cap events come from a cap-sorted cursor, and a freeze touches
//! only the flows adjacent to the saturated resource. Per round it does
//! O(freezes × path + log R) work instead of rescanning every flow and
//! resource, which turns the worst case from O(flows² × path) into roughly
//! O((flows × path + R) log R).
//!
//! [`MaxMinProblem::solve_reference`] is the naive full-rescan loop kept as
//! the differential-testing oracle; both must agree to within 1e-6.
//!
//! A stateless solve always runs the event-driven core over the whole flow
//! set. Splitting a one-shot problem into its connected components and
//! solving them in parallel did not pay: on a 64-block problem (2,560
//! flows) the split solve took 0.60 ms against 0.46 ms undecomposed on one
//! core, and 1.12 ms against 0.72 ms on two. Components pay off only
//! across *repeated* solves, where an untouched component can replay a
//! memoized fixed point, so the incremental
//! [`SolveSession`](crate::session::SolveSession) is the one place that
//! decomposes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::AddAssign;

/// Identifier of a capacitated resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// A flow class: the ordered set of resources its members cross, an optional
/// intrinsic per-member rate cap (e.g. a per-process injection limit), and
/// the number of identical members it represents.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources the flow consumes (duplicates are legal and count twice).
    pub resources: Vec<ResourceId>,
    /// Intrinsic per-member cap in the same units as resource capacities.
    pub cap: Option<f64>,
    /// Number of identical member flows in this class (default 1).
    pub weight: f64,
}

impl FlowSpec {
    /// A unit-weight flow over the given resources with no intrinsic cap.
    pub fn new(resources: Vec<ResourceId>) -> Self {
        FlowSpec {
            resources,
            cap: None,
            weight: 1.0,
        }
    }

    /// Attach an intrinsic per-member cap (non-negative; a zero cap makes a
    /// dead flow). Solves and sessions reject NaN and negative caps.
    pub fn with_cap(mut self, cap: f64) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Set the class multiplicity (must be positive and finite).
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "flow weight must be positive and finite, got {weight}"
        );
        self.weight = weight;
        self
    }
}

/// A max-min fair allocation problem.
///
/// # Examples
///
/// ```
/// use spider_net::maxmin::{FlowSpec, MaxMinProblem};
///
/// let mut problem = MaxMinProblem::new();
/// let link = problem.add_resource(10.0);
/// let flows = vec![
///     FlowSpec::new(vec![link]).with_cap(2.0), // capped flow
///     FlowSpec::new(vec![link]),               // takes the rest
/// ];
/// let rates = problem.solve(&flows);
/// assert!((rates[0] - 2.0).abs() < 1e-9);
/// assert!((rates[1] - 8.0).abs() < 1e-9);
///
/// // A weight-2 class is exactly two identical unit flows:
/// let classes = vec![
///     FlowSpec::new(vec![link]).with_weight(2.0),
///     FlowSpec::new(vec![link]),
/// ];
/// let rates = problem.solve(&classes);
/// assert!((rates[0] - 10.0 / 3.0).abs() < 1e-9); // per-member rate
/// assert!((rates[1] - 10.0 / 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MaxMinProblem {
    capacities: Vec<f64>,
}

const EPS: f64 = 1e-9;

/// Counters describing one event-driven [`MaxMinProblem::solve`] run.
///
/// Filled by [`MaxMinProblem::solve_with_stats`]; the plain [`solve`] path
/// maintains the same counters (they are branch-free u64 increments) and
/// flushes them to the `spider-obs` registry when observability is enabled.
///
/// [`solve`]: MaxMinProblem::solve
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Flow classes in the problem.
    pub flows: u64,
    /// Flows frozen before water-filling began (exhausted resource on the
    /// path, or a zero cap).
    pub prefrozen: u64,
    /// Event-loop rounds (one cap or saturation event per round).
    pub rounds: u64,
    /// Flows frozen by reaching their intrinsic per-member cap.
    pub cap_freezes: u64,
    /// Flows frozen because a resource on their path saturated.
    pub saturation_freezes: u64,
    /// Heap entries pushed (initial schedule plus freeze-time reschedules).
    pub heap_pushes: u64,
    /// Heap entries popped, current and stale alike.
    pub heap_pops: u64,
    /// Popped entries discarded as stale (invalidated by a later reschedule
    /// of the same resource, or by its saturation or emptying).
    pub stale_discards: u64,
    /// Resources in the order they saturated. Only collected by
    /// [`MaxMinProblem::solve_with_stats`] — the plain path skips the
    /// allocation.
    pub saturation_order: Vec<u32>,
}

impl AddAssign for SolveStats {
    /// Sum every counter and append `other`'s saturation order (a session
    /// reports the sum over the components it solved).
    fn add_assign(&mut self, other: SolveStats) {
        let SolveStats {
            flows,
            prefrozen,
            rounds,
            cap_freezes,
            saturation_freezes,
            heap_pushes,
            heap_pops,
            stale_discards,
            saturation_order,
        } = other;
        self.flows += flows;
        self.prefrozen += prefrozen;
        self.rounds += rounds;
        self.cap_freezes += cap_freezes;
        self.saturation_freezes += saturation_freezes;
        self.heap_pushes += heap_pushes;
        self.heap_pops += heap_pops;
        self.stale_discards += stale_discards;
        self.saturation_order.extend(saturation_order);
    }
}

impl SolveStats {
    /// Flush the counters into the global `spider-obs` registry (call only
    /// when `spider_obs::enabled()`).
    pub(crate) fn flush_obs(&self) {
        spider_obs::counter_add("maxmin_solves", 1);
        spider_obs::counter_add("maxmin_rounds", self.rounds);
        spider_obs::counter_add("maxmin_prefrozen", self.prefrozen);
        spider_obs::counter_add("maxmin_cap_freezes", self.cap_freezes);
        spider_obs::counter_add("maxmin_saturation_freezes", self.saturation_freezes);
        spider_obs::counter_add("maxmin_heap_pushes", self.heap_pushes);
        spider_obs::counter_add("maxmin_heap_pops", self.heap_pops);
        spider_obs::counter_add("maxmin_stale_discards", self.stale_discards);
        spider_obs::hist_record("maxmin_flows_per_solve", self.flows as f64);
    }
}

/// Columnar (structure-of-arrays) view of a flow set: CSR paths plus cap and
/// weight columns, indexed through an explicit `ids` selection list.
///
/// This is the representation the solver core ([`MaxMinProblem::solve_view`])
/// actually runs on. [`MaxMinProblem::solve`] flattens its `&[FlowSpec]`
/// argument into a transient [`FlowColumns`] and selects every row; the
/// incremental [`crate::session::SolveSession`] keeps its live flows in
/// their batches' columns across calls and gathers one component's rows at
/// a time. Both paths execute the *same* float operations, which is what
/// makes session results bit-identical to from-scratch solves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowsView<'a> {
    /// Column row of each flow, in solve order.
    pub(crate) ids: &'a [u32],
    /// CSR offsets into `path_res`, indexed by row (`rows + 1` long).
    pub(crate) path_off: &'a [u32],
    /// Flattened resource indices of every row's path.
    pub(crate) path_res: &'a [u32],
    /// Per-row intrinsic per-member cap; `f64::INFINITY` means uncapped.
    pub(crate) cap: &'a [f64],
    /// Per-row class weight.
    pub(crate) weight: &'a [f64],
}

impl FlowsView<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Resource indices crossed by the flow at view position `k`.
    fn path(&self, k: usize) -> &[u32] {
        let s = self.ids[k] as usize;
        &self.path_res[self.path_off[s] as usize..self.path_off[s + 1] as usize]
    }

    fn cap_of(&self, k: usize) -> f64 {
        self.cap[self.ids[k] as usize]
    }

    fn weight_of(&self, k: usize) -> f64 {
        self.weight[self.ids[k] as usize]
    }
}

/// Owned columnar flow storage backing a [`FlowsView`], one row per flow.
#[derive(Debug, Clone)]
pub(crate) struct FlowColumns {
    pub(crate) path_off: Vec<u32>,
    pub(crate) path_res: Vec<u32>,
    pub(crate) cap: Vec<f64>,
    pub(crate) weight: Vec<f64>,
}

impl Default for FlowColumns {
    /// No rows: `path_off` holds only the leading 0.
    fn default() -> Self {
        FlowColumns {
            path_off: vec![0],
            path_res: Vec::new(),
            cap: Vec::new(),
            weight: Vec::new(),
        }
    }
}

impl FlowColumns {
    /// Flatten specs into columns, one row per spec.
    pub(crate) fn from_specs(flows: &[FlowSpec]) -> Self {
        let mut cols = FlowColumns {
            path_off: Vec::with_capacity(flows.len() + 1),
            path_res: Vec::with_capacity(flows.iter().map(|f| f.resources.len()).sum()),
            cap: Vec::with_capacity(flows.len()),
            weight: Vec::with_capacity(flows.len()),
        };
        cols.path_off.push(0);
        for f in flows {
            cols.push(&f.resources, f.cap, f.weight);
        }
        cols
    }

    /// Append a flow as the last row.
    pub(crate) fn push(&mut self, path: &[ResourceId], cap: Option<f64>, weight: f64) {
        self.path_res.extend(path.iter().map(|r| r.0 as u32));
        self.path_off.push(self.path_res.len() as u32);
        self.cap.push(cap.unwrap_or(f64::INFINITY));
        self.weight.push(weight);
    }

    /// Append row `row` of `src` as the last row.
    pub(crate) fn push_row(&mut self, src: &FlowColumns, row: usize) {
        self.path_res.extend_from_slice(src.path(row));
        self.path_off.push(self.path_res.len() as u32);
        self.cap.push(src.cap[row]);
        self.weight.push(src.weight[row]);
    }

    /// Resource indices crossed by the flow in row `row`.
    pub(crate) fn path(&self, row: usize) -> &[u32] {
        &self.path_res[self.path_off[row] as usize..self.path_off[row + 1] as usize]
    }

    /// The rows `ids` selects, in that order.
    pub(crate) fn view<'a>(&'a self, ids: &'a [u32]) -> FlowsView<'a> {
        FlowsView {
            ids,
            path_off: &self.path_off,
            path_res: &self.path_res,
            cap: &self.cap,
            weight: &self.weight,
        }
    }
}

impl spider_simkit::MemFootprint for FlowColumns {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        slab_bytes::<u32>(self.path_off.capacity())
            + slab_bytes::<u32>(self.path_res.capacity())
            + slab_bytes::<f64>(self.cap.capacity())
            + slab_bytes::<f64>(self.weight.capacity())
    }
}

impl spider_simkit::MemFootprint for MaxMinProblem {
    fn mem_bytes(&self) -> u64 {
        spider_simkit::slab_bytes::<f64>(self.capacities.capacity())
    }
}

impl MaxMinProblem {
    /// Empty problem.
    pub fn new() -> Self {
        MaxMinProblem::default()
    }

    /// Register a resource with the given capacity (>= 0).
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "resource capacity must be non-negative and finite, got {capacity}"
        );
        self.capacities.push(capacity);
        ResourceId(self.capacities.len() - 1)
    }

    /// Number of registered resources.
    pub fn resources(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.capacities[r.0]
    }

    /// The one flow check every entry point runs (`solve`, `solve_reference`
    /// and [`crate::session::FlowBatch::new`]). `cap` is
    /// `f64::INFINITY` for an uncapped flow; a zero cap is legal (a dead
    /// flow), a NaN or negative one is not.
    pub(crate) fn validate_flow(&self, k: usize, path: &[u32], cap: f64, weight: f64) {
        assert!(cap >= 0.0, "flow {k} has a NaN or negative cap {cap}");
        assert!(
            !path.is_empty() || cap.is_finite(),
            "flow {k} has no resources and no cap: unbounded"
        );
        assert!(
            weight > 0.0 && weight.is_finite(),
            "flow {k} has non-positive weight {weight}"
        );
        for &r in path {
            assert!(
                (r as usize) < self.capacities.len(),
                "flow {k} references unknown resource ResourceId({r})"
            );
        }
    }

    fn validate_view(&self, v: &FlowsView<'_>) {
        for k in 0..v.len() {
            self.validate_flow(k, v.path(k), v.cap_of(k), v.weight_of(k));
        }
    }

    /// Flows dead on arrival: crossing an exhausted resource or carrying a
    /// zero cap. Their rate is 0 and they never join the water-filling.
    fn prefrozen(&self, f: &FlowSpec) -> bool {
        f.resources.iter().any(|r| self.capacities[r.0] <= EPS) || f.cap.is_some_and(|c| c <= EPS)
    }

    /// View-level twin of [`Self::prefrozen`].
    pub(crate) fn prefrozen_path(&self, path: &[u32], cap: f64) -> bool {
        path.iter().any(|&r| self.capacities[r as usize] <= EPS) || cap <= EPS
    }

    /// Solve for the max-min fair per-member rates of `flows` by
    /// event-driven water-filling over the whole flow set.
    ///
    /// Every flow must either cross at least one resource or carry a finite
    /// cap (otherwise its fair rate would be unbounded); caps must be
    /// non-negative and weights positive and finite. The call panics on any
    /// other input.
    pub fn solve(&self, flows: &[FlowSpec]) -> Vec<f64> {
        self.solve_specs(flows, false).0
    }

    /// Like [`Self::solve`], also returning the solver's event counters and
    /// the order in which resources saturated.
    pub fn solve_with_stats(&self, flows: &[FlowSpec]) -> (Vec<f64>, SolveStats) {
        self.solve_specs(flows, true)
    }

    fn solve_specs(&self, flows: &[FlowSpec], want_order: bool) -> (Vec<f64>, SolveStats) {
        let mut stats = SolveStats::default();
        let cols = FlowColumns::from_specs(flows);
        let all: Vec<u32> = (0..flows.len() as u32).collect();
        let rates = self.solve_view(&cols.view(&all), &mut stats, want_order);
        if spider_obs::enabled() {
            stats.flush_obs();
        }
        (rates, stats)
    }

    /// The event-driven solver core, running on a columnar [`FlowsView`].
    /// Returns per-member rates indexed by view position.
    pub(crate) fn solve_view(
        &self,
        flows: &FlowsView<'_>,
        stats: &mut SolveStats,
        want_order: bool,
    ) -> Vec<f64> {
        let n_res = self.capacities.len();
        let n_flows = flows.len();
        let mut rates = vec![0.0f64; n_flows];
        stats.flows = n_flows as u64;
        if n_flows == 0 {
            return rates;
        }
        self.validate_view(flows);

        // Weighted usage per resource from unfrozen flows, and the
        // resource -> flows adjacency (CSR; duplicates are fine because a
        // freeze is idempotent under the `frozen` flag).
        let mut active_weight = vec![0.0f64; n_res];
        let mut frozen = vec![false; n_flows];
        let mut unfrozen = n_flows;

        for (i, fz) in frozen.iter_mut().enumerate() {
            if self.prefrozen_path(flows.path(i), flows.cap_of(i)) {
                *fz = true;
                unfrozen -= 1;
                stats.prefrozen += 1;
            } else {
                let w = flows.weight_of(i);
                for &r in flows.path(i) {
                    active_weight[r as usize] += w;
                }
            }
        }

        let mut adj_off = vec![0usize; n_res + 1];
        for (i, &fz) in frozen.iter().enumerate() {
            if !fz {
                for &r in flows.path(i) {
                    adj_off[r as usize + 1] += 1;
                }
            }
        }
        for r in 0..n_res {
            adj_off[r + 1] += adj_off[r];
        }
        let mut adj = vec![0u32; adj_off[n_res]];
        {
            let mut cursor = adj_off.clone();
            for (i, &fz) in frozen.iter().enumerate() {
                if !fz {
                    for &r in flows.path(i) {
                        adj[cursor[r as usize]] = i as u32;
                        cursor[r as usize] += 1;
                    }
                }
            }
        }

        // Per-resource lazy state: remaining capacity as of `ckpt_level`.
        // remaining(level) = ckpt_remaining - active_weight * (level - ckpt).
        let mut ckpt_remaining = self.capacities.clone();
        let mut ckpt_level = vec![0.0f64; n_res];
        let mut saturated = vec![false; n_res];

        let saturation_level =
            |r: usize, ckpt_remaining: &[f64], ckpt_level: &[f64], active_weight: &[f64]| -> f64 {
                ckpt_level[r] + ckpt_remaining[r] / active_weight[r]
            };

        // Min-heap of predicted resource saturation levels. Entries are
        // lazy: a freeze moves a resource's prediction later and pushes a
        // fresh entry, leaving the old one stale in the heap. `latest_key`
        // holds the key of the newest entry per resource, so a popped entry
        // whose key doesn't match is discarded outright — the current entry
        // is still in the heap, and nothing is re-pushed (re-pushing on
        // stale pops would let duplicates multiply and go quadratic).
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let key = |level: f64| -> u64 {
            // Monotone map from non-negative floats to u64 for heap ordering.
            level.max(0.0).to_bits()
        };
        let mut latest_key = vec![u64::MAX; n_res];
        for r in 0..n_res {
            if active_weight[r] > EPS {
                let s = saturation_level(r, &ckpt_remaining, &ckpt_level, &active_weight);
                latest_key[r] = key(s);
                heap.push(Reverse((key(s), r as u32)));
                stats.heap_pushes += 1;
            }
        }

        // Cap events: unfrozen capped flows, ascending by cap.
        let mut by_cap: Vec<u32> = (0..n_flows as u32)
            .filter(|&i| !frozen[i as usize] && flows.cap_of(i as usize).is_finite())
            .collect();
        // Equal caps tie-break by view position: equal-cap freezes on a
        // shared resource subtract `active_weight` in a fixed order, which
        // the session's per-component solves rely on to stay bit-identical
        // to the whole-set solve (a component view preserves relative
        // positions).
        by_cap.sort_unstable_by(|&a, &b| {
            let ca = flows.cap_of(a as usize);
            let cb = flows.cap_of(b as usize);
            ca.total_cmp(&cb).then(a.cmp(&b))
        });
        let mut cap_cursor = 0usize;

        // Freezing a flow at the current level: record its rate and remove
        // its weight from every resource it crosses (advancing each
        // resource's checkpoint to `level` first so lazily-accrued usage is
        // accounted), then reschedule those resources in the heap.
        macro_rules! freeze_flow {
            ($i:expr, $rate:expr, $level:expr) => {{
                let i = $i;
                frozen[i] = true;
                unfrozen -= 1;
                rates[i] = $rate;
                let w = flows.weight_of(i);
                for &r in flows.path(i) {
                    let r = r as usize;
                    ckpt_remaining[r] -= active_weight[r] * ($level - ckpt_level[r]);
                    ckpt_level[r] = $level;
                    active_weight[r] -= w;
                    if !saturated[r] {
                        if ckpt_remaining[r] <= EPS {
                            // Fully drained by accrual: saturates right here.
                            latest_key[r] = key($level);
                            heap.push(Reverse((latest_key[r], r as u32)));
                            stats.heap_pushes += 1;
                        } else if active_weight[r] > EPS {
                            let s =
                                saturation_level(r, &ckpt_remaining, &ckpt_level, &active_weight);
                            latest_key[r] = key(s);
                            heap.push(Reverse((latest_key[r], r as u32)));
                            stats.heap_pushes += 1;
                        } else {
                            // No unfrozen flow crosses r: it can no longer
                            // saturate; invalidate any live entry.
                            latest_key[r] = u64::MAX;
                        }
                    }
                }
            }};
        }

        let mut level = 0.0f64;
        while unfrozen > 0 {
            stats.rounds += 1;
            // Skip cap entries frozen meanwhile (by resource saturation).
            while cap_cursor < by_cap.len() && frozen[by_cap[cap_cursor] as usize] {
                cap_cursor += 1;
            }
            let next_cap = if cap_cursor < by_cap.len() {
                // by_cap indexes only finitely-capped flows.
                flows.cap_of(by_cap[cap_cursor] as usize)
            } else {
                f64::INFINITY
            };

            // Discard stale heap entries (key no longer the resource's
            // latest) until the top is current.
            let next_res = loop {
                match heap.peek() {
                    None => break None,
                    Some(&Reverse((k, r))) => {
                        let r = r as usize;
                        if saturated[r] || active_weight[r] <= EPS || k != latest_key[r] {
                            heap.pop();
                            stats.heap_pops += 1;
                            stats.stale_discards += 1;
                            continue;
                        }
                        let s = saturation_level(r, &ckpt_remaining, &ckpt_level, &active_weight);
                        break Some((s.max(level), r));
                    }
                }
            };

            match (next_res, next_cap.is_finite()) {
                (None, false) => {
                    // No binding constraint remains; cannot happen for
                    // validated flows (every unfrozen flow is capped or
                    // crosses a resource it weights down), but mirror the
                    // reference solver's defensive stop.
                    break;
                }
                (Some((s, _)), true) if next_cap <= s => {
                    // Cap event first.
                    level = next_cap;
                    let i = by_cap[cap_cursor] as usize;
                    cap_cursor += 1;
                    stats.cap_freezes += 1;
                    freeze_flow!(i, next_cap, level);
                }
                (None, true) => {
                    level = next_cap;
                    let i = by_cap[cap_cursor] as usize;
                    cap_cursor += 1;
                    stats.cap_freezes += 1;
                    freeze_flow!(i, next_cap, level);
                }
                (Some((s, r)), _) => {
                    // Resource saturation event: freeze every unfrozen flow
                    // crossing `r` at the saturation level.
                    level = s;
                    heap.pop();
                    stats.heap_pops += 1;
                    saturated[r] = true;
                    if want_order {
                        stats.saturation_order.push(r as u32);
                    }
                    for &fi in &adj[adj_off[r]..adj_off[r + 1]] {
                        let i = fi as usize;
                        if !frozen[i] {
                            stats.saturation_freezes += 1;
                            freeze_flow!(i, level, level);
                        }
                    }
                }
            }
        }
        rates
    }

    /// Solve by the naive progressive-filling loop: every round rescans all
    /// flows and resources for the binding increment. Kept verbatim (modulo
    /// weights) as the differential-testing oracle for [`Self::solve`];
    /// worst case O(flows² × path).
    pub fn solve_reference(&self, flows: &[FlowSpec]) -> Vec<f64> {
        let n_res = self.capacities.len();
        let n_flows = flows.len();
        let mut rates = vec![0.0f64; n_flows];
        if n_flows == 0 {
            return rates;
        }
        let all: Vec<u32> = (0..n_flows as u32).collect();
        self.validate_view(&FlowColumns::from_specs(flows).view(&all));

        let mut remaining = self.capacities.clone();
        // Weighted usage of each unfrozen flow class on each resource.
        let mut active_weight = vec![0.0f64; n_res];
        let mut frozen = vec![false; n_flows];
        for f in flows {
            for r in &f.resources {
                active_weight[r.0] += f.weight;
            }
        }
        // Immediately freeze flows over exhausted resources.
        let mut unfrozen = n_flows;
        for (i, f) in flows.iter().enumerate() {
            if self.prefrozen(f) {
                frozen[i] = true;
                unfrozen -= 1;
                for r in &f.resources {
                    active_weight[r.0] -= f.weight;
                }
            }
        }

        while unfrozen > 0 {
            // The largest uniform increment every unfrozen flow can take.
            let mut delta = f64::INFINITY;
            for r in 0..n_res {
                if active_weight[r] > EPS {
                    delta = delta.min(remaining[r] / active_weight[r]);
                }
            }
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                if let Some(cap) = f.cap {
                    delta = delta.min(cap - rates[i]);
                }
            }
            if !delta.is_finite() {
                // No binding constraint remains (flows with only unlimited
                // resources); nothing more to allocate fairly — stop.
                break;
            }
            let delta = delta.max(0.0);

            // Apply the increment.
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                rates[i] += delta;
                for r in &f.resources {
                    remaining[r.0] -= delta * f.weight;
                }
            }

            // Freeze flows at saturated resources or at their caps.
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let capped = f.cap.is_some_and(|c| rates[i] >= c - EPS);
                let saturated = f.resources.iter().any(|r| remaining[r.0] <= EPS);
                if capped || saturated {
                    frozen[i] = true;
                    unfrozen -= 1;
                    for r in &f.resources {
                        active_weight[r.0] -= f.weight;
                    }
                }
            }
        }
        rates
    }

    /// Aggregate rate honoring class weights: `Σ weight × rate`.
    pub fn weighted_total(flows: &[FlowSpec], rates: &[f64]) -> f64 {
        flows.iter().zip(rates).map(|(f, r)| f.weight * r).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert the event-driven and reference solvers agree on `flows`.
    fn assert_solvers_agree(p: &MaxMinProblem, flows: &[FlowSpec]) -> Vec<f64> {
        let fast = p.solve(flows);
        let slow = p.solve_reference(flows);
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "flow {i}: event-driven {a} vs reference {b}"
            );
        }
        fast
    }

    #[test]
    fn single_bottleneck_shared_equally() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let flows: Vec<FlowSpec> = (0..5).map(|_| FlowSpec::new(vec![r])).collect();
        let rates = assert_solvers_agree(&p, &flows);
        for rate in &rates {
            assert!((rate - 2.0).abs() < 1e-6, "{rate}");
        }
    }

    #[test]
    fn classic_three_flow_line_network() {
        // Two links of capacity 1. Flow A crosses both, B crosses link 1,
        // C crosses link 2. Max-min: A=0.5, B=0.5, C=0.5.
        let mut p = MaxMinProblem::new();
        let l1 = p.add_resource(1.0);
        let l2 = p.add_resource(1.0);
        let flows = vec![
            FlowSpec::new(vec![l1, l2]),
            FlowSpec::new(vec![l1]),
            FlowSpec::new(vec![l2]),
        ];
        let rates = assert_solvers_agree(&p, &flows);
        assert!((rates[0] - 0.5).abs() < 1e-6);
        assert!((rates[1] - 0.5).abs() < 1e-6);
        assert!((rates[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // Link 1 cap 1 shared by A,B; link 2 cap 10 used by B,C.
        // A=B=0.5; C fills the rest of link 2 => 9.5.
        let mut p = MaxMinProblem::new();
        let l1 = p.add_resource(1.0);
        let l2 = p.add_resource(10.0);
        let flows = vec![
            FlowSpec::new(vec![l1]),
            FlowSpec::new(vec![l1, l2]),
            FlowSpec::new(vec![l2]),
        ];
        let rates = assert_solvers_agree(&p, &flows);
        assert!((rates[0] - 0.5).abs() < 1e-6);
        assert!((rates[1] - 0.5).abs() < 1e-6);
        assert!((rates[2] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn flow_caps_release_capacity_to_others() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let flows = vec![FlowSpec::new(vec![r]).with_cap(1.0), FlowSpec::new(vec![r])];
        let rates = assert_solvers_agree(&p, &flows);
        assert!((rates[0] - 1.0).abs() < 1e-6);
        assert!((rates[1] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_resource_starves_flows() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let live = p.add_resource(5.0);
        let flows = vec![
            FlowSpec::new(vec![dead, live]),
            FlowSpec::new(vec![live]),
            FlowSpec::new(vec![live]).with_cap(0.0), // a zero cap is a dead flow too
        ];
        let rates = assert_solvers_agree(&p, &flows);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 5.0).abs() < 1e-6);
        assert_eq!(rates[2], 0.0);
    }

    #[test]
    fn duplicate_resource_entries_count_double() {
        // A flow crossing the same link twice gets half the share.
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(6.0);
        let flows = vec![FlowSpec::new(vec![r, r]), FlowSpec::new(vec![r])];
        let rates = assert_solvers_agree(&p, &flows);
        // Water-filling: both grow at rate t; resource drains at 3t;
        // saturates at t=2: A=2 (uses 4), B=2 (uses 2).
        assert!((rates[0] - 2.0).abs() < 1e-6);
        assert!((rates[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cap_only_flow_is_fine() {
        let p = MaxMinProblem::new();
        let flows = vec![FlowSpec::new(vec![]).with_cap(3.0)];
        let rates = assert_solvers_agree(&p, &flows);
        assert!((rates[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn uncapped_resource_free_flow_panics() {
        let p = MaxMinProblem::new();
        let _ = p.solve(&[FlowSpec::new(vec![])]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_panics() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let _ = p.solve(&[FlowSpec::new(vec![r]).with_weight(0.0)]);
    }

    #[test]
    #[should_panic(expected = "NaN or negative cap")]
    fn nan_cap_panics_in_solve() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let _ = p.solve(&[
            FlowSpec::new(vec![r]).with_cap(f64::NAN),
            FlowSpec::new(vec![r]).with_cap(1.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "NaN or negative cap")]
    fn negative_cap_panics_in_solve_reference() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let _ = p.solve_reference(&[FlowSpec::new(vec![r]).with_cap(-1.0)]);
    }

    #[test]
    #[should_panic(expected = "resource capacity must be non-negative and finite")]
    fn nan_capacity_panics() {
        let _ = MaxMinProblem::new().add_resource(f64::NAN);
    }

    #[test]
    fn weighted_class_equals_expanded_members() {
        // One class of weight 7 plus one unit flow == 8 unit flows on the
        // member level, everywhere in the chain.
        let mut p = MaxMinProblem::new();
        let a = p.add_resource(12.0);
        let b = p.add_resource(30.0);
        let classes = vec![
            FlowSpec::new(vec![a, b]).with_weight(7.0),
            FlowSpec::new(vec![b]).with_cap(3.0),
        ];
        let expanded: Vec<FlowSpec> = (0..7)
            .map(|_| FlowSpec::new(vec![a, b]))
            .chain(std::iter::once(FlowSpec::new(vec![b]).with_cap(3.0)))
            .collect();
        let class_rates = assert_solvers_agree(&p, &classes);
        let member_rates = assert_solvers_agree(&p, &expanded);
        assert!((class_rates[0] - member_rates[0]).abs() < 1e-9);
        assert!((class_rates[1] - member_rates[7]).abs() < 1e-9);
        // Conservation including weights.
        let used_a = 7.0 * class_rates[0];
        assert!(used_a <= 12.0 + 1e-6);
        assert!((used_a - 12.0).abs() < 1e-6, "a saturates: {used_a}");
    }

    #[test]
    fn fractional_weights_scale_shares() {
        // Weight acts as a fair-share multiplier at the resource: a class
        // of weight 3 drains 3x faster but each member still gets the
        // common level.
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(8.0);
        let flows = vec![
            FlowSpec::new(vec![r]).with_weight(3.0),
            FlowSpec::new(vec![r]),
        ];
        let rates = assert_solvers_agree(&p, &flows);
        assert!((rates[0] - 2.0).abs() < 1e-6);
        assert!((rates[1] - 2.0).abs() < 1e-6);
        assert!((MaxMinProblem::weighted_total(&flows, &rates) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn conservation_no_resource_oversubscribed() {
        let mut p = MaxMinProblem::new();
        let rs: Vec<ResourceId> = (0..10).map(|i| p.add_resource(1.0 + i as f64)).collect();
        let mut rng = spider_simkit::SimRng::seed_from_u64(1);
        let flows: Vec<FlowSpec> = (0..100)
            .map(|_| {
                let k = 1 + rng.index(4);
                let picked = rng.sample_indices(rs.len(), k);
                FlowSpec::new(picked.into_iter().map(|i| rs[i]).collect())
            })
            .collect();
        let rates = assert_solvers_agree(&p, &flows);
        let mut usage = [0.0; 10];
        for (f, rate) in flows.iter().zip(&rates) {
            for r in &f.resources {
                usage[r.0] += rate;
            }
        }
        for (u, r) in usage.iter().zip(&rs) {
            assert!(*u <= p.capacity(*r) + 1e-6, "resource oversubscribed");
        }
        // Max-min property spot check: every flow is either at a saturated
        // resource or unconstrained.
        for (f, rate) in flows.iter().zip(&rates) {
            let bottlenecked = f
                .resources
                .iter()
                .any(|r| usage[r.0] >= p.capacity(*r) - 1e-6);
            assert!(bottlenecked || *rate > 0.0);
        }
    }

    #[test]
    fn randomized_differential_with_weights_and_dead_resources() {
        let mut rng = spider_simkit::SimRng::seed_from_u64(7);
        for trial in 0..50 {
            let mut p = MaxMinProblem::new();
            let n_res = 1 + rng.index(12);
            let rs: Vec<ResourceId> = (0..n_res)
                .map(|_| {
                    // ~1 in 6 resources is exhausted.
                    let cap = if rng.chance(1.0 / 6.0) {
                        0.0
                    } else {
                        rng.range_f64(0.5, 50.0)
                    };
                    p.add_resource(cap)
                })
                .collect();
            let n_flows = 1 + rng.index(60);
            let flows: Vec<FlowSpec> = (0..n_flows)
                .map(|_| {
                    let k = 1 + rng.index(4);
                    let path: Vec<ResourceId> = (0..k).map(|_| rs[rng.index(n_res)]).collect();
                    let mut f = FlowSpec::new(path);
                    if rng.chance(0.5) {
                        f = f.with_cap(rng.range_f64(0.05, 10.0));
                    }
                    if rng.chance(0.5) {
                        f = f.with_weight(rng.range_f64(0.5, 20.0));
                    }
                    f
                })
                .collect();
            let _ = assert_solvers_agree(&p, &flows);
            let _ = trial;
        }
    }

    #[test]
    fn scale_smoke_20k_flows() {
        // Titan-scale: 18,688 clients over ~3,000 resources solves quickly.
        let mut p = MaxMinProblem::new();
        let res: Vec<ResourceId> = (0..3_000).map(|_| p.add_resource(100.0)).collect();
        let flows: Vec<FlowSpec> = (0..20_000)
            .map(|i| {
                FlowSpec::new(vec![res[i % 440], res[440 + i % 288], res[1000 + i % 2000]])
                    .with_cap(5.0)
            })
            .collect();
        let rates = p.solve(&flows);
        assert_eq!(rates.len(), 20_000);
        assert!(rates.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn solve_stats_account_for_every_flow() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let l1 = p.add_resource(1.0);
        let l2 = p.add_resource(10.0);
        let flows = vec![
            FlowSpec::new(vec![l1, l2]),
            FlowSpec::new(vec![l1]),
            FlowSpec::new(vec![l2]).with_cap(0.1),
            FlowSpec::new(vec![dead]),
        ];
        let (rates, stats) = p.solve_with_stats(&flows);
        assert_eq!(rates, p.solve(&flows));
        assert_eq!(stats.flows, 4);
        // Every flow ends frozen exactly once, by exactly one cause.
        assert_eq!(
            stats.prefrozen + stats.cap_freezes + stats.saturation_freezes,
            4
        );
        assert_eq!(stats.prefrozen, 1);
        assert_eq!(stats.cap_freezes, 1);
        assert_eq!(stats.saturation_freezes, 2);
        assert!(stats.rounds >= 2);
        assert!(stats.heap_pops <= stats.heap_pushes);
        // l1 saturates (0.5 + 0.5); l2 never does (0.5 + 0.1 < 10).
        assert_eq!(stats.saturation_order, vec![l1.0 as u32]);
    }

    #[test]
    fn scale_with_distinct_caps_matches_reference() {
        // The reference solver's adversarial shape: many distinct caps force
        // it through one full rescan per freeze. Differential at a size
        // where the oracle is still tractable.
        let mut p = MaxMinProblem::new();
        let res: Vec<ResourceId> = (0..300)
            .map(|i| p.add_resource(50.0 + (i % 5) as f64))
            .collect();
        let flows: Vec<FlowSpec> = (0..2_000)
            .map(|i| {
                FlowSpec::new(vec![res[i % 44], res[44 + i % 28], res[100 + i % 200]])
                    .with_cap(0.5 + (i as f64) * 1e-3)
            })
            .collect();
        let _ = assert_solvers_agree(&p, &flows);
    }
}
