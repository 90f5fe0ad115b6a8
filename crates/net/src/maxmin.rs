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
//! min-heap, and cap events come from a cap-sorted cursor. An event freezes
//! every flow it binds at one level — the unfrozen flows crossing the
//! saturated resource, or every unfrozen flow whose cap equals the level —
//! applying each flow's checkpoint and weight updates in flow order, and
//! then reschedules each resource those flows cross once. An event thus
//! costs O(frozen flows × path + touched resources × log R), and the heap
//! takes one entry per touched resource rather than one per flow and
//! resource. Per-resource state is sized by the capacities the caller
//! passes: the whole problem for a stateless solve, one component's
//! resources, renumbered in ascending order, for a
//! [`SolveSession`](crate::session::SolveSession)'s cold solve. All of it
//! lives in one workspace that a caller may reuse across solves, so only the
//! returned rates allocate.
//!
//! [`MaxMinProblem::solve_reference`] is the naive full-rescan loop kept as
//! the differential-testing oracle; both must agree to within 1e-6.
//!
//! # A certificate
//!
//! [`MaxMinProblem::verify`] checks an allocation without a second solver,
//! in O(flows × path): every resource and every cap is respected, a
//! prefrozen flow gets exactly 0, and every other flow sits at its cap or
//! crosses a saturated resource on which its per-member rate is the
//! largest. Its [`Witness`] names each flow's binding cap or resource.
//! Debug builds verify every solve the core runs, stateless and session
//! alike.
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

    /// Set the class multiplicity (finite and above the solver's `EPS`,
    /// 1e-9).
    pub fn with_weight(mut self, weight: f64) -> Self {
        check_weight(weight, format_args!("flow"));
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

/// The weight check of both entry points that take one
/// ([`FlowSpec::with_weight`] and [`MaxMinProblem::validate_flow`]): a
/// weight must be finite and above `EPS`. Water-filling skips a resource
/// whose active weight is at most `EPS`, so a flow of such a weight would
/// never be bottlenecked and would end unfrozen at rate 0.
fn check_weight(weight: f64, flow: std::fmt::Arguments<'_>) {
    assert!(
        weight > EPS && weight.is_finite(),
        "{flow} weight must be positive, finite and above {EPS:e}, got {weight}"
    );
}

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
    /// Event-loop rounds: one per saturation event and one per flow frozen
    /// at its cap.
    pub rounds: u64,
    /// Flows frozen by reaching their intrinsic per-member cap.
    pub cap_freezes: u64,
    /// Flows frozen because a resource on their path saturated.
    pub saturation_freezes: u64,
    /// Heap entries pushed (initial schedule plus one reschedule per
    /// resource an event touched).
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

/// Columnar (structure-of-arrays) flow storage: CSR paths plus cap and
/// weight columns, one row per flow, in solve order.
///
/// This is the representation the solver core ([`water_fill`]) runs on.
/// [`MaxMinProblem::solve`] flattens its `&[FlowSpec]` argument into
/// transient columns; the incremental [`crate::session::SolveSession`] keeps
/// its live flows in their batches' columns across calls and gathers one
/// component's rows at a time, its resources renumbered. Both paths execute
/// the *same* float operations, which is what makes session results
/// bit-identical to from-scratch solves.
#[derive(Debug, Clone)]
pub(crate) struct FlowColumns {
    /// CSR offsets into `path_res`, indexed by row (`rows + 1` long).
    pub(crate) path_off: Vec<u32>,
    /// Flattened resource indices of every row's path.
    pub(crate) path_res: Vec<u32>,
    /// Per-row intrinsic per-member cap; `f64::INFINITY` means uncapped.
    pub(crate) cap: Vec<f64>,
    /// Per-row class weight.
    pub(crate) weight: Vec<f64>,
}

impl Default for FlowColumns {
    /// No rows: `path_off` holds only the leading 0.
    fn default() -> Self {
        FlowColumns::with_capacity(0, 0)
    }
}

impl FlowColumns {
    /// No rows, with room for `rows` flows over `entries` path entries.
    pub(crate) fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut path_off = Vec::with_capacity(rows + 1);
        path_off.push(0);
        FlowColumns {
            path_off,
            path_res: Vec::with_capacity(entries),
            cap: Vec::with_capacity(rows),
            weight: Vec::with_capacity(rows),
        }
    }

    /// Flatten specs into columns, one row per spec.
    pub(crate) fn from_specs(flows: &[FlowSpec]) -> Self {
        let entries = flows.iter().map(|f| f.resources.len()).sum();
        let mut cols = FlowColumns::with_capacity(flows.len(), entries);
        for f in flows {
            cols.push(&f.resources, f.cap, f.weight);
        }
        cols
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.cap.len()
    }

    /// Drop every row, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.path_off.truncate(1);
        self.path_res.clear();
        self.cap.clear();
        self.weight.clear();
    }

    /// Append a flow as the last row.
    pub(crate) fn push(&mut self, path: &[ResourceId], cap: Option<f64>, weight: f64) {
        self.path_res.extend(path.iter().map(|r| r.0 as u32));
        self.path_off.push(self.path_res.len() as u32);
        self.cap.push(cap.unwrap_or(f64::INFINITY));
        self.weight.push(weight);
    }

    /// Append row `row` of `src` as the last row, each resource `r` of its
    /// path renamed `local[r]`.
    pub(crate) fn push_row_renamed(&mut self, src: &FlowColumns, row: usize, local: &[u32]) {
        self.path_res
            .extend(src.path(row).iter().map(|&r| local[r as usize]));
        self.path_off.push(self.path_res.len() as u32);
        self.cap.push(src.cap[row]);
        self.weight.push(src.weight[row]);
    }

    /// Resource indices crossed by the flow in row `row`.
    pub(crate) fn path(&self, row: usize) -> &[u32] {
        &self.path_res[self.path_off[row] as usize..self.path_off[row + 1] as usize]
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

/// Flows dead on arrival: crossing an exhausted resource or carrying a zero
/// cap. Their rate is 0 and they never join the water-filling.
fn prefrozen(capacities: &[f64], path: &[u32], cap: f64) -> bool {
    path.iter().any(|&r| capacities[r as usize] <= EPS) || cap <= EPS
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

    /// The one flow check every entry point runs (`solve`, `solve_reference`,
    /// [`crate::session::FlowBatch::new`] and a session's cold solves).
    /// `cap` is `f64::INFINITY` for an uncapped flow; a zero cap is legal (a
    /// dead flow), a NaN or negative one is not.
    pub(crate) fn validate_flow(&self, k: usize, path: &[u32], cap: f64, weight: f64) {
        assert!(cap >= 0.0, "flow {k} has a NaN or negative cap {cap}");
        assert!(
            !path.is_empty() || cap.is_finite(),
            "flow {k} has no resources and no cap: unbounded"
        );
        check_weight(weight, format_args!("flow {k}"));
        for &r in path {
            assert!(
                (r as usize) < self.capacities.len(),
                "flow {k} references unknown resource ResourceId({r})"
            );
        }
    }

    fn validate_columns(&self, cols: &FlowColumns) {
        for k in 0..cols.len() {
            self.validate_flow(k, cols.path(k), cols.cap[k], cols.weight[k]);
        }
    }

    /// Whether a flow over `resources` with `cap` is dead on arrival: it
    /// crosses an exhausted resource or carries a zero cap, so every solve
    /// gives it exactly 0 and it couples with no other flow.
    pub fn is_prefrozen(&self, resources: &[ResourceId], cap: Option<f64>) -> bool {
        resources.iter().any(|r| self.capacities[r.0] <= EPS) || cap.is_some_and(|c| c <= EPS)
    }

    /// [`Self::is_prefrozen`] for a columnar path (`cap` infinite when
    /// uncapped).
    pub(crate) fn prefrozen_path(&self, path: &[u32], cap: f64) -> bool {
        prefrozen(&self.capacities, path, cap)
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

    /// Validate `flows` against this problem's resources, then run the
    /// core over all of them.
    fn solve_specs(&self, flows: &[FlowSpec], want_order: bool) -> (Vec<f64>, SolveStats) {
        let cols = FlowColumns::from_specs(flows);
        self.validate_columns(&cols);
        let mut stats = SolveStats::default();
        let rates = water_fill(
            &self.capacities,
            &cols,
            &mut stats,
            want_order,
            &mut Workspace::default(),
        );
        if spider_obs::enabled() {
            stats.flush_obs();
        }
        (rates, stats)
    }

    /// Check `rates` (per-member, one per flow) against the max-min
    /// certificate for `flows` over this problem's resources; see
    /// [`Witness`] and [`Violation`]. Panics on flows a solve would reject,
    /// or if `rates` is not one rate per flow.
    pub fn verify(&self, flows: &[FlowSpec], rates: &[f64]) -> Result<Witness, Violation> {
        let cols = FlowColumns::from_specs(flows);
        self.validate_columns(&cols);
        verify(&self.capacities, &cols, rates)
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
        self.validate_columns(&FlowColumns::from_specs(flows));

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
            if self.is_prefrozen(&f.resources, f.cap) {
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

/// Monotone map from non-negative levels to heap keys.
fn key(level: f64) -> u64 {
    level.max(0.0).to_bits()
}

/// Clear `v` and fill it with `n` copies of `x`, keeping its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// Solver scratch, reused across solves: per-resource state, the
/// resource-to-flow adjacency, the heap's buffer, the cap order and
/// per-flow flags. Each solve sizes it to its own resources and flows.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Weighted usage per resource from unfrozen flows.
    active_weight: Vec<f64>,
    /// Remaining capacity as of `ckpt_level`: remaining(level) =
    /// `ckpt_remaining - active_weight × (level - ckpt_level)`.
    ckpt_remaining: Vec<f64>,
    ckpt_level: Vec<f64>,
    saturated: Vec<bool>,
    /// Key of each resource's newest heap entry; `u64::MAX` when none is
    /// current.
    latest_key: Vec<u64>,
    /// Resource -> unfrozen flows, CSR (`resources + 1` offsets).
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// Resources the current event's freezes touched, each once.
    touched: Vec<u32>,
    is_touched: Vec<bool>,
    frozen: Vec<bool>,
    /// Unfrozen capped flows, ascending by (cap, row).
    by_cap: Vec<u32>,
    /// Min-heap of predicted saturation levels, `(key, resource)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Workspace {
    /// Predicted saturation level of resource `r` from its checkpoint.
    fn saturation_level(&self, r: usize) -> f64 {
        self.ckpt_level[r] + self.ckpt_remaining[r] / self.active_weight[r]
    }

    /// Freeze row `i` at `level`: advance the checkpoint of every resource
    /// on its path to `level` (accounting the usage accrued since), remove
    /// its weight, and note each resource for [`Self::reschedule`].
    fn freeze(&mut self, flows: &FlowColumns, i: usize, level: f64) {
        self.frozen[i] = true;
        let w = flows.weight[i];
        for &r in flows.path(i) {
            let r = r as usize;
            self.ckpt_remaining[r] -= self.active_weight[r] * (level - self.ckpt_level[r]);
            self.ckpt_level[r] = level;
            self.active_weight[r] -= w;
            if !self.is_touched[r] {
                self.is_touched[r] = true;
                self.touched.push(r as u32);
            }
        }
    }

    /// Reschedule each resource the event at `level` touched, once: a
    /// drained one saturates right here, one still weighted down gets its
    /// new saturation level, and one no unfrozen flow crosses can no longer
    /// saturate, so any entry it has goes stale. Its state is final for the
    /// event, so the entry is the one the event's last freeze on it would
    /// have left.
    fn reschedule(&mut self, level: f64, stats: &mut SolveStats) {
        for t in 0..self.touched.len() {
            let r = self.touched[t] as usize;
            self.is_touched[r] = false;
            if self.saturated[r] {
                continue;
            }
            let k = if self.ckpt_remaining[r] <= EPS {
                key(level)
            } else if self.active_weight[r] > EPS {
                key(self.saturation_level(r))
            } else {
                self.latest_key[r] = u64::MAX;
                continue;
            };
            self.latest_key[r] = k;
            self.heap.push(Reverse((k, r as u32)));
            stats.heap_pushes += 1;
        }
        self.touched.clear();
    }
}

/// The event-driven water-filling core over `flows`, whose paths index
/// `capacities`. Returns per-member rates in row order. The flows must be
/// valid (see [`MaxMinProblem::validate_flow`]); `ws` may hold anything.
pub(crate) fn water_fill(
    capacities: &[f64],
    flows: &FlowColumns,
    stats: &mut SolveStats,
    want_order: bool,
    ws: &mut Workspace,
) -> Vec<f64> {
    let n_res = capacities.len();
    let n_flows = flows.len();
    let mut rates = vec![0.0f64; n_flows];
    stats.flows = n_flows as u64;
    if n_flows == 0 {
        return rates;
    }
    refill(&mut ws.active_weight, n_res, 0.0);
    refill(&mut ws.ckpt_level, n_res, 0.0);
    refill(&mut ws.saturated, n_res, false);
    refill(&mut ws.latest_key, n_res, u64::MAX);
    refill(&mut ws.is_touched, n_res, false);
    refill(&mut ws.adj_off, n_res + 1, 0);
    refill(&mut ws.frozen, n_flows, false);
    ws.ckpt_remaining.clear();
    ws.ckpt_remaining.extend_from_slice(capacities);
    ws.touched.clear();
    ws.heap.clear();

    // Weighted usage per resource from unfrozen flows, and the resource ->
    // flows adjacency (duplicates are fine: a freeze skips frozen flows).
    let mut unfrozen = n_flows;
    for i in 0..n_flows {
        let path = flows.path(i);
        if prefrozen(capacities, path, flows.cap[i]) {
            ws.frozen[i] = true;
            unfrozen -= 1;
            stats.prefrozen += 1;
        } else {
            let w = flows.weight[i];
            for &r in path {
                ws.active_weight[r as usize] += w;
                ws.adj_off[r as usize + 1] += 1;
            }
        }
    }
    for r in 0..n_res {
        ws.adj_off[r + 1] += ws.adj_off[r];
    }
    refill(&mut ws.adj, ws.adj_off[n_res] as usize, 0);
    // Fill each resource's list in row order, using its start as a cursor,
    // then shift the cursors (each ending at the next start) back.
    for i in 0..n_flows {
        if !ws.frozen[i] {
            for &r in flows.path(i) {
                let at = &mut ws.adj_off[r as usize];
                ws.adj[*at as usize] = i as u32;
                *at += 1;
            }
        }
    }
    ws.adj_off.copy_within(0..n_res, 1);
    ws.adj_off[0] = 0;

    // Min-heap of predicted resource saturation levels. Entries are lazy:
    // a reschedule moves a resource's prediction and pushes a fresh entry,
    // leaving the old one stale in the heap. `latest_key` holds the key of
    // the newest entry per resource, so a popped entry whose key doesn't
    // match is discarded outright — the current entry is still in the heap,
    // and nothing is re-pushed (re-pushing on stale pops would let
    // duplicates multiply and go quadratic).
    for r in 0..n_res {
        if ws.active_weight[r] > EPS {
            let k = key(ws.saturation_level(r));
            ws.latest_key[r] = k;
            ws.heap.push(Reverse((k, r as u32)));
            stats.heap_pushes += 1;
        }
    }

    // Cap events: unfrozen capped flows, ascending by cap. Equal caps
    // tie-break by row: equal-cap freezes on a shared resource subtract
    // `active_weight` in a fixed order, which the session's per-component
    // solves rely on to stay bit-identical to the whole-set solve (a
    // component's rows keep their relative order).
    ws.by_cap.clear();
    ws.by_cap.extend(
        (0..n_flows as u32)
            .filter(|&i| !ws.frozen[i as usize] && flows.cap[i as usize].is_finite()),
    );
    ws.by_cap.sort_unstable_by(|&a, &b| {
        let ca = flows.cap[a as usize];
        let cb = flows.cap[b as usize];
        ca.total_cmp(&cb).then(a.cmp(&b))
    });
    let mut cap_cursor = 0usize;

    let mut level = 0.0f64;
    while unfrozen > 0 {
        // Skip cap entries frozen meanwhile (by resource saturation).
        while cap_cursor < ws.by_cap.len() && ws.frozen[ws.by_cap[cap_cursor] as usize] {
            cap_cursor += 1;
        }
        let next_cap = match ws.by_cap.get(cap_cursor) {
            // by_cap indexes only finitely-capped flows.
            Some(&i) => flows.cap[i as usize],
            None => f64::INFINITY,
        };

        // Discard stale heap entries (key no longer the resource's latest)
        // until the top is current.
        let next_res = loop {
            match ws.heap.peek() {
                None => break None,
                Some(&Reverse((k, r))) => {
                    let r = r as usize;
                    if ws.saturated[r] || ws.active_weight[r] <= EPS || k != ws.latest_key[r] {
                        ws.heap.pop();
                        stats.heap_pops += 1;
                        stats.stale_discards += 1;
                        continue;
                    }
                    break Some((ws.saturation_level(r).max(level), r));
                }
            }
        };

        match next_res {
            None if !next_cap.is_finite() => {
                // No binding constraint remains; cannot happen for
                // validated flows (every unfrozen flow is capped or crosses
                // a resource it weights down), but mirror the reference
                // solver's defensive stop.
                stats.rounds += 1;
                break;
            }
            // Cap events win ties.
            Some((s, r)) if next_cap > s || !next_cap.is_finite() => {
                // Resource saturation event: freeze every unfrozen flow
                // crossing `r` at the saturation level.
                stats.rounds += 1;
                level = s;
                ws.heap.pop();
                stats.heap_pops += 1;
                ws.saturated[r] = true;
                if want_order {
                    stats.saturation_order.push(r as u32);
                }
                for j in ws.adj_off[r]..ws.adj_off[r + 1] {
                    let i = ws.adj[j as usize] as usize;
                    if !ws.frozen[i] {
                        stats.saturation_freezes += 1;
                        unfrozen -= 1;
                        rates[i] = level;
                        ws.freeze(flows, i, level);
                    }
                }
                ws.reschedule(level, stats);
            }
            _ => {
                // Cap event. Every other unfrozen flow capped at exactly
                // this level follows it: each would win the next round too,
                // since the next saturation level is at least `level`, so
                // no saturation can come between them.
                level = next_cap;
                while let Some(&i) = ws.by_cap.get(cap_cursor) {
                    let i = i as usize;
                    if flows.cap[i] != level {
                        break;
                    }
                    cap_cursor += 1;
                    if !ws.frozen[i] {
                        stats.rounds += 1;
                        stats.cap_freezes += 1;
                        unfrozen -= 1;
                        rates[i] = level;
                        ws.freeze(flows, i, level);
                    }
                }
                ws.reschedule(level, stats);
            }
        }
    }
    if cfg!(debug_assertions) {
        if let Err(v) = verify(capacities, flows, &rates) {
            panic!("water-filling broke the max-min certificate: {v:?}");
        }
    }
    rates
}

/// What binds one flow of a verified allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Dead on arrival (an exhausted resource or a zero cap): rate 0.
    Prefrozen,
    /// Held at its own per-member cap.
    Cap,
    /// Held by this saturated resource, on which no flow gets a larger
    /// per-member rate (the first such resource on its path).
    Resource(ResourceId),
}

/// A max-min certificate: what binds each flow, in flow order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// One bound per flow.
    pub bounds: Vec<Bound>,
}

/// How an allocation fails the max-min certificate. Resources and flows are
/// numbered as in the verified problem.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A resource carries more than its capacity: `load` is
    /// `Σ weight × rate` over its path entries.
    Oversubscribed {
        /// The resource.
        resource: ResourceId,
        /// Its load.
        load: f64,
        /// Its capacity.
        capacity: f64,
    },
    /// A flow gets more than its cap.
    AboveCap {
        /// The flow.
        flow: usize,
        /// Its rate.
        rate: f64,
        /// Its cap.
        cap: f64,
    },
    /// A prefrozen flow got a rate other than 0.
    PrefrozenRate {
        /// The flow.
        flow: usize,
        /// Its rate.
        rate: f64,
    },
    /// A flow below its cap crosses no saturated resource, so it could
    /// grow.
    Unbottlenecked {
        /// The flow.
        flow: usize,
        /// Its rate.
        rate: f64,
    },
    /// A flow below its cap gets less than another flow on every saturated
    /// resource it crosses.
    NotMaximal {
        /// The flow.
        flow: usize,
        /// The first saturated resource on its path.
        resource: ResourceId,
        /// Its rate.
        rate: f64,
        /// The largest per-member rate on `resource`.
        max: f64,
    },
}

/// Slack of every comparison in [`verify`]: the differential tests' 1e-6
/// relative bound plus the solver's `EPS`.
fn slack(x: f64) -> f64 {
    1e-6 * x.abs() + EPS
}

/// Check `rates` against the max-min certificate of `flows` over
/// `capacities` (Bertsekas & Gallager, *Data Networks*, §6.5) in
/// O(flows × path + resources): every resource is feasible, no flow exceeds
/// its cap, a prefrozen flow gets exactly 0, and every other flow sits at
/// its cap or crosses a saturated resource on which its per-member rate is
/// the largest. The flows must be valid.
pub(crate) fn verify(
    capacities: &[f64],
    flows: &FlowColumns,
    rates: &[f64],
) -> Result<Witness, Violation> {
    assert_eq!(rates.len(), flows.len(), "one rate per flow");
    // Per resource: its load and the largest per-member rate crossing it.
    let mut load = vec![0.0f64; capacities.len()];
    let mut top = vec![0.0f64; capacities.len()];
    for (i, &rate) in rates.iter().enumerate() {
        for &r in flows.path(i) {
            load[r as usize] += flows.weight[i] * rate;
            top[r as usize] = top[r as usize].max(rate);
        }
    }
    for (r, (&load, &capacity)) in load.iter().zip(capacities).enumerate() {
        if load > capacity + slack(capacity) {
            return Err(Violation::Oversubscribed {
                resource: ResourceId(r),
                load,
                capacity,
            });
        }
    }
    let saturated = |r: usize| load[r] >= capacities[r] - slack(capacities[r]);
    let mut bounds = Vec::with_capacity(rates.len());
    for (flow, &rate) in rates.iter().enumerate() {
        let (path, cap) = (flows.path(flow), flows.cap[flow]);
        if prefrozen(capacities, path, cap) {
            if rate != 0.0 {
                return Err(Violation::PrefrozenRate { flow, rate });
            }
            bounds.push(Bound::Prefrozen);
            continue;
        }
        if cap.is_finite() {
            if rate > cap + slack(cap) {
                return Err(Violation::AboveCap { flow, rate, cap });
            }
            if rate >= cap - slack(cap) {
                bounds.push(Bound::Cap);
                continue;
            }
        }
        let (mut bound, mut first_saturated) = (None, None);
        for r in path.iter().map(|&r| r as usize).filter(|&r| saturated(r)) {
            if rate >= top[r] - slack(top[r]) {
                bound = Some(r);
                break;
            }
            first_saturated.get_or_insert(r);
        }
        bounds.push(match (bound, first_saturated) {
            (Some(r), _) => Bound::Resource(ResourceId(r)),
            (None, Some(r)) => {
                return Err(Violation::NotMaximal {
                    flow,
                    resource: ResourceId(r),
                    rate,
                    max: top[r],
                })
            }
            (None, None) => return Err(Violation::Unbottlenecked { flow, rate }),
        });
    }
    Ok(Witness { bounds })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{FlowBatch, SolveSession};
    use std::sync::Arc;

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
    #[should_panic(expected = "weight must be positive, finite and above 1e-9")]
    fn sub_eps_weight_panics_in_with_weight() {
        let _ = FlowSpec::new(vec![ResourceId(0)]).with_weight(1e-10);
    }

    #[test]
    #[should_panic(expected = "flow 1 weight must be positive, finite and above 1e-9")]
    fn sub_eps_weight_panics_in_validate_flow() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        // The field is public, so a spec can skip `with_weight`.
        let mut tiny = FlowSpec::new(vec![r]);
        tiny.weight = 1e-10;
        let _ = p.solve(&[FlowSpec::new(vec![r]), tiny]);
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
    #[should_panic(expected = "resource capacity must be non-negative and finite")]
    fn infinite_capacity_panics() {
        let _ = MaxMinProblem::new().add_resource(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "weight must be positive, finite and above 1e-9")]
    fn infinite_weight_panics_in_with_weight() {
        let _ = FlowSpec::new(vec![ResourceId(0)]).with_weight(f64::INFINITY);
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

    #[test]
    fn one_shared_cap_freezes_in_one_event() {
        // Eight flows over three resources, all capped at 1.0, far below
        // every saturation level (100 / 8 at the busiest resource): one cap
        // event freezes all eight, counts one round per flow, and
        // reschedules each resource once.
        let mut p = MaxMinProblem::new();
        let rs: Vec<ResourceId> = (0..3).map(|_| p.add_resource(100.0)).collect();
        let flows: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::new(vec![rs[i % 3], rs[(i + 1) % 3]]).with_cap(1.0))
            .collect();
        let (rates, stats) = p.solve_with_stats(&flows);
        assert!(rates.iter().all(|&r| r == 1.0), "{rates:?}");
        assert_eq!(stats.cap_freezes, 8);
        assert_eq!(stats.rounds, 8);
        assert_eq!(stats.saturation_freezes, 0);
        let (resources, touched) = (3, 3);
        assert!(
            stats.heap_pushes <= resources + touched,
            "{} pushes",
            stats.heap_pushes
        );
        assert_eq!(rates, p.solve_reference(&flows));
    }

    #[test]
    fn verify_names_each_flows_bound() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let l1 = p.add_resource(1.0);
        let l2 = p.add_resource(10.0);
        let flows = vec![
            FlowSpec::new(vec![l1, l2]),
            FlowSpec::new(vec![l1]),
            FlowSpec::new(vec![l2]).with_cap(0.1),
            FlowSpec::new(vec![dead, l2]),
            FlowSpec::new(vec![l2]),
        ];
        let rates = p.solve(&flows);
        let witness = p.verify(&flows, &rates).expect("a solve is certified");
        assert_eq!(
            witness.bounds,
            vec![
                Bound::Resource(l1),
                Bound::Resource(l1),
                Bound::Cap,
                Bound::Prefrozen,
                Bound::Resource(l2),
            ]
        );
    }

    #[test]
    fn verify_certifies_an_empty_problem() {
        let p = MaxMinProblem::new();
        let rates = p.solve(&[]);
        assert_eq!(p.verify(&[], &rates), Ok(Witness { bounds: vec![] }));
        // As a session: nothing resident, then one empty batch.
        let mut sess = SolveSession::new(p.clone());
        sess.solve();
        let empty = sess.add_batch(&Arc::new(FlowBatch::new(&p, &[])));
        sess.solve();
        let rates = sess.rates_of_batch(empty).expect("solved");
        assert_eq!(p.verify(&[], rates), Ok(Witness { bounds: vec![] }));
        assert!(sess.components().is_empty());
    }

    #[test]
    fn verify_certifies_a_single_resource() {
        // The cap binds first (level 1 < 10 / 7); the other two then share
        // the remaining 3 over a weight of 6.
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let flows = vec![
            FlowSpec::new(vec![r]),
            FlowSpec::new(vec![r]).with_cap(1.0),
            FlowSpec::new(vec![r, r]).with_weight(2.5),
        ];
        let rates = p.solve(&flows);
        assert_eq!(rates, vec![1.5, 1.0, 1.5]);
        let witness = p.verify(&flows, &rates).expect("a solve is certified");
        assert_eq!(
            witness.bounds,
            vec![Bound::Resource(r), Bound::Cap, Bound::Resource(r)]
        );
    }

    #[test]
    fn verify_certifies_a_million_way_tie() {
        // 10^6 unit flows saturate one resource at one level, stateless and
        // as one session batch: every rate is the same bits, and each flow is
        // maximal on the resource.
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(3.0);
        let flows = vec![FlowSpec::new(vec![r]); 1_000_000];
        let rates = p.solve(&flows);
        assert!(rates.iter().all(|x| x.to_bits() == rates[0].to_bits()));
        let witness = p.verify(&flows, &rates).expect("a solve is certified");
        assert!(witness.bounds.iter().all(|b| *b == Bound::Resource(r)));
        let mut sess = SolveSession::new(p.clone());
        let first = sess.add_batch(&Arc::new(FlowBatch::new(&p, &flows)));
        sess.solve();
        let session = sess.rates_of_batch(first).expect("solved");
        assert!(session
            .iter()
            .map(|x| x.to_bits())
            .eq(rates.iter().map(|x| x.to_bits())));
        p.verify(&flows, session)
            .expect("a session solve is certified");
    }

    #[test]
    fn verify_rejects_an_oversubscribed_resource() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let flows = vec![FlowSpec::new(vec![r]), FlowSpec::new(vec![r])];
        assert_eq!(
            p.verify(&flows, &[0.6, 0.6]),
            Err(Violation::Oversubscribed {
                resource: r,
                load: 1.2,
                capacity: 1.0
            })
        );
    }

    #[test]
    fn verify_rejects_a_flow_below_its_cap_with_no_saturated_resource() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let flows = vec![FlowSpec::new(vec![r]).with_cap(0.8)];
        assert_eq!(
            p.verify(&flows, &[0.5]),
            Err(Violation::Unbottlenecked { flow: 0, rate: 0.5 })
        );
    }

    #[test]
    fn verify_rejects_a_flow_not_maximal_on_its_only_saturated_resource() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let wide = p.add_resource(50.0);
        let flows = vec![FlowSpec::new(vec![r]), FlowSpec::new(vec![wide, r])];
        assert_eq!(
            p.verify(&flows, &[0.75, 0.25]),
            Err(Violation::NotMaximal {
                flow: 1,
                resource: r,
                rate: 0.25,
                max: 0.75
            })
        );
    }

    #[test]
    fn verify_rejects_a_nonzero_prefrozen_rate() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let flows = vec![FlowSpec::new(vec![r]).with_cap(0.0), FlowSpec::new(vec![r])];
        assert_eq!(
            p.verify(&flows, &[0.5, 9.5]),
            Err(Violation::PrefrozenRate { flow: 0, rate: 0.5 })
        );
    }

    #[test]
    fn verify_rejects_a_flow_above_its_cap() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let flows = vec![FlowSpec::new(vec![r]).with_cap(1.0), FlowSpec::new(vec![r])];
        assert_eq!(
            p.verify(&flows, &[2.0, 8.0]),
            Err(Violation::AboveCap {
                flow: 0,
                rate: 2.0,
                cap: 1.0
            })
        );
    }
}
