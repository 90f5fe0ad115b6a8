//! Incremental max-min solving: a resident problem plus flow deltas.
//!
//! [`SolveSession`] keeps a [`MaxMinProblem`]'s resources and its live
//! flows' columns alive across solves, so a caller that re-solves under
//! churn (jobs arriving and completing, weights drifting) pays only for the
//! delta instead of rebuilding paths and resource tables every call:
//!
//! - [`SolveSession::add_flows`] / [`SolveSession::remove_flows`] /
//!   [`SolveSession::update_weight`] edit the resident flow set in place.
//! - Fixed points are memoized per *connected component* of the
//!   flow–resource coupling graph under a deterministic 128-bit signature
//!   of the component's paths, caps, and weights in solve order,
//!   deliberately blind to flow identity, so a recurring workload shape
//!   (the same checkpoint wave appearing with fresh [`FlowId`]s every
//!   period) warm-starts from its previous fixed point instead of
//!   re-running the water-filling.
//!
//! # Dense columns, per-flow digests
//!
//! The live flows are one row each in dense columns (path, cap, weight,
//! prefrozen flag, digest), kept in solve order: ascending [`FlowId`],
//! which is insertion order. An add appends a row; a
//! [`SolveSession::remove_flows`] batch compacts every column once, so the
//! columns — and the session's memory — are bounded by the live flows, not
//! by every flow the session has ever seen. One `add_flows` batch gets
//! consecutive handles, so its rows stay adjacent, and
//! [`SolveSession::rates_of_batch`] reads the batch's rates from the last
//! solve as one slice. Each flow's 128-bit digest of its path, cap bits and
//! weight bits is hashed once when it is added (and again on
//! [`SolveSession::update_weight`]); a component's signature folds its
//! members' digests in solve order, two words per member.
//!
//! # Component-scoped warm starts
//!
//! Two flows are *coupled* when they share a resource, directly or
//! transitively through other flows. Water-filling never moves capacity
//! between components of that graph, so the session keeps a component
//! index — a [`UnionFind`] over resources, unioned on every add; a remove
//! marks it for a lazy rebuild at the next solve — and keys its memo per
//! component. Churn on one job then invalidates only that job's component:
//! every untouched component replays its memoized fixed point and only the
//! touched ones re-run the water-filling, in parallel and in fixed
//! component order. That turns a checkpoint storm's per-event cost from
//! O(total flows) into O(touched component). The session is the only
//! place that decomposes: a one-shot [`MaxMinProblem::solve`] has no memo
//! to replay, and splitting it measured slower than solving it whole (see
//! the `maxmin` module docs).
//!
//! # Bitwise contract
//!
//! Session results are **bit-identical** to a from-scratch
//! [`MaxMinProblem::solve`] over the same active flows in session order.
//! Cold components run the *same* columnar core ([`MaxMinProblem`]'s
//! internal `solve_view`) that `solve` runs on the whole set, and a
//! component's solve is bitwise the whole solve restricted to its flows:
//! every float the core touches (`active_weight`, checkpoints, levels) is
//! per-resource state owned by exactly one component, events fire in
//! ascending level order with deterministic tie-breaks (cap events by
//! `(cap, flow position)`, saturation events by resource id), and the
//! water level is monotone — so the whole solve's event sequence
//! restricted to one component is that component's own event sequence.
//! Cache hits replay a fixed point that was itself produced by that core
//! for an identical component. The session never extrapolates a stale
//! fixed point numerically — that would converge to the same allocation
//! but through different roundoff, breaking the differential oracle.

use std::collections::BTreeMap;

use rayon::prelude::*;

use crate::maxmin::{drop_rows, FlowColumns, FlowSpec, MaxMinProblem, SolveStats};

/// Handle to a flow added to a [`SolveSession`]. Never reused within a
/// session, even after the flow is removed; handles ascend in insertion
/// order, which is the session's solve order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u32);

/// Event counters for one [`SolveSession`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calls to [`SolveSession::solve`].
    pub solves: u64,
    /// Solves answered entirely from the memo without running the core
    /// (every live component hit).
    pub cache_hits: u64,
    /// Solves that ran the water-filling core on at least one component
    /// (and populated the memo).
    pub cache_misses: u64,
    /// Event-loop rounds skipped by cache hits (the rounds the memoized
    /// solve originally cost, counted once per replay).
    pub rounds_saved: u64,
    /// Event-loop rounds actually executed by cold solves.
    pub rounds_executed: u64,
    /// Components re-solved cold.
    pub components_resolved: u64,
    /// Components replayed from the memo.
    pub components_skipped: u64,
    /// Memo entries evicted by the oldest-half policy.
    pub memo_evictions: u64,
}

/// A memoized fixed point: per-member rates of the non-prefrozen flows the
/// signature covers, in solve order, plus what the solve originally cost
/// and when the entry was inserted (for age-ordered eviction).
#[derive(Debug, Clone)]
struct MemoEntry {
    live_rates: Vec<f64>,
    rounds: u64,
    epoch: u64,
}

/// Bound on memoized fixed points; on overflow the oldest half (by
/// insertion epoch) is evicted — deterministic, and recent entries (the
/// workload shapes still recurring) survive, unlike a whole-map clear.
const MEMO_CAP: usize = 1024;

/// An incremental max-min solving session. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SolveSession {
    problem: MaxMinProblem,
    /// Live flows, one row each in solve order: `ids` holds each row's
    /// handle (ascending), `cols`, `prefrozen` and `digest` its inputs.
    ids: Vec<u32>,
    cols: FlowColumns,
    /// Per row: dead on arrival (exhausted resource on the path or zero
    /// cap). Capacities are fixed per session, so this never changes.
    prefrozen: Vec<bool>,
    /// Per row: [`flow_digest`] of its path, cap and weight.
    digest: Vec<[u64; 2]>,
    next_id: u32,
    memo: BTreeMap<[u64; 2], MemoEntry>,
    /// Insertion clock for memo entries; drives oldest-half eviction.
    next_epoch: u64,
    /// Incremental component index over resources: unioned on every add;
    /// a remove only marks `rebuild_pending` (a stale index is merely
    /// coarser — still a correct partition — so rebuilding can wait for
    /// the next solve).
    uf: UnionFind,
    rebuild_pending: bool,
    stats: SessionStats,
    /// Rates of the last [`SolveSession::solve`], aligned with
    /// `last_active` (the handles live at that solve).
    last_rates: Vec<f64>,
    last_active: Vec<u32>,
}

/// Union-find over dense `u32` indices (the session's component index over
/// resources; callers may reuse it for any coarser grouping). Unions always
/// keep the smaller root, so a set's representative is its minimum index —
/// a canonical label independent of union order.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merge the sets of `a` and `b`; the smaller root wins.
    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra < rb {
            self.parent[rb as usize] = ra;
        } else if rb < ra {
            self.parent[ra as usize] = rb;
        }
    }

    /// Merge every index in `members` into one set.
    pub fn union_all(&mut self, members: &[u32]) {
        if let Some((&first, rest)) = members.split_first() {
            for &r in rest {
                self.union(first, r);
            }
        }
    }
}

impl spider_simkit::MemFootprint for UnionFind {
    fn mem_bytes(&self) -> u64 {
        spider_simkit::slab_bytes::<u32>(self.parent.capacity())
    }
}

/// Fold one word into both lanes of a 128-bit hash state. The lanes run
/// two different 64-bit finalizers (SplitMix64's and MurmurHash3's), each
/// a bijection, so a lane's state depends on every word and its position.
fn fold(h: [u64; 2], v: [u64; 2]) -> [u64; 2] {
    let mut a = h[0] ^ v[0];
    a = (a ^ (a >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    a = (a ^ (a >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let mut b = h[1] ^ v[1];
    b = (b ^ (b >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    b = (b ^ (b >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    [a ^ (a >> 31), b ^ (b >> 33)]
}

/// Offset basis of every hash the session folds.
const HASH_BASIS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x9ae1_6a3b_2f90_404f];

/// One flow's 128-bit digest: its path length, resources, cap bits and
/// weight bits, folded word by word. Flow identity is deliberately left
/// out, so the same shape re-added under a fresh handle digests the same.
fn flow_digest(path: &[u32], cap: f64, weight: f64) -> [u64; 2] {
    std::iter::once(path.len() as u64)
        .chain(path.iter().map(|&r| u64::from(r)))
        .chain([cap.to_bits(), weight.to_bits()])
        .fold(HASH_BASIS, |h, v| fold(h, [v, v]))
}

impl SolveSession {
    /// Start a session over a built problem. The resource set is fixed for
    /// the session's lifetime; flows come and go through the delta API.
    pub fn new(problem: MaxMinProblem) -> Self {
        let uf = UnionFind::new(problem.resources());
        SolveSession {
            problem,
            ids: Vec::new(),
            cols: FlowColumns::default(),
            prefrozen: Vec::new(),
            digest: Vec::new(),
            next_id: 0,
            memo: BTreeMap::new(),
            next_epoch: 0,
            uf,
            rebuild_pending: false,
            stats: SessionStats::default(),
            last_rates: Vec::new(),
            last_active: Vec::new(),
        }
    }

    /// The underlying problem (resources and capacities).
    pub fn problem(&self) -> &MaxMinProblem {
        &self.problem
    }

    /// Number of currently active flows.
    pub fn active_len(&self) -> usize {
        self.ids.len()
    }

    /// Active flow ids in solve order (ascending).
    pub fn active_flows(&self) -> Vec<FlowId> {
        self.ids.iter().map(|&id| FlowId(id)).collect()
    }

    /// Row of an active flow, or `None` if `id` is not active.
    fn row_of(&self, id: FlowId) -> Option<usize> {
        self.ids.binary_search(&id.0).ok()
    }

    /// Whether `id` is currently active.
    pub fn is_active(&self, id: FlowId) -> bool {
        self.row_of(id).is_some()
    }

    /// Session event counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Add one flow; returns its handle.
    pub fn add_flow(&mut self, spec: &FlowSpec) -> FlowId {
        let id = self.next_id;
        self.next_id = id.checked_add(1).expect("flow handles exhausted");
        let row = self.cols.push(spec);
        let cap = self.cols.cap[row];
        let path = self.cols.path(row);
        self.problem
            .validate_flow(id as usize, path, cap, spec.weight);
        let prefrozen = self.problem.prefrozen_path(path, cap);
        if !prefrozen {
            // A live flow couples every resource on its path into one
            // component: union eagerly, the index only ever gets finer at
            // the lazy rebuild.
            self.uf.union_all(path);
        }
        self.prefrozen.push(prefrozen);
        self.digest.push(flow_digest(path, cap, spec.weight));
        // Handles grow monotonically, so appending keeps `ids` ascending.
        self.ids.push(id);
        FlowId(id)
    }

    /// Add a batch of flows; handles are returned in argument order, and
    /// they are consecutive.
    pub fn add_flows(&mut self, specs: &[FlowSpec]) -> Vec<FlowId> {
        specs.iter().map(|s| self.add_flow(s)).collect()
    }

    /// Remove an active flow. Panics if `id` is not active.
    pub fn remove_flow(&mut self, id: FlowId) {
        self.remove_flows(&[id]);
    }

    /// Remove a batch of active flows, compacting every column once.
    /// Panics if an id is not active or appears twice.
    pub fn remove_flows(&mut self, ids: &[FlowId]) {
        let mut rows: Vec<usize> = ids
            .iter()
            .map(|&id| {
                self.row_of(id)
                    .unwrap_or_else(|| panic!("flow {id:?} is not active"))
            })
            .collect();
        rows.sort_unstable();
        if let Some(pair) = rows.windows(2).find(|p| p[0] == p[1]) {
            panic!("flow {:?} is not active", FlowId(self.ids[pair[0]]));
        }
        if rows.is_empty() {
            return;
        }
        // A departed flow may have been the only bridge between resource
        // groups. Don't recompute now — a coarse index is still a correct
        // partition — just mark the index for rebuild at the next solve.
        if rows.iter().any(|&r| !self.prefrozen[r]) {
            self.rebuild_pending = true;
        }
        self.cols.remove_rows(&rows);
        drop_rows(&mut self.ids, &rows);
        drop_rows(&mut self.prefrozen, &rows);
        drop_rows(&mut self.digest, &rows);
    }

    /// Change the class weight of an active flow. Panics if `id` is not
    /// active or the weight is not positive and finite.
    pub fn update_weight(&mut self, id: FlowId, weight: f64) {
        let row = self
            .row_of(id)
            .unwrap_or_else(|| panic!("flow {id:?} is not active"));
        assert!(
            weight > 0.0 && weight.is_finite(),
            "flow {id:?} given non-positive weight {weight}"
        );
        self.cols.weight[row] = weight;
        self.digest[row] = flow_digest(self.cols.path(row), self.cols.cap[row], weight);
    }

    /// The deterministic signature of one component: its members' digests
    /// folded in solve order (`members` are rows, ascending, of a component
    /// with no prefrozen flow — a prefrozen flow is a singleton that is
    /// never signed, because its rate is always exactly 0). Flow handles
    /// are not in the digests, so identical component shapes on identical
    /// resources re-appearing with fresh ids still hit the memo.
    fn group_signature(&self, members: &[u32]) -> [u64; 2] {
        members
            .iter()
            .fold(HASH_BASIS, |h, &row| fold(h, self.digest[row as usize]))
    }

    /// Insert a memoized fixed point, evicting the oldest half (by
    /// insertion epoch) when the memo is full.
    fn memo_insert(&mut self, sig: [u64; 2], live_rates: Vec<f64>, rounds: u64) {
        if self.memo.len() >= MEMO_CAP {
            let mut by_epoch: Vec<([u64; 2], u64)> =
                self.memo.iter().map(|(k, e)| (*k, e.epoch)).collect();
            by_epoch.sort_unstable_by_key(|&(_, epoch)| epoch);
            let evict = by_epoch.len() / 2;
            for (k, _) in by_epoch.into_iter().take(evict) {
                self.memo.remove(&k);
            }
            self.stats.memo_evictions += evict as u64;
            if spider_obs::enabled() {
                spider_obs::counter_add("maxmin_memo_evictions", evict as u64);
            }
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.memo.insert(
            sig,
            MemoEntry {
                live_rates,
                rounds,
                epoch,
            },
        );
    }

    /// Partition the active flows into component groups of rows: each
    /// group ascending, groups ordered by smallest member. Cap-only and
    /// prefrozen flows are singletons — they never exchange capacity with
    /// anything. A remove since the last call triggers the lazy index
    /// rebuild first; between rebuilds the index may only be coarser than
    /// the true partition, never finer.
    fn groups(&mut self) -> Vec<Vec<u32>> {
        let rows = self.ids.len();
        if self.rebuild_pending {
            self.uf = UnionFind::new(self.problem.resources());
            for row in 0..rows {
                if !self.prefrozen[row] {
                    self.uf.union_all(self.cols.path(row));
                }
            }
            self.rebuild_pending = false;
        }
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut group_of_root = vec![u32::MAX; self.problem.resources()];
        for row in 0..rows {
            let path = self.cols.path(row);
            if path.is_empty() || self.prefrozen[row] {
                groups.push(vec![row as u32]);
            } else {
                let root = self.uf.find(path[0]) as usize;
                if group_of_root[root] == u32::MAX {
                    group_of_root[root] = groups.len() as u32;
                    groups.push(Vec::new());
                }
                groups[group_of_root[root] as usize].push(row as u32);
            }
        }
        groups
    }

    /// Connected components of the active flow set: groups of [`FlowId`]s,
    /// each ascending, groups ordered by smallest member.
    pub fn components(&mut self) -> Vec<Vec<FlowId>> {
        self.groups()
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&row| FlowId(self.ids[row as usize]))
                    .collect()
            })
            .collect()
    }

    /// Solve for the max-min fair per-member rates of the active flows, in
    /// solve order (ascending [`FlowId`]). Bit-identical to
    /// [`MaxMinProblem::solve`] over the same flows in the same order.
    ///
    /// Every component whose signature hits the memo replays its fixed
    /// point; the ones that miss re-solve in parallel, scattered back in
    /// fixed component order.
    pub fn solve(&mut self) -> &[f64] {
        self.stats.solves += 1;
        let groups = self.groups();

        self.last_rates.clear();
        self.last_rates.resize(self.ids.len(), 0.0);
        let mut missing: Vec<(usize, [u64; 2])> = Vec::new();
        let mut skipped = 0u64;
        let mut saved_rounds = 0u64;
        for (gi, members) in groups.iter().enumerate() {
            // Prefrozen flows are singleton components with rate exactly 0:
            // nothing to solve, nothing worth memoizing.
            if self.prefrozen[members[0] as usize] {
                continue;
            }
            let sig = self.group_signature(members);
            if let Some(entry) = self.memo.get(&sig) {
                skipped += 1;
                saved_rounds += entry.rounds;
                self.stats.rounds_saved += entry.rounds;
                for (&row, &r) in members.iter().zip(&entry.live_rates) {
                    self.last_rates[row as usize] = r;
                }
            } else {
                missing.push((gi, sig));
            }
        }
        self.stats.components_skipped += skipped;
        self.stats.components_resolved += missing.len() as u64;

        if missing.is_empty() {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
            let mut total = SolveStats::default();
            let solved: Vec<(Vec<f64>, SolveStats)> = {
                let problem = &self.problem;
                let cols = &self.cols;
                let tasks: Vec<&Vec<u32>> = missing.iter().map(|&(gi, _)| &groups[gi]).collect();
                tasks
                    .par_iter()
                    .map(|&members| {
                        let mut st = SolveStats::default();
                        let rates = problem.solve_view(&cols.view(members), &mut st, false);
                        (rates, st)
                    })
                    .collect()
            };
            // `collect` preserves task order; sorting by component id is the
            // explicit fixed-order barrier for the scatter below.
            let mut ordered: Vec<_> = missing.iter().copied().zip(solved).collect();
            ordered.sort_by_key(|&((gi, _), _)| gi);
            for ((gi, sig), (rates, st)) in ordered {
                for (&row, &r) in groups[gi].iter().zip(&rates) {
                    self.last_rates[row as usize] = r;
                }
                self.stats.rounds_executed += st.rounds;
                let rounds = st.rounds;
                total.flows += st.flows;
                total.prefrozen += st.prefrozen;
                total.rounds += st.rounds;
                total.cap_freezes += st.cap_freezes;
                total.saturation_freezes += st.saturation_freezes;
                total.heap_pushes += st.heap_pushes;
                total.heap_pops += st.heap_pops;
                total.stale_discards += st.stale_discards;
                self.memo_insert(sig, rates, rounds);
            }
            if spider_obs::enabled() {
                total.flush_obs();
                spider_obs::hist_record("maxmin_components_per_solve", groups.len() as f64);
            }
        }
        if spider_obs::enabled() {
            spider_obs::counter_add("maxmin_components_skipped", skipped);
            spider_obs::counter_add("maxmin_components_resolved", missing.len() as u64);
            if missing.is_empty() {
                spider_obs::counter_add("maxmin_cache_hits", 1);
                spider_obs::counter_add("maxmin_warm_rounds_saved", saved_rounds);
            } else {
                spider_obs::counter_add("maxmin_cache_misses", 1);
            }
        }
        self.last_active.clear();
        self.last_active.extend_from_slice(&self.ids);
        &self.last_rates
    }

    /// Per-member rates from the last [`Self::solve`], in solve order.
    /// Empty before the first solve.
    pub fn rates(&self) -> &[f64] {
        &self.last_rates
    }

    /// Rate of `id` in the last solve, or `None` if it was not active then.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.last_active
            .binary_search(&id.0)
            .ok()
            .map(|pos| self.last_rates[pos])
    }

    /// Rates in the last solve of a batch of consecutive handles, as one
    /// [`Self::add_flows`] call returns them. Consecutive handles are
    /// adjacent in solve order, so this is one search and one slice of the
    /// last solve's rates. `None` if any of them was not active then.
    /// Panics if the handles are not consecutive and ascending.
    pub fn rates_of_batch(&self, batch: &[FlowId]) -> Option<&[f64]> {
        let (Some(first), Some(last)) = (batch.first(), batch.last()) else {
            return Some(&[]);
        };
        assert!(
            last.0.checked_sub(first.0) == Some(batch.len() as u32 - 1),
            "handles {first:?}..={last:?} are not one batch of {}",
            batch.len()
        );
        let pos = self.last_active.binary_search(&first.0).ok()?;
        let end = pos + batch.len();
        (self.last_active.get(end - 1) == Some(&last.0)).then(|| &self.last_rates[pos..end])
    }
}

impl spider_simkit::MemFootprint for SolveSession {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        // BTreeMap nodes are opaque to capacity-based accounting; charge the
        // memo at its entry payloads (keys + fixed point vectors), which is
        // where the bytes actually are at scale.
        let memo: u64 = self
            .memo
            .values()
            .map(|e| 16 + std::mem::size_of::<MemoEntry>() as u64 + e.live_rates.mem_bytes())
            .sum();
        self.problem.mem_bytes()
            + slab_bytes::<u32>(self.ids.capacity())
            + self.cols.mem_bytes()
            + slab_bytes::<bool>(self.prefrozen.capacity())
            + slab_bytes::<[u64; 2]>(self.digest.capacity())
            + self.uf.mem_bytes()
            + slab_bytes::<f64>(self.last_rates.capacity())
            + slab_bytes::<u32>(self.last_active.capacity())
            + memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::ResourceId;
    use spider_simkit::MemFootprint;

    /// Specs of the session's active flows, for the from-scratch oracle.
    fn active_specs(sess: &SolveSession, all: &[FlowSpec], ids: &[FlowId]) -> Vec<FlowSpec> {
        sess.active_flows()
            .iter()
            .map(|id| {
                let k = ids.iter().position(|i| i == id).expect("known id");
                all[k].clone()
            })
            .collect()
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    #[test]
    fn cold_solve_matches_from_scratch_bitwise() {
        let mut p = MaxMinProblem::new();
        let l1 = p.add_resource(1.0);
        let l2 = p.add_resource(10.0);
        let specs = vec![
            FlowSpec::new(vec![l1, l2]),
            FlowSpec::new(vec![l1]).with_weight(3.0),
            FlowSpec::new(vec![l2]).with_cap(0.25),
        ];
        let oracle = p.solve(&specs);
        let mut sess = SolveSession::new(p);
        sess.add_flows(&specs);
        assert_eq!(bits(sess.solve()), bits(&oracle));
    }

    #[test]
    fn removal_and_update_track_from_scratch_bitwise() {
        let mut p = MaxMinProblem::new();
        let rs: Vec<ResourceId> = (0..6).map(|i| p.add_resource(2.0 + i as f64)).collect();
        let specs: Vec<FlowSpec> = (0..12)
            .map(|i| {
                FlowSpec::new(vec![rs[i % 6], rs[(i * 5 + 1) % 6]]).with_weight(1.0 + i as f64)
            })
            .collect();
        let mut sess = SolveSession::new(p.clone());
        let ids = sess.add_flows(&specs);
        sess.solve();

        sess.remove_flows(&[ids[1], ids[7]]);
        sess.update_weight(ids[4], 9.5);
        let mut all = specs.clone();
        all[4].weight = 9.5;
        let oracle = p.solve(&active_specs(&sess, &all, &ids));
        assert_eq!(bits(sess.solve()), bits(&oracle));
        assert!(!sess.is_active(ids[1]));
        assert!(sess.is_active(ids[4]));
    }

    #[test]
    fn identical_shape_with_fresh_ids_hits_the_memo() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(12.0);
        let wave = vec![
            FlowSpec::new(vec![r]).with_weight(4.0),
            FlowSpec::new(vec![r]).with_cap(1.5),
        ];
        let mut sess = SolveSession::new(p);
        let gen1 = sess.add_flows(&wave);
        let first = bits(sess.solve());
        sess.remove_flows(&gen1);
        let gen2 = sess.add_flows(&wave);
        let second = bits(sess.solve());
        assert_eq!(first, second);
        assert_eq!(sess.stats().cache_hits, 1);
        assert_eq!(sess.stats().cache_misses, 1);
        assert!(sess.stats().rounds_saved >= 1);
        assert_ne!(gen1, gen2, "ids are never reused");
    }

    #[test]
    fn prefrozen_flows_do_not_disturb_the_signature() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let live = p.add_resource(5.0);
        let mut sess = SolveSession::new(p);
        let a = sess.add_flow(&FlowSpec::new(vec![live]));
        sess.solve();
        // A dead flow joins: the active set changed but the signature (and
        // so the memo) must not — the extra flow's rate is exactly 0.
        let b = sess.add_flow(&FlowSpec::new(vec![dead, live]));
        let rates = sess.solve().to_vec();
        assert_eq!(sess.stats().cache_hits, 1);
        assert_eq!(rates, vec![5.0, 0.0]);
        assert_eq!(sess.rate_of(a), Some(5.0));
        assert_eq!(sess.rate_of(b), Some(0.0));
    }

    #[test]
    fn rate_of_reflects_the_last_solve_only() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(4.0);
        let mut sess = SolveSession::new(p);
        let a = sess.add_flow(&FlowSpec::new(vec![r]));
        assert_eq!(sess.rate_of(a), None, "before any solve");
        sess.solve();
        assert_eq!(sess.rate_of(a), Some(4.0));
        let b = sess.add_flow(&FlowSpec::new(vec![r]));
        assert_eq!(sess.rate_of(b), None, "added after the last solve");
        sess.solve();
        assert_eq!(sess.rate_of(b), Some(2.0));
    }

    #[test]
    fn batch_rates_are_one_slice_of_the_last_solve() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(6.0);
        let mut sess = SolveSession::new(p);
        let a = sess.add_flows(&[FlowSpec::new(vec![r]), FlowSpec::new(vec![r])]);
        let b = sess.add_flows(&[FlowSpec::new(vec![r]).with_weight(2.0)]);
        assert_eq!(sess.rates_of_batch(&a), None, "before any solve");
        sess.solve();
        assert_eq!(sess.rates_of_batch(&a), Some(&[1.5, 1.5][..]));
        assert_eq!(sess.rates_of_batch(&b), Some(&[1.5][..]));
        assert_eq!(sess.rates_of_batch(&[]), Some(&[][..]));
        // Removed after the last solve: the batch still reads that solve.
        sess.remove_flows(&a);
        assert_eq!(sess.rates_of_batch(&a), Some(&[1.5, 1.5][..]));
        sess.solve();
        assert_eq!(sess.rates_of_batch(&a), None);
        assert_eq!(sess.rates_of_batch(&b), Some(&[3.0][..]));
    }

    #[test]
    fn footprint_is_bounded_by_live_flows() {
        // One 1,008-class test, shaped like a paper namespace: each class
        // crosses a router, a couplet and its own OST. Every cycle adds it,
        // solves and removes it again; after the first cycle no column, no
        // memo entry and no scratch buffer may grow.
        let mut p = MaxMinProblem::new();
        let routers: Vec<ResourceId> = (0..36).map(|_| p.add_resource(2.5e9)).collect();
        let couplets: Vec<ResourceId> = (0..18).map(|_| p.add_resource(17.8e9)).collect();
        let osts: Vec<ResourceId> = (0..1008).map(|_| p.add_resource(0.4e9)).collect();
        let test: Vec<FlowSpec> = (0..1008)
            .map(|k| {
                FlowSpec::new(vec![routers[k % 36], couplets[k / 56], osts[k]])
                    .with_cap(55e6)
                    .with_weight(f64::from(1 + (k % 7) as u32))
            })
            .collect();
        let mut sess = SolveSession::new(p);
        let cycle = |sess: &mut SolveSession| {
            let ids = sess.add_flows(&test);
            sess.solve();
            sess.remove_flows(&ids);
            sess.mem_bytes()
        };
        let one = cycle(&mut sess);
        for k in 2..=8 {
            assert_eq!(cycle(&mut sess), one, "footprint after cycle {k}");
        }
        assert_eq!(sess.active_len(), 0);
        assert_eq!(sess.stats().cache_hits, 7, "every later cycle replays");
    }

    #[test]
    fn randomized_churn_differential_bitwise() {
        let mut rng = spider_simkit::SimRng::seed_from_u64(11);
        let mut p = MaxMinProblem::new();
        let rs: Vec<ResourceId> = (0..8)
            .map(|_| p.add_resource(rng.range_f64(0.5, 40.0)))
            .collect();
        let mut sess = SolveSession::new(p.clone());
        let mut live: Vec<(FlowId, FlowSpec)> = Vec::new();
        for _ in 0..120 {
            match rng.index(4) {
                0 | 1 => {
                    let k = 1 + rng.index(3);
                    let path: Vec<ResourceId> = (0..k).map(|_| rs[rng.index(rs.len())]).collect();
                    let mut f = FlowSpec::new(path);
                    if rng.chance(0.4) {
                        f = f.with_cap(rng.range_f64(0.05, 8.0));
                    }
                    if rng.chance(0.4) {
                        f = f.with_weight(rng.range_f64(0.5, 16.0));
                    }
                    let id = sess.add_flow(&f);
                    live.push((id, f));
                }
                2 if !live.is_empty() => {
                    let (id, _) = live.remove(rng.index(live.len()));
                    sess.remove_flow(id);
                }
                3 if !live.is_empty() => {
                    let j = rng.index(live.len());
                    let w = rng.range_f64(0.5, 16.0);
                    sess.update_weight(live[j].0, w);
                    live[j].1.weight = w;
                }
                _ => {}
            }
            // Oracle expects solve order: ascending FlowId.
            live.sort_by_key(|(id, _)| *id);
            let specs: Vec<FlowSpec> = live.iter().map(|(_, f)| f.clone()).collect();
            assert_eq!(bits(sess.solve()), bits(&p.solve(&specs)));
        }
        assert!(sess.stats().cache_misses > 0);
    }

    #[test]
    fn churn_resolves_only_the_touched_component() {
        // Two independent router zones; churning a job in zone B must
        // replay zone A's fixed point from the memo, not re-solve it.
        let mut p = MaxMinProblem::new();
        let a = p.add_resource(10.0);
        let b = p.add_resource(20.0);
        let mut sess = SolveSession::new(p);
        for _ in 0..4 {
            sess.add_flow(&FlowSpec::new(vec![a]));
            sess.add_flow(&FlowSpec::new(vec![b]));
        }
        sess.solve();
        assert_eq!(sess.stats().components_resolved, 2);
        let churned = sess.add_flow(&FlowSpec::new(vec![b]).with_weight(2.0));
        sess.solve();
        // Zone A hit the memo; only zone B re-solved.
        assert_eq!(sess.stats().components_resolved, 3);
        assert_eq!(sess.stats().components_skipped, 1);
        sess.remove_flow(churned);
        sess.solve();
        // Back to the original shape: both components replay.
        assert_eq!(sess.stats().components_resolved, 3);
        assert_eq!(sess.stats().components_skipped, 3);
        assert_eq!(
            sess.components(),
            vec![
                sess.active_flows()
                    .iter()
                    .copied()
                    .step_by(2)
                    .collect::<Vec<_>>(),
                sess.active_flows()
                    .iter()
                    .copied()
                    .skip(1)
                    .step_by(2)
                    .collect::<Vec<_>>(),
            ]
        );
    }

    #[test]
    fn removal_splits_components_after_lazy_rebuild() {
        let mut p = MaxMinProblem::new();
        let a = p.add_resource(4.0);
        let b = p.add_resource(6.0);
        let mut sess = SolveSession::new(p);
        let fa = sess.add_flow(&FlowSpec::new(vec![a]));
        let fb = sess.add_flow(&FlowSpec::new(vec![b]));
        let bridge = sess.add_flow(&FlowSpec::new(vec![a, b]));
        assert_eq!(sess.components().len(), 1, "bridge couples a and b");
        sess.remove_flow(bridge);
        assert_eq!(
            sess.components(),
            vec![vec![fa], vec![fb]],
            "lazy rebuild splits the zones once the bridge departs"
        );
    }

    #[test]
    fn memo_eviction_drops_the_oldest_half_deterministically() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(100.0);
        let mut sess = SolveSession::new(p.clone());
        // 1025 distinct single-flow shapes (distinct weights): the 1025th
        // insert evicts the oldest 512 entries.
        let solve_shape = |sess: &mut SolveSession, w: f64| {
            let id = sess.add_flow(&FlowSpec::new(vec![r]).with_weight(w));
            sess.solve();
            sess.remove_flow(id);
        };
        for i in 0..1024 {
            solve_shape(&mut sess, 1.0 + i as f64);
        }
        assert_eq!(sess.stats().memo_evictions, 0);
        solve_shape(&mut sess, 5000.0);
        assert_eq!(sess.stats().memo_evictions, 512);
        let misses_before = sess.stats().cache_misses;
        // A recent shape survived the eviction...
        solve_shape(&mut sess, 1.0 + 1023.0);
        assert_eq!(sess.stats().cache_misses, misses_before);
        // ...while the very first (oldest) shape was evicted.
        solve_shape(&mut sess, 1.0);
        assert_eq!(sess.stats().cache_misses, misses_before + 1);
    }

    #[test]
    fn components_partition_by_shared_resources() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let a1 = p.add_resource(1.0);
        let a2 = p.add_resource(2.0);
        let b1 = p.add_resource(3.0);
        let mut sess = SolveSession::new(p);
        let ids = sess.add_flows(&[
            FlowSpec::new(vec![a1]),             // component A
            FlowSpec::new(vec![b1]),             // component B
            FlowSpec::new(vec![a2, a1]),         // bridges a1-a2 into A
            FlowSpec::new(vec![]).with_cap(1.0), // cap-only singleton
            FlowSpec::new(vec![dead, b1]),       // prefrozen singleton (dead res)
            FlowSpec::new(vec![a2]),             // component A via a2
        ]);
        assert_eq!(
            sess.components(),
            vec![
                vec![ids[0], ids[2], ids[5]],
                vec![ids[1]],
                vec![ids[3]],
                vec![ids[4]]
            ]
        );
        sess.solve();
        assert_eq!(sess.stats().components_resolved, 3, "prefrozen: no solve");
    }

    #[test]
    fn component_solves_are_bitwise_identical_to_the_whole_solve() {
        // Randomized multi-component problems: paths drawn within disjoint
        // resource blocks plus occasional block-spanning paths that merge
        // blocks, solved per component by a cold session vs whole by
        // `MaxMinProblem::solve`, compared to_bits().
        let mut rng = spider_simkit::SimRng::seed_from_u64(23);
        for _ in 0..40 {
            let mut p = MaxMinProblem::new();
            let blocks = 2 + rng.index(4);
            let per_block = 2 + rng.index(4);
            let rs: Vec<ResourceId> = (0..blocks * per_block)
                .map(|_| {
                    let cap = if rng.chance(0.1) {
                        0.0
                    } else {
                        rng.range_f64(0.5, 40.0)
                    };
                    p.add_resource(cap)
                })
                .collect();
            let n_flows = 1 + rng.index(50);
            let flows: Vec<FlowSpec> = (0..n_flows)
                .map(|_| {
                    let k = 1 + rng.index(3);
                    let path: Vec<ResourceId> = if rng.chance(0.05) {
                        (0..k).map(|_| rs[rng.index(rs.len())]).collect()
                    } else {
                        let b = rng.index(blocks);
                        (0..k)
                            .map(|_| rs[b * per_block + rng.index(per_block)])
                            .collect()
                    };
                    let mut f = FlowSpec::new(path);
                    if rng.chance(0.4) {
                        // Coarse caps make equal-cap ties common, pinning
                        // the (cap, position) tie-break.
                        f = f.with_cap(f64::from(1 + rng.index(3) as u32));
                    }
                    if rng.chance(0.4) {
                        f = f.with_weight(rng.range_f64(0.5, 8.0));
                    }
                    f
                })
                .collect();
            let mut sess = SolveSession::new(p.clone());
            sess.add_flows(&flows);
            assert_eq!(bits(sess.solve()), bits(&p.solve(&flows)));
        }
    }

    #[test]
    #[should_panic(expected = "is not active")]
    fn removing_a_removed_flow_panics() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let mut sess = SolveSession::new(p);
        let id = sess.add_flow(&FlowSpec::new(vec![r]));
        sess.remove_flow(id);
        sess.remove_flow(id);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn unbounded_flow_rejected_at_add_time() {
        let p = MaxMinProblem::new();
        let mut sess = SolveSession::new(p);
        sess.add_flow(&FlowSpec::new(vec![]));
    }

    #[test]
    #[should_panic(expected = "NaN or negative cap")]
    fn nan_cap_rejected_at_add_time() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(10.0);
        let mut sess = SolveSession::new(p);
        sess.add_flow(&FlowSpec::new(vec![r]).with_cap(f64::NAN));
    }
}
