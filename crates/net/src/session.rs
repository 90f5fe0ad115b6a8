//! Incremental max-min solving: a resident problem plus flow deltas.
//!
//! [`SolveSession`] keeps a [`MaxMinProblem`]'s resources and its live
//! flows alive across solves, so a caller that re-solves under churn (jobs
//! arriving and completing, weights drifting) pays for the delta instead of
//! rebuilding paths and resource tables every call:
//!
//! - [`SolveSession::add_batch`] / [`SolveSession::remove_batch`] (and the
//!   per-flow [`SolveSession::add_flows`] / [`SolveSession::remove_flows`] /
//!   [`SolveSession::update_weight`]) edit the resident flow set in place.
//! - Fixed points are memoized per *connected component* of the
//!   flow–resource coupling graph under a deterministic 128-bit key of the
//!   component's paths, caps, and weights in solve order, deliberately
//!   blind to flow identity, so a recurring workload shape (the same
//!   checkpoint wave appearing with fresh [`FlowId`]s every period)
//!   warm-starts from its previous fixed point instead of re-running the
//!   water-filling.
//!
//! # Batch-resident flows
//!
//! Live flows stay in the [`FlowBatch`] they were added with. A batch is
//! prepared once: validated columns (path, cap, weight), prefrozen flags,
//! and the batch's *parts* — the connected pieces of its own flows, each
//! with its sorted resource footprint, its positions and the hash of its
//! flows' 128-bit digests (path, cap bits, weight bits). A caller that
//! keeps the `Arc<FlowBatch>` re-adds a recurring shape without validating
//! or hashing any flow. One batch gets consecutive handles, and each
//! resident batch owns the rate column the solves write, so
//! [`SolveSession::rates_of_batch`] is one lookup and one slice. Removing a
//! batch drops it and moves no other flow; removing part of one splits it
//! into its surviving runs. Memory is bounded by the live flows, plus the
//! last-solve rates of flows removed since, which
//! [`SolveSession::rate_of`] still reports until the next solve.
//!
//! # A persistent component index
//!
//! Two flows are *coupled* when they share a resource, directly or
//! transitively through other flows. Water-filling never moves capacity
//! between components of that graph, so the session keeps a component
//! index: a [`UnionFind`] over resources, fed one part at a time. Each
//! component keeps its segments (one part of one resident batch each,
//! ordered by handle), its memo key and a dirty flag. An add unions its
//! parts' footprints and dirties the components they land in. A remove
//! dirties the components its parts were in, and re-splits one only when
//! no remaining part spans all of that component's resources (a spanning
//! part keeps every other part connected). Cap-only flows are components
//! of their own; prefrozen flows (an exhausted resource or a zero cap)
//! have rate exactly 0 and stay out of the index as singletons. Debug
//! builds check the index against a from-scratch union-find partition of
//! the live flows after every solve.
//!
//! # Solves that visit only dirty components
//!
//! A solve visits the components in ascending order of their smallest
//! member. A clean component costs one memo probe of its cached key, and a
//! hit leaves the rates it already holds. A dirty component recomputes its
//! key from its segments: the key is a polynomial hash of the member
//! digests in two lanes mod 2^61 − 1, which composes under concatenation
//! (H(XY) = H(X)·B^|Y| + H(Y)), so it costs the component's segments, not
//! its rows, and equal member sequences get equal keys however batches
//! split them. A dirty hit writes the memoized rates into its batches' rate
//! columns. Components that miss gather their rows in solve order and
//! re-run the water-filling in parallel; their fixed points enter the memo
//! in component order. Churn on one job then costs its own batch and the
//! components it touches, never the whole active set. The session is the
//! only place that decomposes: a one-shot [`MaxMinProblem::solve`] has no
//! memo to replay, and splitting it measured slower than solving it whole
//! (see the `maxmin` module docs).
//!
//! # Bitwise contract
//!
//! Session results are **bit-identical** to a from-scratch
//! [`MaxMinProblem::solve`] over the same active flows in session order.
//! Cold components run the *same* water-filling core that `solve` runs on
//! the whole set, over their own resources only: a component's rows are
//! gathered in solve order with its resources renumbered to a dense local
//! range in ascending global order, and only its capacities are passed. A
//! component's solve is bitwise the whole solve restricted to its flows:
//! every float the core touches (`active_weight`, checkpoints, levels) is
//! per-resource state owned by exactly one component, events fire in
//! ascending level order with deterministic tie-breaks (cap events by
//! `(cap, flow position)`, saturation events by resource id, which the
//! ascending renumbering keeps), and the water level is monotone — so the
//! whole solve's event sequence restricted to one component is that
//! component's own event sequence. The cold solves of one parallel chunk
//! share one solver workspace, so a cold component costs its own flows and
//! resources, not the session's. Cache hits replay a fixed point that was
//! itself produced by that core for an identical component. The session
//! never extrapolates a stale fixed point numerically — that would converge
//! to the same allocation but through different roundoff, breaking the
//! differential oracle.

use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::Arc;

use rayon::prelude::*;

use crate::maxmin::{
    check_weight, water_fill, FlowColumns, FlowSpec, MaxMinProblem, ResourceId, SolveStats,
    Workspace,
};

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
    /// Rates written into batch rate columns, by memo replay on a dirty
    /// component or by a cold solve. A clean component that hits the memo
    /// already holds its rates and writes none.
    pub rows_written: u64,
}

impl AddAssign for SessionStats {
    /// Sum every counter (a sharded run reports the sum over its sessions).
    fn add_assign(&mut self, other: SessionStats) {
        let SessionStats {
            solves,
            cache_hits,
            cache_misses,
            rounds_saved,
            rounds_executed,
            components_resolved,
            components_skipped,
            memo_evictions,
            rows_written,
        } = other;
        self.solves += solves;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.rounds_saved += rounds_saved;
        self.rounds_executed += rounds_executed;
        self.components_resolved += components_resolved;
        self.components_skipped += components_skipped;
        self.memo_evictions += memo_evictions;
        self.rows_written += rows_written;
    }
}

/// A memoized fixed point: per-member rates of the non-prefrozen flows the
/// key covers, in solve order, plus what the solve originally cost and
/// when the entry was inserted (for age-ordered eviction).
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

/// No flow, part or component.
const NONE: u32 = u32::MAX;

/// Offset basis of every per-flow digest.
const HASH_BASIS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x9ae1_6a3b_2f90_404f];

/// The Mersenne prime 2^61 − 1, the modulus of both sequence-hash lanes.
const P61: u64 = (1 << 61) - 1;

/// Per-lane bases of the sequence hash (both below [`P61`]).
const SEQ_BASE: [u64; 2] = [0x0a3b_1c5d_7e9f_2468, 0x1f2e_3d4c_5b6a_7989];

/// `a · b mod 2^61 − 1` for `a, b < 2^61 − 1`: 2^61 ≡ 1, so the high and
/// low 61 bits of the product add up to it.
fn mul61(a: u64, b: u64) -> u64 {
    let x = u128::from(a) * u128::from(b);
    add61((x as u64) & P61, (x >> 61) as u64)
}

/// `a + b mod 2^61 − 1` for `a, b < 2^61 − 1`.
fn add61(a: u64, b: u64) -> u64 {
    let s = a + b;
    if s >= P61 {
        s - P61
    } else {
        s
    }
}

/// Polynomial hash of a sequence of digests, one per lane: `d_1 … d_n`
/// hashes to `Σ d_i · B^(n−i) mod 2^61 − 1`. It composes under
/// concatenation, `H(XY) = H(X)·B^|Y| + H(Y)`, so a component's key folds
/// its segments' hashes instead of its members' digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeqHash {
    h: [u64; 2],
    /// `B^len` per lane.
    pow: [u64; 2],
    len: u64,
}

impl SeqHash {
    const EMPTY: SeqHash = SeqHash {
        h: [0, 0],
        pow: [1, 1],
        len: 0,
    };

    /// Append one digest (both lanes already reduced mod 2^61 − 1).
    fn push(self, d: [u64; 2]) -> SeqHash {
        SeqHash {
            h: [0, 1].map(|l| add61(mul61(self.h[l], SEQ_BASE[l]), d[l])),
            pow: [0, 1].map(|l| mul61(self.pow[l], SEQ_BASE[l])),
            len: self.len + 1,
        }
    }

    /// The hash of `self` followed by `tail`.
    fn concat(self, tail: SeqHash) -> SeqHash {
        SeqHash {
            h: [0, 1].map(|l| add61(mul61(self.h[l], tail.pow[l]), tail.h[l])),
            pow: [0, 1].map(|l| mul61(self.pow[l], tail.pow[l])),
            len: self.len + tail.len,
        }
    }

    /// The memo key: both lanes with the length folded in.
    fn key(self) -> [u64; 2] {
        fold(self.h, [self.len, self.len])
    }
}

/// One flow's 128-bit digest: its path length, resources, cap bits and
/// weight bits, folded word by word, each lane then reduced mod 2^61 − 1
/// (a [`SeqHash`] symbol). Flow identity is deliberately left out, so the
/// same shape re-added under a fresh handle digests the same.
fn flow_digest(path: &[u32], cap: f64, weight: f64) -> [u64; 2] {
    std::iter::once(path.len() as u64)
        .chain(path.iter().map(|&r| u64::from(r)))
        .chain([cap.to_bits(), weight.to_bits()])
        .fold(HASH_BASIS, |h, v| fold(h, [v, v]))
        .map(|w| w % P61)
}

/// [`flow_digest`] of row `k`.
fn digest_of(cols: &FlowColumns, k: usize) -> [u64; 2] {
    flow_digest(cols.path(k), cols.cap[k], cols.weight[k])
}

/// One connected piece of a batch's own live flows.
#[derive(Debug, Clone)]
struct Part {
    /// Resources its flows cross, ascending and distinct. Empty for a
    /// cap-only flow, which is a part (and a component) of its own.
    footprint: Vec<u32>,
    /// Positions of its flows in the batch, ascending.
    positions: Vec<u32>,
    /// Hash of its flows' digests in position order.
    hash: SeqHash,
}

/// A batch of flows prepared once against a problem, for
/// [`SolveSession::add_batch`]: validated columns (path, cap, weight),
/// prefrozen flags and the batch's parts, each with the hash of its flows'
/// digests (see the [module docs](self)). Adding a prepared batch again —
/// the same shape recurring — validates and hashes nothing. Only add a
/// batch to a session over the problem it was prepared against.
#[derive(Debug, Clone)]
pub struct FlowBatch {
    cols: FlowColumns,
    /// Per flow: dead on arrival (exhausted resource on the path or zero
    /// cap); its rate is always exactly 0.
    prefrozen: Vec<bool>,
    /// Connected pieces of the flows that are not prefrozen, ordered by
    /// smallest position.
    parts: Vec<Part>,
    prefrozen_count: usize,
}

impl FlowBatch {
    /// Validate `specs` against `problem` (panics like
    /// [`MaxMinProblem::solve`] on a flow it would reject) and prepare them
    /// as one batch, in argument order.
    pub fn new(problem: &MaxMinProblem, specs: &[FlowSpec]) -> FlowBatch {
        FlowBatch::from_flows(
            problem,
            specs
                .iter()
                .map(|f| (f.resources.as_slice(), f.cap, f.weight)),
        )
    }

    /// [`Self::new`] for flows given as `(resources, cap, weight)`, the
    /// fields of a [`FlowSpec`], without building one per flow. The columns
    /// are sized from the iterator's length.
    pub fn from_flows<'a>(
        problem: &MaxMinProblem,
        flows: impl IntoIterator<Item = (&'a [ResourceId], Option<f64>, f64)>,
    ) -> FlowBatch {
        let flows = flows.into_iter();
        let n = flows.size_hint().0;
        let mut cols = FlowColumns::with_capacity(n, 0);
        let mut prefrozen = Vec::with_capacity(n);
        for (k, (path, cap, weight)) in flows.enumerate() {
            if k == 0 {
                // A batch's paths mostly share one length: a test's classes
                // all cross the same tiers.
                cols.path_res.reserve(n * path.len());
            }
            cols.push(path, cap, weight);
            let (path, cap) = (cols.path(k), cols.cap[k]);
            problem.validate_flow(k, path, cap, weight);
            prefrozen.push(problem.prefrozen_path(path, cap));
        }
        FlowBatch::with_parts(cols, prefrozen)
    }

    /// Find the parts of already validated columns: flows that are not
    /// prefrozen and share a resource join one part.
    fn with_parts(cols: FlowColumns, prefrozen: Vec<bool>) -> FlowBatch {
        let n = prefrozen.len();
        let live = || (0..n as u32).filter(|&k| !prefrozen[k as usize]);
        // Union each flow with the first flow seen on each of its resources.
        let resources = cols.path_res.iter().max().map_or(0, |&r| r as usize + 1);
        let mut first_at = vec![NONE; resources];
        let mut uf = UnionFind::new(n);
        for k in live() {
            for &r in cols.path(k as usize) {
                match first_at[r as usize] {
                    NONE => first_at[r as usize] = k,
                    first => uf.union(first, k),
                }
            }
        }
        // A part's root is its smallest position, so parts come out ordered
        // by smallest position.
        let mut part_of_root = vec![NONE; n];
        let mut parts: Vec<Part> = Vec::new();
        for k in live() {
            let root = uf.find(k) as usize;
            if part_of_root[root] == NONE {
                part_of_root[root] = parts.len() as u32;
                parts.push(Part {
                    footprint: Vec::new(),
                    positions: Vec::new(),
                    hash: SeqHash::EMPTY,
                });
            }
            let part = &mut parts[part_of_root[root] as usize];
            part.positions.push(k);
            part.hash = part.hash.push(digest_of(&cols, k as usize));
        }
        // One ascending pass over the resource table leaves each footprint
        // ascending.
        for (r, &first) in first_at.iter().enumerate() {
            if first != NONE {
                let part = part_of_root[uf.find(first) as usize];
                parts[part as usize].footprint.push(r as u32);
            }
        }
        let prefrozen_count = prefrozen.iter().filter(|&&p| p).count();
        FlowBatch {
            cols,
            prefrozen,
            parts,
            prefrozen_count,
        }
    }

    /// Flows `lo..hi` as a batch of their own.
    fn slice(&self, lo: usize, hi: usize) -> FlowBatch {
        let mut cols = FlowColumns::default();
        for k in lo..hi {
            cols.push_row(&self.cols, k);
        }
        FlowBatch::with_parts(cols, self.prefrozen[lo..hi].to_vec())
    }

    /// Set flow `k`'s weight and re-hash its part. Returns that part, or
    /// `None` for a prefrozen flow (in no part).
    fn set_weight(&mut self, k: usize, weight: f64) -> Option<usize> {
        self.cols.weight[k] = weight;
        let at = self
            .parts
            .iter()
            .position(|p| p.positions.binary_search(&(k as u32)).is_ok())?;
        let cols = &self.cols;
        let part = &mut self.parts[at];
        part.hash = part
            .positions
            .iter()
            .fold(SeqHash::EMPTY, |h, &k| h.push(digest_of(cols, k as usize)));
        Some(at)
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.prefrozen.len()
    }

    /// Whether the batch holds no flow.
    pub fn is_empty(&self) -> bool {
        self.prefrozen.is_empty()
    }

    /// Aggregate rate honoring class weights, `Σ weight × rate`, for rates
    /// in batch order (the same sum as [`MaxMinProblem::weighted_total`]).
    pub fn weighted_total(&self, rates: &[f64]) -> f64 {
        self.cols.weight.iter().zip(rates).map(|(w, r)| w * r).sum()
    }
}

impl spider_simkit::MemFootprint for FlowBatch {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        let parts: u64 = self
            .parts
            .iter()
            .map(|p| {
                slab_bytes::<u32>(p.footprint.capacity())
                    + slab_bytes::<u32>(p.positions.capacity())
            })
            .sum();
        self.cols.mem_bytes()
            + slab_bytes::<bool>(self.prefrozen.capacity())
            + slab_bytes::<Part>(self.parts.capacity())
            + parts
    }
}

/// A batch admitted to a session.
#[derive(Debug, Clone)]
struct Resident {
    /// Handle of the batch's first flow.
    base: u32,
    batch: Arc<FlowBatch>,
    /// Per part: the slot of the component holding it.
    comp: Vec<u32>,
}

/// The live resident in `slot`.
fn resident(residents: &[Option<Resident>], slot: u32) -> &Resident {
    residents[slot as usize].as_ref().expect("live resident")
}

/// One part of one resident batch, as a component holds it.
#[derive(Debug, Clone, Copy)]
struct Seg {
    base: u32,
    slot: u32,
    part: u32,
}

impl Seg {
    /// Segments order by handle: by batch, then by part (parts ascend by
    /// smallest position within their batch).
    fn order(&self) -> (u32, u32) {
        (self.base, self.part)
    }
}

/// One connected component of the live flows that are not prefrozen.
#[derive(Debug, Clone)]
struct Component {
    /// Its parts, in [`Seg::order`].
    segs: Vec<Seg>,
    /// Resources in its union-find set: the union of its parts' footprints.
    n_res: u32,
    /// Flows it holds.
    rows: u32,
    /// Memo key of its member sequence; stale while `dirty`.
    key: [u64; 2],
    /// Membership or a member's weight changed since its key and rates
    /// were last computed.
    dirty: bool,
}

/// The sorted positions of one batch's segments in a component: a lone
/// part's own list, or the merge of several (a component that several
/// parts of one batch joined through other batches' flows).
fn group_positions<'a>(group: &[Seg], batch: &'a FlowBatch, merged: &'a mut Vec<u32>) -> &'a [u32] {
    if let [seg] = group {
        return &batch.parts[seg.part as usize].positions;
    }
    merged.clear();
    for s in group {
        merged.extend_from_slice(&batch.parts[s.part as usize].positions);
    }
    merged.sort_unstable();
    merged
}

/// Visit a component's members in solve order (ascending handle) as
/// `(resident slot, resident, position)`.
fn for_each_member(
    segs: &[Seg],
    residents: &[Option<Resident>],
    mut f: impl FnMut(u32, &Resident, usize),
) {
    let mut merged = Vec::new();
    for group in segs.chunk_by(|a, b| a.slot == b.slot) {
        let res = resident(residents, group[0].slot);
        for &k in group_positions(group, &res.batch, &mut merged) {
            f(group[0].slot, res, k as usize);
        }
    }
}

/// Scratch for cold component solves, one per parallel chunk: a
/// component's rows gathered in solve order with its resources renamed to a
/// dense local range, its capacities, the global-to-local map and the
/// solver workspace.
#[derive(Debug)]
struct ColdScratch {
    cols: FlowColumns,
    /// The component's resources, ascending: local id `l` names `res[l]`.
    res: Vec<u32>,
    capacities: Vec<f64>,
    /// Per session resource: its local id, or [`NONE`]. Only the entries of
    /// `res` are set, and they are reset after each solve.
    local: Vec<u32>,
    ws: Workspace,
}

impl ColdScratch {
    /// Scratch for a session over `resources` resources.
    fn new(resources: usize) -> Self {
        ColdScratch {
            cols: FlowColumns::default(),
            res: Vec::new(),
            capacities: Vec::new(),
            local: vec![NONE; resources],
            ws: Workspace::default(),
        }
    }

    /// Water-fill one component over its own resources. Renaming them in
    /// ascending order keeps every saturation tie-break by resource id, and
    /// no float operation changes, so the rates are bitwise those its flows
    /// get in a whole-problem solve. Returns its rates in solve order.
    fn solve(
        &mut self,
        problem: &MaxMinProblem,
        comp: &Component,
        residents: &[Option<Resident>],
    ) -> (Vec<f64>, SolveStats) {
        self.res.clear();
        for s in &comp.segs {
            for &r in &resident(residents, s.slot).batch.parts[s.part as usize].footprint {
                if self.local[r as usize] == NONE {
                    self.local[r as usize] = 0;
                    self.res.push(r);
                }
            }
        }
        self.res.sort_unstable();
        self.capacities.clear();
        for (l, &r) in self.res.iter().enumerate() {
            self.local[r as usize] = l as u32;
            self.capacities
                .push(problem.capacity(ResourceId(r as usize)));
        }
        self.cols.clear();
        for_each_member(&comp.segs, residents, |_, res, k| {
            let src = &res.batch.cols;
            problem.validate_flow(self.cols.len(), src.path(k), src.cap[k], src.weight[k]);
            self.cols.push_row_renamed(src, k, &self.local);
        });
        let mut stats = SolveStats::default();
        let rates = water_fill(
            &self.capacities,
            &self.cols,
            &mut stats,
            false,
            &mut self.ws,
        );
        for &r in &self.res {
            self.local[r as usize] = NONE;
        }
        (rates, stats)
    }
}

/// A component's memo key, folded from its segments' hashes.
fn key_of(segs: &[Seg], residents: &[Option<Resident>]) -> [u64; 2] {
    let mut merged = Vec::new();
    let mut h = SeqHash::EMPTY;
    for group in segs.chunk_by(|a, b| a.slot == b.slot) {
        let batch = &resident(residents, group[0].slot).batch;
        h = match group {
            [seg] => h.concat(batch.parts[seg.part as usize].hash),
            _ => group_positions(group, batch, &mut merged)
                .iter()
                .fold(h, |h, &k| h.push(digest_of(&batch.cols, k as usize))),
        };
    }
    h.key()
}

/// The persistent component index: a union-find over resources plus the
/// components its sets name.
#[derive(Debug, Clone)]
struct Index {
    uf: UnionFind,
    /// Per resource that roots a component's set: that component's slot.
    comp_at: Vec<u32>,
    /// Components by slot; freed slots are `None` and reused.
    comps: Vec<Option<Component>>,
    free: Vec<u32>,
}

impl Index {
    fn new(resources: usize) -> Self {
        Index {
            uf: UnionFind::new(resources),
            comp_at: vec![NONE; resources],
            comps: Vec::new(),
            free: Vec::new(),
        }
    }

    fn comp(&self, c: u32) -> &Component {
        self.comps[c as usize].as_ref().expect("live component")
    }

    fn comp_mut(&mut self, c: u32) -> &mut Component {
        self.comps[c as usize].as_mut().expect("live component")
    }

    /// Free component slot `c`, returning what it held.
    fn release(&mut self, c: u32) -> Component {
        self.free.push(c);
        self.comps[c as usize].take().expect("live component")
    }

    /// Index every part of the resident in `slot`.
    fn insert(&mut self, residents: &mut [Option<Resident>], slot: u32) {
        for part in 0..resident(residents, slot).batch.parts.len() {
            self.insert_part(residents, slot, part as u32);
        }
    }

    /// Index one part: union its footprint, merge the components it
    /// touches into one (the one with the most segments absorbs the rest)
    /// and dirty it.
    fn insert_part(&mut self, residents: &mut [Option<Resident>], slot: u32, part: u32) {
        let res = resident(residents, slot);
        let seg = Seg {
            base: res.base,
            slot,
            part,
        };
        let batch = Arc::clone(&res.batch);
        let p = &batch.parts[part as usize];
        // The components the footprint touches, with their roots, and how
        // many of its resources are in none (singleton sets).
        let mut touched: Vec<(u32, u32)> = Vec::new();
        let mut fresh = 0u32;
        for &r in &p.footprint {
            let root = self.uf.find(r);
            match self.comp_at[root as usize] {
                NONE => fresh += 1,
                c if !touched.iter().any(|&(_, t)| t == c) => touched.push((root, c)),
                _ => {}
            }
        }
        let target = touched
            .iter()
            .map(|&(_, c)| c)
            .max_by_key(|&c| self.comp(c).segs.len());
        let c = target.unwrap_or_else(|| {
            let comp = Component {
                segs: Vec::new(),
                n_res: 0,
                rows: 0,
                key: [0; 2],
                dirty: true,
            };
            match self.free.pop() {
                Some(c) => {
                    self.comps[c as usize] = Some(comp);
                    c
                }
                None => {
                    self.comps.push(Some(comp));
                    self.comps.len() as u32 - 1
                }
            }
        });
        let mut absorbed = false;
        for &(root, other) in &touched {
            self.comp_at[root as usize] = NONE;
            if other != c {
                let gone = self.release(other);
                for s in &gone.segs {
                    residents[s.slot as usize]
                        .as_mut()
                        .expect("live resident")
                        .comp[s.part as usize] = c;
                }
                let comp = self.comp_mut(c);
                comp.segs.extend(gone.segs);
                comp.n_res += gone.n_res;
                comp.rows += gone.rows;
                absorbed = true;
            }
        }
        self.uf.union_all(&p.footprint);
        if let Some(&r) = p.footprint.first() {
            let root = self.uf.find(r);
            self.comp_at[root as usize] = c;
        }
        let comp = self.comp_mut(c);
        if absorbed {
            comp.segs.sort_unstable_by_key(Seg::order);
        }
        let at = comp.segs.partition_point(|s| s.order() < seg.order());
        comp.segs.insert(at, seg);
        comp.n_res += fresh;
        comp.rows += p.positions.len() as u32;
        comp.dirty = true;
        residents[slot as usize]
            .as_mut()
            .expect("live resident")
            .comp[part as usize] = c;
    }

    /// Take every part of the resident in `slot` out of the index. A
    /// component left without a part that spans all of its resources is
    /// re-split: its resources are reset and its remaining parts indexed
    /// afresh.
    fn remove(&mut self, residents: &mut [Option<Resident>], slot: u32) {
        let res = resident(residents, slot);
        let base = res.base;
        let batch = Arc::clone(&res.batch);
        let comp_of: Vec<u32> = res.comp.clone();
        // Each component touched, with the parts it lost.
        let mut touched: Vec<(u32, Vec<usize>)> = Vec::new();
        for (part, p) in batch.parts.iter().enumerate() {
            let c = comp_of[part];
            let comp = self.comp_mut(c);
            let at = comp
                .segs
                .binary_search_by_key(&(base, part as u32), Seg::order)
                .expect("an indexed part");
            comp.segs.remove(at);
            comp.rows -= p.positions.len() as u32;
            comp.dirty = true;
            match touched.iter_mut().find(|(t, _)| *t == c) {
                Some((_, lost)) => lost.push(part),
                None => touched.push((c, vec![part])),
            }
        }
        for (c, lost) in touched {
            let comp = self.comp(c);
            let spanned = comp.segs.iter().any(|s| {
                let footprint = &resident(residents, s.slot).batch.parts[s.part as usize].footprint;
                footprint.len() == comp.n_res as usize
            });
            if spanned {
                continue;
            }
            let comp = self.release(c);
            for &part in &lost {
                self.reset(&batch.parts[part].footprint);
            }
            for s in &comp.segs {
                self.reset(&resident(residents, s.slot).batch.parts[s.part as usize].footprint);
            }
            for s in comp.segs {
                self.insert_part(residents, s.slot, s.part);
            }
        }
    }

    /// Make every resource of `footprint` a singleton in no component.
    fn reset(&mut self, footprint: &[u32]) {
        for &r in footprint {
            self.uf.parent[r as usize] = r;
            self.comp_at[r as usize] = NONE;
        }
    }

    /// Live component slots in ascending order of their smallest member.
    fn order(&self, residents: &[Option<Resident>]) -> Vec<u32> {
        let mut order: Vec<(u32, u32)> = self
            .comps
            .iter()
            .enumerate()
            .filter_map(|(c, comp)| {
                // Segments ascend by handle, so the first one holds the
                // smallest member.
                let s = comp.as_ref()?.segs[0];
                let first = resident(residents, s.slot).batch.parts[s.part as usize].positions[0];
                Some((s.base + first, c as u32))
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, c)| c).collect()
    }
}

/// An incremental max-min solving session. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SolveSession {
    problem: MaxMinProblem,
    /// Resident batches by slot; freed slots are `None` and reused.
    residents: Vec<Option<Resident>>,
    /// Per resident slot: each flow's rate from the last solve that wrote
    /// it.
    rates: Vec<Vec<f64>>,
    free_residents: Vec<u32>,
    /// Slot of each resident batch, by its first handle.
    by_base: BTreeMap<u32, u32>,
    /// Rates at the last solve of the flows removed since, one run per
    /// entry, by the run's first handle.
    departed: BTreeMap<u32, Vec<f64>>,
    index: Index,
    live_rows: usize,
    prefrozen_rows: usize,
    next_id: u32,
    /// `next_id` at the last solve: live handles below it were active then.
    solved_below: u32,
    memo: BTreeMap<[u64; 2], MemoEntry>,
    /// Insertion clock for memo entries; drives oldest-half eviction.
    next_epoch: u64,
    stats: SessionStats,
}

impl SolveSession {
    /// Start a session over a built problem. The resource set is fixed for
    /// the session's lifetime; flows come and go through the delta API.
    pub fn new(problem: MaxMinProblem) -> Self {
        let index = Index::new(problem.resources());
        SolveSession {
            problem,
            residents: Vec::new(),
            rates: Vec::new(),
            free_residents: Vec::new(),
            by_base: BTreeMap::new(),
            departed: BTreeMap::new(),
            index,
            live_rows: 0,
            prefrozen_rows: 0,
            next_id: 0,
            solved_below: 0,
            memo: BTreeMap::new(),
            next_epoch: 0,
            stats: SessionStats::default(),
        }
    }

    /// The underlying problem (resources and capacities).
    pub fn problem(&self) -> &MaxMinProblem {
        &self.problem
    }

    /// Number of currently active flows.
    pub fn active_len(&self) -> usize {
        self.live_rows
    }

    /// Active flow ids in solve order (ascending).
    pub fn active_flows(&self) -> Vec<FlowId> {
        self.by_base
            .iter()
            .flat_map(|(&base, &slot)| {
                let len = resident(&self.residents, slot).batch.len() as u32;
                (base..base + len).map(FlowId)
            })
            .collect()
    }

    /// Slot and position of an active flow, or `None` if `id` is not
    /// active.
    fn locate(&self, id: FlowId) -> Option<(u32, usize)> {
        let (&base, &slot) = self.by_base.range(..=id.0).next_back()?;
        let k = (id.0 - base) as usize;
        (k < resident(&self.residents, slot).batch.len()).then_some((slot, k))
    }

    /// Whether `id` is currently active.
    pub fn is_active(&self, id: FlowId) -> bool {
        self.locate(id).is_some()
    }

    /// Session event counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Add a prepared batch; its flows get the consecutive handles
    /// `first..first + batch.len()`, and `first` is returned.
    pub fn add_batch(&mut self, batch: &Arc<FlowBatch>) -> FlowId {
        let first = self.next_id;
        self.next_id = u32::try_from(batch.len())
            .ok()
            .and_then(|n| first.checked_add(n))
            .expect("flow handles exhausted");
        if !batch.is_empty() {
            self.admit(first, Arc::clone(batch), vec![0.0; batch.len()]);
        }
        FlowId(first)
    }

    /// Add one flow; returns its handle.
    pub fn add_flow(&mut self, spec: &FlowSpec) -> FlowId {
        self.add_flows(std::slice::from_ref(spec))[0]
    }

    /// Add a batch of flows, prepared as one [`FlowBatch`]; handles are
    /// returned in argument order, and they are consecutive.
    pub fn add_flows(&mut self, specs: &[FlowSpec]) -> Vec<FlowId> {
        let first = self.add_batch(&Arc::new(FlowBatch::new(&self.problem, specs)));
        (first.0..self.next_id).map(FlowId).collect()
    }

    /// Make `batch` resident from handle `base` on, with the given rate
    /// column, and index it.
    fn admit(&mut self, base: u32, batch: Arc<FlowBatch>, rates: Vec<f64>) {
        self.live_rows += batch.len();
        self.prefrozen_rows += batch.prefrozen_count;
        let res = Resident {
            base,
            comp: vec![NONE; batch.parts.len()],
            batch,
        };
        let slot = match self.free_residents.pop() {
            Some(slot) => {
                self.residents[slot as usize] = Some(res);
                self.rates[slot as usize] = rates;
                slot
            }
            None => {
                self.residents.push(Some(res));
                self.rates.push(rates);
                self.residents.len() as u32 - 1
            }
        };
        self.by_base.insert(base, slot);
        self.index.insert(&mut self.residents, slot);
    }

    /// Take the resident in `slot` out of the session: unindex it and free
    /// its slot. Returns its first handle, batch and rate column.
    fn evict(&mut self, slot: u32) -> (u32, Arc<FlowBatch>, Vec<f64>) {
        self.index.remove(&mut self.residents, slot);
        let res = self.residents[slot as usize].take().expect("live resident");
        let rates = std::mem::take(&mut self.rates[slot as usize]);
        self.free_residents.push(slot);
        self.by_base.remove(&res.base);
        self.live_rows -= res.batch.len();
        self.prefrozen_rows -= res.batch.prefrozen_count;
        (res.base, res.batch, rates)
    }

    /// Remove one flow. Panics if `id` is not active.
    pub fn remove_flow(&mut self, id: FlowId) {
        self.remove_flows(&[id]);
    }

    /// Remove `len` flows with consecutive handles from `first` on, as one
    /// [`Self::add_batch`] returned them. A whole resident batch is dropped
    /// without touching any other flow. Panics if a flow is not active.
    pub fn remove_batch(&mut self, first: FlowId, len: usize) {
        match self.by_base.get(&first.0) {
            Some(&slot) if resident(&self.residents, slot).batch.len() == len => {
                self.drop_resident(slot);
            }
            _ => {
                let ids: Vec<FlowId> = (first.0..first.0 + len as u32).map(FlowId).collect();
                self.remove_flows(&ids);
            }
        }
    }

    /// Remove a set of active flows. A batch that loses only some of its
    /// flows splits into its surviving runs. Panics if an id is not active
    /// or appears twice.
    pub fn remove_flows(&mut self, ids: &[FlowId]) {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|p| p[0] == p[1]) {
            panic!("flow {:?} is not active", pair[0]);
        }
        // Per resident touched: the positions it loses, ascending.
        let mut cuts: Vec<(u32, Vec<usize>)> = Vec::new();
        for id in ids {
            let (slot, k) = self
                .locate(id)
                .unwrap_or_else(|| panic!("flow {id:?} is not active"));
            match cuts.last_mut() {
                Some((s, ks)) if *s == slot => ks.push(k),
                _ => cuts.push((slot, vec![k])),
            }
        }
        for (slot, ks) in cuts {
            self.cut(slot, &ks);
        }
    }

    /// Remove the resident in `slot` whole; its rates stay readable until
    /// the next solve if it was active at the last one.
    fn drop_resident(&mut self, slot: u32) {
        let (base, _, rates) = self.evict(slot);
        if base < self.solved_below {
            self.departed.insert(base, rates);
        }
    }

    /// Remove positions `ks` (ascending, distinct) of the resident in
    /// `slot`. Removed runs keep their last-solve rates until the next
    /// solve; surviving runs are re-admitted as batches of their own, with
    /// their rates.
    fn cut(&mut self, slot: u32, ks: &[usize]) {
        if ks.len() == resident(&self.residents, slot).batch.len() {
            return self.drop_resident(slot);
        }
        let (base, batch, rates) = self.evict(slot);
        let solved = base < self.solved_below;
        let (mut lo, mut next) = (0, 0);
        while lo < batch.len() {
            let removed = ks.get(next) == Some(&lo);
            let mut hi = lo;
            if removed {
                while ks.get(next) == Some(&hi) {
                    hi += 1;
                    next += 1;
                }
                if solved {
                    self.departed
                        .insert(base + lo as u32, rates[lo..hi].to_vec());
                }
            } else {
                hi = ks.get(next).copied().unwrap_or(batch.len());
                let run = Arc::new(batch.slice(lo, hi));
                self.admit(base + lo as u32, run, rates[lo..hi].to_vec());
            }
            lo = hi;
        }
    }

    /// Change the class weight of an active flow. Panics if `id` is not
    /// active or the weight is not finite and above the solver's `EPS`.
    pub fn update_weight(&mut self, id: FlowId, weight: f64) {
        let (slot, k) = self
            .locate(id)
            .unwrap_or_else(|| panic!("flow {id:?} is not active"));
        check_weight(weight, format_args!("flow {id:?}"));
        let res = self.residents[slot as usize]
            .as_mut()
            .expect("live resident");
        // A batch shared with the caller (or another resident) is copied
        // before it changes.
        if let Some(part) = Arc::make_mut(&mut res.batch).set_weight(k, weight) {
            let c = res.comp[part];
            self.index.comp_mut(c).dirty = true;
        }
    }

    /// Insert a memoized fixed point, evicting the oldest half (by
    /// insertion epoch) when the memo is full.
    fn memo_insert(&mut self, key: [u64; 2], live_rates: Vec<f64>, rounds: u64) {
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
            key,
            MemoEntry {
                live_rates,
                rounds,
                epoch,
            },
        );
    }

    /// Connected components of the active flow set: groups of [`FlowId`]s,
    /// each ascending, groups ordered by smallest member. Cap-only and
    /// prefrozen flows are singletons — they never exchange capacity with
    /// anything.
    pub fn components(&self) -> Vec<Vec<FlowId>> {
        let mut groups: Vec<Vec<FlowId>> = self
            .index
            .comps
            .iter()
            .flatten()
            .map(|comp| {
                let mut ids = Vec::with_capacity(comp.rows as usize);
                for_each_member(&comp.segs, &self.residents, |_, res, k| {
                    ids.push(FlowId(res.base + k as u32));
                });
                ids
            })
            .collect();
        for res in self.residents.iter().flatten() {
            for (k, _) in res.batch.prefrozen.iter().enumerate().filter(|&(_, &p)| p) {
                groups.push(vec![FlowId(res.base + k as u32)]);
            }
        }
        groups.sort_unstable_by_key(|g| g[0]);
        groups
    }

    /// The partition [`Self::components`] must equal, from scratch: a fresh
    /// union-find over every live flow's path. Kept as the index's oracle
    /// (debug builds check it after every solve); nothing else calls it.
    fn partition_from_scratch(&self) -> Vec<Vec<FlowId>> {
        let mut flows: Vec<(FlowId, &[u32], bool)> = Vec::with_capacity(self.live_rows);
        for &slot in self.by_base.values() {
            let res = resident(&self.residents, slot);
            for k in 0..res.batch.len() {
                let id = FlowId(res.base + k as u32);
                flows.push((id, res.batch.cols.path(k), res.batch.prefrozen[k]));
            }
        }
        let mut uf = UnionFind::new(self.problem.resources());
        for &(_, path, prefrozen) in &flows {
            if !prefrozen {
                uf.union_all(path);
            }
        }
        let mut groups: Vec<Vec<FlowId>> = Vec::new();
        let mut group_of_root = vec![NONE; self.problem.resources()];
        for (id, path, prefrozen) in flows {
            if path.is_empty() || prefrozen {
                groups.push(vec![id]);
            } else {
                let root = uf.find(path[0]) as usize;
                if group_of_root[root] == NONE {
                    group_of_root[root] = groups.len() as u32;
                    groups.push(Vec::new());
                }
                groups[group_of_root[root] as usize].push(id);
            }
        }
        groups
    }

    /// Solve for the max-min fair per-member rates of the active flows.
    /// Bit-identical to [`MaxMinProblem::solve`] over the same flows in the
    /// same (ascending [`FlowId`]) order; read them with
    /// [`Self::rates_of_batch`], [`Self::rate_of`] or [`Self::rates`].
    ///
    /// Every component whose key hits the memo replays its fixed point (a
    /// clean one already holds it); the ones that miss re-solve in
    /// parallel, and enter the memo in component order.
    pub fn solve(&mut self) {
        self.stats.solves += 1;
        self.departed.clear();
        let order = self.index.order(&self.residents);

        let mut missing: Vec<u32> = Vec::new();
        let mut skipped = 0u64;
        let mut saved_rounds = 0u64;
        let mut written = 0u64;
        for &c in &order {
            let comp = self.index.comps[c as usize]
                .as_mut()
                .expect("live component");
            if comp.dirty {
                comp.key = key_of(&comp.segs, &self.residents);
            } else {
                debug_assert_eq!(comp.key, key_of(&comp.segs, &self.residents), "stale key");
            }
            let Some(entry) = self.memo.get(&comp.key) else {
                missing.push(c);
                continue;
            };
            skipped += 1;
            saved_rounds += entry.rounds;
            if comp.dirty {
                let mut live = entry.live_rates.iter();
                for_each_member(&comp.segs, &self.residents, |slot, _, k| {
                    self.rates[slot as usize][k] = *live.next().expect("one rate per member");
                });
                written += u64::from(comp.rows);
                comp.dirty = false;
            }
        }
        self.stats.rounds_saved += saved_rounds;
        self.stats.components_skipped += skipped;
        self.stats.components_resolved += missing.len() as u64;

        if missing.is_empty() {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
            let solved: Vec<(Vec<f64>, SolveStats)> = {
                let (problem, residents, index) = (&self.problem, &self.residents, &self.index);
                missing
                    .par_iter()
                    .map_init(
                        || ColdScratch::new(problem.resources()),
                        |scratch, &c| scratch.solve(problem, index.comp(c), residents),
                    )
                    .collect()
            };
            // `collect` keeps task order: the scatter and the memo inserts
            // run in component order.
            let mut total = SolveStats::default();
            for (&c, (rates, st)) in missing.iter().zip(solved) {
                let comp = self.index.comps[c as usize]
                    .as_mut()
                    .expect("live component");
                let mut live = rates.iter();
                for_each_member(&comp.segs, &self.residents, |slot, _, k| {
                    self.rates[slot as usize][k] = *live.next().expect("one rate per member");
                });
                written += u64::from(comp.rows);
                comp.dirty = false;
                let key = comp.key;
                self.stats.rounds_executed += st.rounds;
                let rounds = st.rounds;
                total += st;
                self.memo_insert(key, rates, rounds);
            }
            if spider_obs::enabled() {
                total.flush_obs();
                spider_obs::hist_record(
                    "maxmin_components_per_solve",
                    (order.len() + self.prefrozen_rows) as f64,
                );
            }
        }
        self.stats.rows_written += written;
        if spider_obs::enabled() {
            spider_obs::counter_add("maxmin_components_skipped", skipped);
            spider_obs::counter_add("maxmin_components_resolved", missing.len() as u64);
            spider_obs::counter_add("maxmin_rows_written", written);
            if missing.is_empty() {
                spider_obs::counter_add("maxmin_cache_hits", 1);
                spider_obs::counter_add("maxmin_warm_rounds_saved", saved_rounds);
            } else {
                spider_obs::counter_add("maxmin_cache_misses", 1);
            }
        }
        self.solved_below = self.next_id;
        debug_assert_eq!(
            self.components(),
            self.partition_from_scratch(),
            "the component index diverged from a from-scratch partition"
        );
    }

    /// The run holding handle `id` among the flows active at the last
    /// solve: the run's first handle and rates.
    fn solved_run(&self, id: u32) -> Option<(u32, &[f64])> {
        if id >= self.solved_below {
            return None;
        }
        let live = self
            .by_base
            .range(..=id)
            .next_back()
            .map(|(&base, &slot)| (base, self.rates[slot as usize].as_slice()));
        let gone = self
            .departed
            .range(..=id)
            .next_back()
            .map(|(&base, rates)| (base, rates.as_slice()));
        [live, gone]
            .into_iter()
            .flatten()
            .find(|&(base, rates)| ((id - base) as usize) < rates.len())
    }

    /// Per-member rates of the flows active at the last [`Self::solve`], in
    /// solve order, assembled from the batches' rate columns. Empty before
    /// the first solve.
    pub fn rates(&self) -> Vec<f64> {
        let live = self
            .by_base
            .range(..self.solved_below)
            .map(|(&base, &slot)| (base, self.rates[slot as usize].as_slice()));
        let gone = self
            .departed
            .iter()
            .map(|(&base, rates)| (base, rates.as_slice()));
        let mut runs: Vec<(u32, &[f64])> = live.chain(gone).collect();
        runs.sort_unstable_by_key(|&(base, _)| base);
        runs.into_iter()
            .flat_map(|(_, rates)| rates.iter().copied())
            .collect()
    }

    /// Rate of `id` in the last solve, or `None` if it was not active then.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.solved_run(id.0)
            .map(|(base, rates)| rates[(id.0 - base) as usize])
    }

    /// Rates in the last solve of `len` consecutive handles from `first`
    /// on, as one [`Self::add_batch`] returned them: one slice of that
    /// batch's rate column. `None` if any of them was not active then, or
    /// if a partial removal has split them into separate runs since.
    pub fn rates_of_batch(&self, first: FlowId, len: usize) -> Option<&[f64]> {
        if len == 0 {
            return Some(&[]);
        }
        let (base, rates) = self.solved_run(first.0)?;
        let lo = (first.0 - base) as usize;
        rates.get(lo..lo + len)
    }
}

impl spider_simkit::MemFootprint for SolveSession {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        // BTreeMap nodes are opaque to capacity-based accounting; charge the
        // maps at their entry payloads, which is where the bytes are.
        let memo: u64 = self
            .memo
            .values()
            .map(|e| 16 + std::mem::size_of::<MemoEntry>() as u64 + e.live_rates.mem_bytes())
            .sum();
        let departed: u64 = self
            .departed
            .values()
            .map(|r| 4 + slab_bytes::<f64>(r.capacity()) + std::mem::size_of::<Vec<f64>>() as u64)
            .sum();
        // Each distinct batch once: one prepared batch may be resident
        // several times.
        let mut batches: Vec<&Arc<FlowBatch>> = Vec::new();
        for res in self.residents.iter().flatten() {
            if !batches.iter().any(|b| Arc::ptr_eq(b, &res.batch)) {
                batches.push(&res.batch);
            }
        }
        let batches: u64 = batches.iter().map(|b| b.mem_bytes()).sum();
        let residents: u64 = self
            .residents
            .iter()
            .flatten()
            .map(|r| slab_bytes::<u32>(r.comp.capacity()))
            .sum();
        let rates: u64 = self
            .rates
            .iter()
            .map(|r| slab_bytes::<f64>(r.capacity()))
            .sum();
        let comps: u64 = self
            .index
            .comps
            .iter()
            .flatten()
            .map(|c| slab_bytes::<Seg>(c.segs.capacity()))
            .sum();
        self.problem.mem_bytes()
            + slab_bytes::<Option<Resident>>(self.residents.capacity())
            + residents
            + batches
            + slab_bytes::<Vec<f64>>(self.rates.capacity())
            + rates
            + slab_bytes::<u32>(self.free_residents.capacity())
            + self.by_base.len() as u64 * 8
            + departed
            + self.index.uf.mem_bytes()
            + slab_bytes::<u32>(self.index.comp_at.capacity())
            + slab_bytes::<Option<Component>>(self.index.comps.capacity())
            + comps
            + slab_bytes::<u32>(self.index.free.capacity())
            + memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Solve and return the whole rate vector's bits, in solve order.
    fn solve_bits(sess: &mut SolveSession) -> Vec<u64> {
        sess.solve();
        bits(&sess.rates())
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
        assert_eq!(solve_bits(&mut sess), bits(&oracle));
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
        assert_eq!(solve_bits(&mut sess), bits(&oracle));
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
        let first = solve_bits(&mut sess);
        sess.remove_flows(&gen1);
        let gen2 = sess.add_flows(&wave);
        let second = solve_bits(&mut sess);
        assert_eq!(first, second);
        assert_eq!(sess.stats().cache_hits, 1);
        assert_eq!(sess.stats().cache_misses, 1);
        assert!(sess.stats().rounds_saved >= 1);
        assert_ne!(gen1, gen2, "ids are never reused");
    }

    #[test]
    fn a_prepared_batch_recurs_without_copies() {
        let mut p = MaxMinProblem::new();
        let a = p.add_resource(12.0);
        let b = p.add_resource(5.0);
        let batch = Arc::new(FlowBatch::new(
            &p,
            &[
                FlowSpec::new(vec![a]).with_weight(4.0),
                FlowSpec::new(vec![b]),
                FlowSpec::new(vec![a, b]).with_cap(1.5),
            ],
        ));
        let mut sess = SolveSession::new(p);
        let one = sess.add_batch(&batch);
        let two = sess.add_batch(&batch);
        assert_eq!(Arc::strong_count(&batch), 3, "both residents share it");
        sess.solve();
        let first = sess.rates_of_batch(one, 3).expect("solved").to_vec();
        assert_eq!(sess.rates_of_batch(two, 3), Some(&first[..]));
        sess.remove_batch(one, 3);
        sess.remove_batch(two, 3);
        let three = sess.add_batch(&batch);
        sess.solve();
        assert_eq!(sess.stats().cache_hits, 0, "the one-copy shape is new");
        sess.remove_batch(three, 3);
        let four = sess.add_batch(&batch);
        sess.solve();
        assert_eq!(sess.stats().cache_hits, 1, "and recurs");
        assert_eq!(sess.active_flows(), vec![FlowId(9), FlowId(10), FlowId(11)]);
        assert_eq!(four, FlowId(9));
    }

    #[test]
    fn prefrozen_flows_do_not_disturb_the_key() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let live = p.add_resource(5.0);
        let mut sess = SolveSession::new(p);
        let a = sess.add_flow(&FlowSpec::new(vec![live]));
        sess.solve();
        // A dead flow joins: the active set changed but the key (and so the
        // memo) must not — the extra flow's rate is exactly 0.
        let b = sess.add_flow(&FlowSpec::new(vec![dead, live]));
        sess.solve();
        assert_eq!(sess.stats().cache_hits, 1);
        assert_eq!(sess.rates(), vec![5.0, 0.0]);
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
        assert_eq!(sess.rates_of_batch(a[0], 2), None, "before any solve");
        sess.solve();
        assert_eq!(sess.rates_of_batch(a[0], 2), Some(&[1.5, 1.5][..]));
        assert_eq!(sess.rates_of_batch(b[0], 1), Some(&[1.5][..]));
        assert_eq!(sess.rates_of_batch(b[0], 0), Some(&[][..]));
        // Removed after the last solve: the batch still reads that solve.
        sess.remove_batch(a[0], 2);
        assert_eq!(sess.rates_of_batch(a[0], 2), Some(&[1.5, 1.5][..]));
        assert_eq!(sess.rates(), vec![1.5, 1.5, 1.5]);
        sess.solve();
        assert_eq!(sess.rates_of_batch(a[0], 2), None);
        assert_eq!(sess.rates_of_batch(b[0], 1), Some(&[3.0][..]));
    }

    #[test]
    fn removing_part_of_a_batch_keeps_its_survivors() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(8.0);
        let s = p.add_resource(3.0);
        let specs: Vec<FlowSpec> = (0..6)
            .map(|k| {
                FlowSpec::new(vec![if k % 3 == 0 { s } else { r }]).with_weight(1.0 + k as f64)
            })
            .collect();
        let mut sess = SolveSession::new(p.clone());
        let ids = sess.add_flows(&specs);
        sess.solve();
        let before = sess.rates();
        sess.remove_flows(&[ids[1], ids[4], ids[2]]);
        // Survivors and removed flows both still read the last solve.
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(sess.rate_of(*id), Some(before[k]), "flow {k}");
        }
        assert_eq!(sess.rates(), before);
        let live: Vec<FlowSpec> = [0, 3, 5].iter().map(|&k| specs[k].clone()).collect();
        assert_eq!(solve_bits(&mut sess), bits(&p.solve(&live)));
        assert_eq!(sess.active_flows(), vec![ids[0], ids[3], ids[5]]);
        assert_eq!(sess.rate_of(ids[1]), None);
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
            assert_eq!(solve_bits(&mut sess), bits(&p.solve(&specs)));
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
    fn churn_in_one_zone_writes_no_rate_of_the_other() {
        // Zone A (resources a1, a2) and zone B (resource b), each one
        // batch. Churning zone B — an add, a remove, a memo replay — writes
        // only zone B's rates: zone A stays clean and holds its own.
        let mut p = MaxMinProblem::new();
        let a1 = p.add_resource(10.0);
        let a2 = p.add_resource(7.0);
        let b = p.add_resource(20.0);
        let mut sess = SolveSession::new(p);
        let zone_a: Vec<FlowSpec> = (0..5)
            .map(|k| FlowSpec::new(vec![a1, a2]).with_weight(1.0 + f64::from(k)))
            .collect();
        let zone_b: Vec<FlowSpec> = (0..3).map(|_| FlowSpec::new(vec![b])).collect();
        let za = sess.add_flows(&zone_a);
        let zb = sess.add_flows(&zone_b);
        sess.solve();
        assert_eq!(sess.stats().rows_written, 8, "the first solve writes all");
        let a_rates = sess.rates_of_batch(za[0], 5).expect("solved").to_vec();

        let extra = sess.add_flows(&[FlowSpec::new(vec![b]).with_weight(2.0)]);
        sess.solve();
        assert_eq!(sess.stats().rows_written, 8 + 4, "zone B's three and one");
        sess.remove_flows(&extra);
        sess.solve();
        assert_eq!(sess.stats().rows_written, 12 + 3, "zone B replays");
        sess.remove_flows(&zb);
        let zb2 = sess.add_flows(&zone_b);
        sess.solve();
        assert_eq!(sess.stats().rows_written, 15 + 3);
        assert_eq!(sess.stats().components_skipped, 1 + 2 + 2);
        assert_eq!(sess.rates_of_batch(za[0], 5), Some(&a_rates[..]));
        assert_eq!(sess.rates_of_batch(zb2[0], 3), Some(&[20.0 / 3.0; 3][..]));
    }

    #[test]
    fn removing_a_bridge_splits_its_component() {
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
            "the zones split once the bridge departs"
        );
        assert_eq!(sess.components(), sess.partition_from_scratch());
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
    fn sequence_keys_compose_under_concatenation() {
        let d: Vec<[u64; 2]> = (0..9u64)
            .map(|k| flow_digest(&[k as u32], 1.0, 1.0 + k as f64))
            .collect();
        let whole = d.iter().fold(SeqHash::EMPTY, |h, &x| h.push(x));
        for cut in 0..=d.len() {
            let head = d[..cut].iter().fold(SeqHash::EMPTY, |h, &x| h.push(x));
            let tail = d[cut..].iter().fold(SeqHash::EMPTY, |h, &x| h.push(x));
            assert_eq!(head.concat(tail), whole, "cut at {cut}");
        }
        let mut swapped = d.clone();
        swapped.swap(2, 3);
        let other = swapped.iter().fold(SeqHash::EMPTY, |h, &x| h.push(x));
        assert_ne!(other.key(), whole.key(), "order matters");
        assert_ne!(
            SeqHash::EMPTY.push([0, 0]).key(),
            SeqHash::EMPTY.key(),
            "length matters"
        );
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
            assert_eq!(solve_bits(&mut sess), bits(&p.solve(&flows)));
        }
    }

    #[test]
    fn renumbering_keeps_the_saturation_tie_break_by_resource_id() {
        // Resources 2 and 5 both saturate at 1 / (0.7 + 0.1). The one with
        // the smaller id saturates first and freezes its flows at that
        // level; the other saturates next, one ulp later, from the residue
        // those freezes leave. The component's local ids must ascend with
        // the global ones for its solve to saturate them in the same order.
        let mut p = MaxMinProblem::new();
        for c in [1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0] {
            p.add_resource(c);
        }
        let path = |ids: &[usize]| ids.iter().map(|&r| ResourceId(r)).collect::<Vec<_>>();
        let specs = vec![
            FlowSpec::new(path(&[2])).with_cap(1.5).with_weight(0.7),
            FlowSpec::new(path(&[6, 9, 7]))
                .with_cap(0.5)
                .with_weight(0.1),
            FlowSpec::new(path(&[5, 1])).with_weight(0.7),
            FlowSpec::new(path(&[5, 7, 0, 2]))
                .with_cap(1.5)
                .with_weight(0.1),
        ];
        let (whole, stats) = p.solve_with_stats(&specs);
        assert_eq!(stats.saturation_order, vec![2, 5]);
        assert_ne!(
            whole[0].to_bits(),
            whole[2].to_bits(),
            "the tie leaves an ulp"
        );
        let mut sess = SolveSession::new(p);
        sess.add_flows(&specs);
        assert_eq!(solve_bits(&mut sess), bits(&whole));
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
    #[should_panic(expected = "weight must be positive, finite and above 1e-9")]
    fn sub_eps_weight_rejected_by_update_weight() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let mut sess = SolveSession::new(p);
        let id = sess.add_flow(&FlowSpec::new(vec![r]));
        sess.update_weight(id, 1e-10);
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
