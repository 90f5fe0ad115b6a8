//! The steady-state flow-level throughput engine.
//!
//! Every client I/O stream crosses the chain *client process → LNET router →
//! OSS link → controller couplet → OST*; the process is a per-flow rate cap,
//! each later stage a capacitated resource, and the allocation is max-min
//! fair (`spider-net::maxmin`). This is the engine behind Figures 3 and 4
//! and the §V-C upgrade experiment: the plateau emerges from the controller
//! couplets, the ramp slope from the per-process rate, and the
//! transfer-size shape from the client RPC model composed with the RAID
//! full-stripe/RMW model.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spider_net::maxmin::{FlowSpec, MaxMinProblem, ResourceId};
use spider_net::session::{FlowBatch, FlowId, SessionStats, SolveSession, UnionFind};
use spider_pfs::ost::OstId;
use spider_simkit::Bandwidth;
use spider_workload::ior::{IorConfig, IorTarget, RateClasses};

use crate::center::Center;

/// A write/read test against one namespace.
#[derive(Debug, Clone)]
pub struct FlowTest {
    /// Target namespace index.
    pub fs: usize,
    /// Number of client processes.
    pub clients: u32,
    /// Transfer size per I/O call.
    pub transfer_size: u64,
    /// Writes (true) or reads (false).
    pub write: bool,
    /// Optimal (I/O-aware) client placement vs batch-scheduler placement.
    pub optimal_placement: bool,
}

/// Solved allocation, stored at class granularity.
///
/// Clients sharing an (OST, router) path have identical max-min rates, so
/// the solution keeps one rate per class plus the test's dense (OST, router
/// slot) class table, and only expands a per-client vector on demand
/// ([`Self::per_client`]). At 10^6 clients that is ~10^3 floats and a table
/// of ~10^4 cells per solve point instead of a million-element vector.
#[derive(Debug, Clone)]
pub struct FlowSolution {
    /// Aggregate rate.
    pub aggregate: Bandwidth,
    /// Per-class member rate, in class (solve) order.
    class_rate: Vec<f64>,
    /// The clients' class table; shared with cached class decompositions.
    table: Arc<ClassTable>,
}

impl FlowSolution {
    /// Number of clients covered.
    pub fn clients(&self) -> usize {
        self.table.clients as usize
    }

    /// Expand to an owned per-client vector (`clients()` elements).
    pub fn per_client(&self) -> Vec<Bandwidth> {
        self.table
            .class_of_clients()
            .map(|c| {
                let rate = self.class_rate[c as usize];
                Bandwidth(rate)
            })
            .collect()
    }
}

/// OST assignment for client `i` of `n` over `n_osts` targets: file-per-
/// process round-robin (the MDS round-robin allocator at scale).
fn ost_of_client(i: u32, n_osts: usize) -> OstId {
    debug_assert!(n_osts > 0);
    OstId(i % n_osts as u32)
}

/// Panic on a test no namespace skeleton can serve: an unknown namespace,
/// or one with no OSTs to spread its clients over.
fn check_test(center: &Center, t: &FlowTest) {
    assert!(t.fs < center.namespaces(), "unknown namespace");
    assert!(
        center.filesystems[t.fs].ost_count() > 0,
        "namespace {} has no OSTs",
        t.fs
    );
}

/// One namespace's resource skeleton, as its classes' paths read it: per
/// OST, the tail every class path through it ends with and its router
/// group.
struct NsSkeleton {
    /// Per OST: its OSS link, its couplet and itself, as `u32` resource
    /// indices like the solver's columns.
    tails: Vec<[u32; 3]>,
    /// Per OST: the fine-grained routing group of its SSU (SSU mod groups),
    /// an index into the router plant's slot lists.
    groups: Vec<u32>,
}

impl NsSkeleton {
    /// Register namespace `fs_idx`'s OSTs, OSS links and couplets, in that
    /// order: registration order fixes the resource ids, and the solver
    /// breaks saturation ties by id. Each OST is priced at its device rate
    /// for `rpc_bytes` RPCs in the given direction, derated by OSS software.
    fn build(
        problem: &mut MaxMinProblem,
        center: &Center,
        fs_idx: usize,
        write: bool,
        rpc_bytes: u64,
    ) -> Self {
        let fs = &center.filesystems[fs_idx];
        let ost_res: Vec<ResourceId> = fs
            .osts
            .iter()
            .map(|ost| {
                let oss = fs.oss_of(ost.id);
                let dev = if write {
                    ost.write_bandwidth(rpc_bytes, true) * oss.write_efficiency()
                } else {
                    ost.read_bandwidth(rpc_bytes, true) * oss.read_efficiency()
                };
                problem.add_resource(dev.as_bytes_per_sec())
            })
            .collect();
        let oss_res: Vec<ResourceId> = fs
            .oss
            .iter()
            .map(|o| problem.add_resource(o.network_cap().as_bytes_per_sec()))
            .collect();
        // Couplets in the order their SSUs first serve an OST.
        let groups = center.routers.groups.max(1) as usize;
        let mut couplet_of_ssu = BTreeMap::new();
        let (tails, groups) = (0..fs.ost_count())
            .map(|o| {
                let ssu = center.ssu_index(fs_idx, OstId(o as u32));
                let couplet = *couplet_of_ssu.entry(ssu).or_insert_with(|| {
                    problem
                        .add_resource(center.controllers[ssu].throughput_cap().as_bytes_per_sec())
                });
                let oss = oss_res[fs.oss_index_of(OstId(o as u32))];
                let tail = [oss, couplet, ost_res[o]].map(|r| r.0 as u32);
                (tail, (ssu % groups) as u32)
            })
            .unzip();
        NsSkeleton { tails, groups }
    }
}

/// Register the LNET router plant, which every namespace shares; it follows
/// the namespace skeletons. Returns each fine-grained routing group's router
/// slots: slot `s` of group `g` is its `s`-th router, and a group with no
/// routers spreads its clients over the whole plant (slot `s` is router
/// `s`).
fn router_plant(problem: &mut MaxMinProblem, center: &Center) -> Vec<Vec<ResourceId>> {
    let routers: Vec<ResourceId> = center
        .routers
        .routers
        .iter()
        .map(|r| problem.add_resource(r.capacity.as_bytes_per_sec()))
        .collect();
    (0..center.routers.groups.max(1) as usize)
        .map(|g| match center.routers_of_group(g) {
            [] => routers.clone(),
            members => members.iter().map(|&r| routers[r]).collect(),
        })
        .collect()
}

/// The problem a [`FlowSession`] solves: every namespace's skeleton, each
/// OST priced at its 1 MiB (RPC-sized) sequential write rate, then the
/// router plant's slots.
fn session_problem(center: &Center) -> (MaxMinProblem, Vec<NsSkeleton>, Vec<Vec<ResourceId>>) {
    let rpc_size = center.config.client.rpc_size;
    let mut problem = MaxMinProblem::new();
    let ns = (0..center.namespaces())
        .map(|fs| NsSkeleton::build(&mut problem, center, fs, true, rpc_size))
        .collect();
    let slots = router_plant(&mut problem, center);
    (problem, ns, slots)
}

/// Greatest common divisor.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The classes that `clients` round-robin clients found over OSTs with
/// `slots[o]` router slots each: their (OST, slot, weight) in founding
/// order, and each OST's slot period.
///
/// Client `i` uses OST `o = i mod n` and slot `i mod m_o`. OST `o`'s clients
/// are `o + k·n` for `k < K_o`, and their slots repeat with period
/// `p_o = m_o / gcd(n, m_o)`. So the OST founds classes at `k < min(K_o,
/// p_o)`, and class `k` holds the clients `k' ≡ k (mod p_o)`: it weighs
/// `ceil((K_o − k) / p_o)`, an exact integer in `f64`, which is `q + 1` for
/// `k < r` and `q` after, where `K_o = q·p_o + r`. Class `k`'s slot,
/// `(o + k·n) mod m_o`, steps by `n mod m_o`. Founding order is client
/// order, which is by `(k, o)`. The cost is O(classes), not O(clients),
/// and no division is made per class.
fn class_founders(clients: u32, slots: &[u32]) -> (Vec<(u32, u32, f64)>, Vec<u32>) {
    /// One OST's founding state.
    struct Founding {
        /// Classes it founds, `min(K_o, p_o)`.
        classes: u64,
        m: u64,
        /// The slot of its next class, and the step to the one after.
        slot: u64,
        step: u64,
        /// `K_o = q·p_o + r`.
        q: u64,
        r: u64,
    }
    let n = slots.len() as u64;
    let clients = u64::from(clients);
    let mut periods = Vec::with_capacity(slots.len());
    let mut per_ost: Vec<Founding> = slots
        .iter()
        .enumerate()
        .map(|(o, &m)| {
            let o = o as u64;
            let count = if o < clients {
                (clients - 1 - o) / n + 1
            } else {
                0
            };
            let m = u64::from(m);
            let period = m / gcd(n, m);
            periods.push(period as u32);
            Founding {
                classes: count.min(period),
                m,
                slot: o % m,
                step: n % m,
                q: count / period,
                r: count % period,
            }
        })
        .collect();
    let rounds = per_ost.iter().map(|f| f.classes).max().unwrap_or(0);
    let mut founders = Vec::with_capacity(per_ost.iter().map(|f| f.classes as usize).sum());
    for k in 0..rounds {
        for (o, f) in per_ost.iter_mut().enumerate() {
            if k < f.classes {
                let weight = f.q + u64::from(k < f.r);
                founders.push((o as u32, f.slot as u32, weight as f64));
                f.slot += f.step;
                if f.slot >= f.m {
                    f.slot -= f.m;
                }
            }
        }
    }
    (founders, periods)
}

/// The table that names each client's class. Client `i = o + k·n` uses OST
/// `o` and, through its slot, the class OST `o` founded at `k mod p_o`:
/// one entry per class, however many clients and router slots.
#[derive(Debug)]
struct ClassTable {
    clients: u32,
    /// Per OST: its slot period `p_o` and where its classes start in
    /// `founded`.
    osts: Vec<(u32, u32)>,
    /// Each OST's classes by `k` (founding order), OST after OST.
    founded: Vec<u32>,
}

impl ClassTable {
    /// Index founders (as [`class_founders`] lists them) by OST.
    fn new(clients: u32, founders: &[(u32, u32, f64)], periods: &[u32]) -> Self {
        let mut start = vec![0u32; periods.len() + 1];
        for &(o, ..) in founders {
            start[o as usize + 1] += 1;
        }
        for o in 0..periods.len() {
            start[o + 1] += start[o];
        }
        let osts: Vec<(u32, u32)> = periods.iter().zip(&start).map(|(&p, &s)| (p, s)).collect();
        // Founding order visits each OST's classes by ascending `k`.
        let mut founded = vec![0u32; founders.len()];
        for (c, &(o, ..)) in founders.iter().enumerate() {
            founded[start[o as usize] as usize] = c as u32;
            start[o as usize] += 1;
        }
        ClassTable {
            clients,
            osts,
            founded,
        }
    }

    /// Each client's class, in client order.
    fn class_of_clients(&self) -> impl Iterator<Item = u32> + '_ {
        let n = self.osts.len() as u32;
        (0..self.clients).map(move |i| {
            let (period, start) = self.osts[(i % n) as usize];
            self.founded[(start + i / n % period) as usize]
        })
    }
}

impl spider_simkit::MemFootprint for ClassTable {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        slab_bytes::<(u32, u32)>(self.osts.capacity()) + slab_bytes::<u32>(self.founded.capacity())
    }
}

/// One test's weighted-class decomposition. All clients hitting the same
/// (OST, router) pair cross *identical* resources with the *same* cap, and
/// max-min fairness gives identical members identical rates — so the
/// solver only needs one weighted flow per class (~n_osts classes instead
/// of up to 18,688 client flows at Titan scale), and the clients map onto
/// the classes through a table with one entry per class, not a per-client
/// map.
struct ClassSet {
    /// Each class's path: router, OSS link, couplet, OST.
    paths: Vec<[ResourceId; 4]>,
    /// Each class's member count.
    weights: Vec<f64>,
    /// The per-process rate every member is capped at.
    cap: f64,
    table: ClassTable,
}

impl ClassSet {
    /// Collapse `t`'s clients onto the skeleton `ns` of namespace `t.fs`
    /// and the router plant, in closed form ([`class_founders`]): at 10^6
    /// clients only the ~10^3 classes are visited.
    ///
    /// Client `i` writes to OST `i % n_osts` (file-per-process round-robin,
    /// the MDS allocator at scale) through router slot `i % m` of that
    /// OST's fine-grained routing group (see [`router_plant`]), `m` the
    /// group's slot count. Slots map one-to-one onto routers within a
    /// group, so each (OST, slot) pair names one (OST, router) class; the
    /// first client on a path founds its class, so class indices stay in
    /// client order. A class's path is its router followed by its OST's
    /// skeleton tail.
    fn build(center: &Center, t: &FlowTest, ns: &NsSkeleton, slots: &[Vec<ResourceId>]) -> Self {
        let per_process = center
            .config
            .client
            .process_rate(t.transfer_size, t.optimal_placement)
            .as_bytes_per_sec();
        let counts: Vec<u32> = ns
            .groups
            .iter()
            .map(|&g| {
                // A plant with no router still offers one slot, which no
                // class can route through.
                u32::try_from(slots[g as usize].len().max(1)).expect("a router count fits in u32")
            })
            .collect();
        let (founders, periods) = class_founders(t.clients, &counts);
        let paths: Vec<[ResourceId; 4]> = founders
            .iter()
            .map(|&(o, slot, _)| {
                let [oss, couplet, ost] = ns.tails[o as usize].map(|r| ResourceId(r as usize));
                let router = slots[ns.groups[o as usize] as usize][slot as usize];
                [router, oss, couplet, ost]
            })
            .collect();
        if spider_obs::enabled() {
            spider_obs::counter_add("flowsim_clients", t.clients as u64);
            spider_obs::counter_add("flowsim_classes", paths.len() as u64);
            if !paths.is_empty() {
                // Collapse ratio: member flows folded into each solver class.
                spider_obs::hist_record(
                    "flowsim_collapse_ratio",
                    t.clients as f64 / paths.len() as f64,
                );
            }
        }
        ClassSet {
            paths,
            weights: founders.iter().map(|&(_, _, weight)| weight).collect(),
            cap: per_process,
            table: ClassTable::new(t.clients, &founders, &periods),
        }
    }

    /// The classes as `(resources, cap, weight)`, the fields of a
    /// [`FlowSpec`].
    fn flows(&self) -> impl Iterator<Item = (&[ResourceId], Option<f64>, f64)> + '_ {
        self.paths
            .iter()
            .zip(&self.weights)
            .map(|(path, &weight)| (path.as_slice(), Some(self.cap), weight))
    }
}

/// Solve a flow test against the center: one stateless max-min solve over
/// the test's namespace skeleton, with every OST priced at the test's own
/// direction and RPC size, plus the router plant.
pub fn solve(center: &Center, test: &FlowTest) -> FlowSolution {
    check_test(center, test);
    assert!(test.clients > 0 && test.transfer_size > 0);
    // RPC size actually hitting the OST: transfers above the RPC size are
    // split into RPC-size chunks; smaller transfers ship as-is (and pay the
    // partial-stripe penalty at the RAID layer).
    let rpc_bytes = test.transfer_size.min(center.config.client.rpc_size);
    let mut problem = MaxMinProblem::new();
    let ns = NsSkeleton::build(&mut problem, center, test.fs, test.write, rpc_bytes);
    let slots = router_plant(&mut problem, center);
    let set = ClassSet::build(center, test, &ns, &slots);
    spider_obs::counter_add("flowsim_solves", 1);
    let classes: Vec<FlowSpec> = set
        .flows()
        .map(|(path, cap, weight)| FlowSpec {
            resources: path.to_vec(),
            cap,
            weight,
        })
        .collect();
    let rates = problem.solve(&classes);
    let solution = FlowSolution {
        aggregate: Bandwidth(MaxMinProblem::weighted_total(&classes, &rates)),
        class_rate: rates,
        table: Arc::new(set.table),
    };
    // Live feed: the per-OST allocation this solve produced, stamped at the
    // poller's current sim-time (the solve itself is instantaneous in
    // sim-time; the caller owns the clock). Only deterministic,
    // single-threaded call sites may run with the live layer on — parallel
    // sweeps feed canonical post-run streams instead (the pdesobs pattern).
    // The fold walks clients in index order adding each one's class rate,
    // the same operand sequence the eager per-client path produced.
    if spider_obs::live_enabled() {
        let n_osts = ns.tails.len();
        let mut per_ost = vec![0.0f64; n_osts];
        for (i, c) in solution.table.class_of_clients().enumerate() {
            per_ost[ost_of_client(i as u32, n_osts).0 as usize] += solution.class_rate[c as usize];
        }
        for (o, load) in per_ost.iter().enumerate() {
            spider_obs::live_sample("flowsim_ost_mb_per_s", &format!("ost{o:03}"), load / 1e6);
        }
    }
    solution
}

/// Solve several tests *concurrently*: all flows share one resource graph,
/// so workloads on the same namespace contend for the same couplets, OSSes
/// and OSTs — the §II mixed-workload situation, at flow level. Returns one
/// solution per test, in order.
///
/// Thin wrapper over [`FlowSession`]: build a session, add every test,
/// solve once. Callers that re-solve under churn (e.g. the timestep engine)
/// should hold a session instead and pay only for the deltas.
pub fn solve_concurrent(center: &Center, tests: &[FlowTest]) -> Vec<FlowSolution> {
    if tests.is_empty() {
        return Vec::new();
    }
    let mut session = FlowSession::new(center);
    let ids: Vec<TestId> = tests.iter().map(|t| session.add_test(t)).collect();
    spider_obs::counter_add("flowsim_concurrent_solves", 1);
    session.solve();
    ids.iter().map(|&id| session.solution_of(id)).collect()
}

/// Handle to an active test in a [`FlowSession`]. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TestId(u64);

/// Key identifying a test shape: everything that feeds the class build.
type ClassKey = (usize, u32, u64, bool, bool);

fn class_key(t: &FlowTest) -> ClassKey {
    (
        t.fs,
        t.clients,
        t.transfer_size,
        t.write,
        t.optimal_placement,
    )
}

/// A cached test shape: its classes as one prepared solver batch, and the
/// table that maps its clients onto them.
struct PreparedClasses {
    batch: Arc<FlowBatch>,
    table: Arc<ClassTable>,
}

/// An incremental multi-test flow solver over one [`Center`].
///
/// Where [`solve_concurrent`] rebuilds the resource graph and re-derives
/// every test's (OST, router) classes on each call, a session builds the
/// per-namespace problem skeleton **once**, caches each test shape's
/// classes as one prepared [`FlowBatch`], and drives an incremental
/// [`SolveSession`] underneath — so a caller stepping through time pays
/// for its own test per event (a recurring shape is re-added without
/// validating or hashing a flow), and recurring active sets (the same
/// checkpoint wave every period) are answered from the solver's
/// fixed-point memo without any water-filling at all.
pub struct FlowSession<'a> {
    center: &'a Center,
    solver: SolveSession,
    ns: Vec<NsSkeleton>,
    slots: Vec<Vec<ResourceId>>,
    class_sets: Vec<PreparedClasses>,
    class_cache: BTreeMap<ClassKey, usize>,
    /// Active tests: id -> (class-set index, handle of its first flow).
    active: BTreeMap<u64, (usize, FlowId)>,
    next_test: u64,
}

impl<'a> FlowSession<'a> {
    /// Build the skeleton of every namespace plus the shared router plant,
    /// and start an empty session over it. Every OST is priced at its
    /// 1 MiB (RPC-sized) sequential write rate; per-flow transfer-size
    /// effects ride on the flow caps.
    pub fn new(center: &'a Center) -> Self {
        let (problem, ns, slots) = session_problem(center);
        FlowSession {
            center,
            solver: SolveSession::new(problem),
            ns,
            slots,
            class_sets: Vec::new(),
            class_cache: BTreeMap::new(),
            active: BTreeMap::new(),
            next_test: 0,
        }
    }

    /// The weighted-class decomposition for a test shape, built on first
    /// sight and reused for every later test with the same shape.
    fn class_set_of(&mut self, t: &FlowTest) -> usize {
        let key = class_key(t);
        if let Some(&idx) = self.class_cache.get(&key) {
            spider_obs::counter_add("flowsim_class_cache_hits", 1);
            return idx;
        }
        spider_obs::counter_add("flowsim_class_cache_misses", 1);
        let set = ClassSet::build(self.center, t, &self.ns[t.fs], &self.slots);
        self.class_sets.push(PreparedClasses {
            batch: Arc::new(FlowBatch::from_flows(self.solver.problem(), set.flows())),
            table: Arc::new(set.table),
        });
        let idx = self.class_sets.len() - 1;
        self.class_cache.insert(key, idx);
        idx
    }

    /// Activate a test; its flows join the shared allocation at the next
    /// [`Self::solve`].
    pub fn add_test(&mut self, t: &FlowTest) -> TestId {
        check_test(self.center, t);
        let set = self.class_set_of(t);
        let first = self.solver.add_batch(&self.class_sets[set].batch);
        let id = TestId(self.next_test);
        self.next_test += 1;
        self.active.insert(id.0, (set, first));
        id
    }

    /// Deactivate a test (its job completed or was cancelled).
    pub fn remove_test(&mut self, id: TestId) {
        let (set, first) = self
            .active
            .remove(&id.0)
            .unwrap_or_else(|| panic!("test {id:?} is not active"));
        self.solver
            .remove_batch(first, self.class_sets[set].batch.len());
    }

    /// Number of currently active tests.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Re-solve the shared allocation for the current active set.
    pub fn solve(&mut self) {
        self.solver.solve();
    }

    /// A test's class set and its per-class rates in the last
    /// [`Self::solve`]: its batch's own rate column.
    fn rates_of(&self, id: TestId) -> (&PreparedClasses, &[f64]) {
        let (set, first) = self.active[&id.0];
        let set = &self.class_sets[set];
        let rates = self
            .solver
            .rates_of_batch(first, set.batch.len())
            .expect("test solved after last delta");
        (set, rates)
    }

    /// Aggregate rate of an active test in the last [`Self::solve`]:
    /// `Σ class-weight × per-member rate`, without expanding to clients.
    pub fn aggregate_of(&self, id: TestId) -> Bandwidth {
        let (set, rates) = self.rates_of(id);
        Bandwidth(set.batch.weighted_total(rates))
    }

    /// Class-level solution of an active test in the last [`Self::solve`].
    /// No per-client vector is materialized — the returned solution shares
    /// the cached class table and expands on demand.
    pub fn solution_of(&self, id: TestId) -> FlowSolution {
        let (set, rates) = self.rates_of(id);
        let rates = rates.to_vec();
        FlowSolution {
            aggregate: Bandwidth(set.batch.weighted_total(&rates)),
            class_rate: rates,
            table: Arc::clone(&set.table),
        }
    }

    /// Counters of the underlying incremental solver (cache hits, rounds
    /// saved, …).
    pub fn solver_stats(&self) -> &SessionStats {
        self.solver.stats()
    }
}

/// Union-find over namespace indices that joins two namespaces when classes
/// of `tests` on them couple, directly or through other tests' classes: a
/// [`FlowSession`] holding every test at once would put them in one
/// component. Each distinct test shape's classes are built once and their
/// paths unioned with their namespace; no solver batch, digest or session
/// is made. A set's representative is its smallest namespace.
pub(crate) fn coupled_namespaces<'t>(
    center: &Center,
    tests: impl IntoIterator<Item = &'t FlowTest>,
) -> UnionFind {
    let (problem, ns, slots) = session_problem(center);
    // Namespaces come first, so a set's smallest member is a namespace
    // whenever it holds one.
    let namespaces = center.namespaces() as u32;
    let mut uf = UnionFind::new(center.namespaces() + problem.resources());
    let mut shapes = BTreeSet::new();
    let mut members = Vec::new();
    for t in tests {
        check_test(center, t);
        // A repeated shape reuses its classes, as a session's class cache
        // would.
        if !shapes.insert(class_key(t)) {
            spider_obs::counter_add("flowsim_class_cache_hits", 1);
            continue;
        }
        spider_obs::counter_add("flowsim_class_cache_misses", 1);
        let set = ClassSet::build(center, t, &ns[t.fs], &slots);
        for (path, cap, _) in set.flows() {
            if !problem.is_prefrozen(path, cap) {
                members.clear();
                members.push(t.fs as u32);
                members.extend(path.iter().map(|r| namespaces + r.0 as u32));
                uf.union_all(&members);
            }
        }
    }
    uf
}

impl spider_simkit::MemFootprint for FlowSession<'_> {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        let ns: u64 = self
            .ns
            .iter()
            .map(|s| {
                slab_bytes::<[u32; 3]>(s.tails.capacity()) + slab_bytes::<u32>(s.groups.capacity())
            })
            .sum();
        let slots: u64 = self
            .slots
            .iter()
            .map(|g| slab_bytes::<ResourceId>(g.capacity()))
            .sum();
        let class_sets: u64 = self
            .class_sets
            .iter()
            .map(|s| {
                // A batch the solver also holds is charged by the solver.
                let batch = if Arc::strong_count(&s.batch) == 1 {
                    s.batch.mem_bytes()
                } else {
                    0
                };
                batch + s.table.mem_bytes()
            })
            .sum();
        let active = self.active.len() as u64 * std::mem::size_of::<(u64, usize, FlowId)>() as u64;
        self.solver.mem_bytes()
            + ns
            + slab_bytes::<PreparedClasses>(self.class_sets.capacity())
            + class_sets
            + active
            + slab_bytes::<Vec<ResourceId>>(self.slots.capacity())
            + slots
    }
}

/// Adapter: a center namespace as an IOR target.
pub struct CenterTarget<'a> {
    /// The center under test.
    pub center: &'a Center,
    /// Namespace index.
    pub fs: usize,
}

impl CenterTarget<'_> {
    fn solve_cfg(&self, cfg: &IorConfig) -> FlowSolution {
        solve(
            self.center,
            &FlowTest {
                fs: self.fs,
                clients: cfg.clients,
                transfer_size: cfg.transfer_size,
                write: cfg.write,
                optimal_placement: cfg.optimal_placement,
            },
        )
    }
}

impl IorTarget for CenterTarget<'_> {
    fn client_rates(&self, cfg: &IorConfig) -> Vec<Bandwidth> {
        self.solve_cfg(cfg).per_client()
    }

    fn rate_classes(&self, cfg: &IorConfig) -> RateClasses {
        let sol = self.solve_cfg(cfg);
        RateClasses {
            rates: sol.class_rate.iter().map(|&r| Bandwidth(r)).collect(),
            class_of_client: Arc::new(sol.table.class_of_clients().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CenterConfig;
    use spider_simkit::MIB;

    fn small() -> Center {
        Center::build(CenterConfig::small())
    }

    #[test]
    fn few_clients_are_process_bound() {
        let c = small();
        let sol = solve(
            &c,
            &FlowTest {
                fs: 0,
                clients: 4,
                transfer_size: MIB,
                write: true,
                optimal_placement: false,
            },
        );
        // 4 clients x 55 MB/s, nothing else binding.
        assert!(
            (sol.aggregate.as_mb_per_sec() - 220.0).abs() < 2.0,
            "{}",
            sol.aggregate.as_mb_per_sec()
        );
    }

    #[test]
    fn many_clients_saturate_the_controllers() {
        let c = small();
        let sol = solve(
            &c,
            &FlowTest {
                fs: 0,
                clients: 5_000,
                transfer_size: MIB,
                write: true,
                optimal_placement: false,
            },
        );
        // Namespace 0 spans SSUs 0 and 1: 2 x 17.8 GB/s couplets, but the
        // small build has only 8 OSTs/SSU (~8 GB/s of disk each after
        // software), so disks bind first: ~16 GB/s.
        let agg = sol.aggregate.as_gb_per_sec();
        assert!((10.0..=36.0).contains(&agg), "{agg}");
        // Saturated: doubling clients adds nothing.
        let sol2 = solve(
            &c,
            &FlowTest {
                fs: 0,
                clients: 10_000,
                transfer_size: MIB,
                write: true,
                optimal_placement: false,
            },
        );
        assert!(
            (sol2.aggregate.as_bytes_per_sec() - sol.aggregate.as_bytes_per_sec()).abs()
                < 0.02 * sol.aggregate.as_bytes_per_sec()
        );
    }

    #[test]
    fn small_transfers_underperform_1mib() {
        let c = small();
        let run = |ts| {
            solve(
                &c,
                &FlowTest {
                    fs: 0,
                    clients: 64,
                    transfer_size: ts,
                    write: true,
                    optimal_placement: false,
                },
            )
            .aggregate
            .as_bytes_per_sec()
        };
        let b4k = run(4 << 10);
        let b256k = run(256 << 10);
        let b1m = run(MIB);
        let b4m = run(4 * MIB);
        assert!(b4k < b256k && b256k < b1m, "{b4k} {b256k} {b1m}");
        assert!(b4m <= b1m, "beyond the RPC size nothing improves");
    }

    #[test]
    fn optimal_placement_unlocks_per_client_rate() {
        let c = small();
        let mk = |optimal| {
            solve(
                &c,
                &FlowTest {
                    fs: 0,
                    clients: 8,
                    transfer_size: MIB,
                    write: true,
                    optimal_placement: optimal,
                },
            )
            .aggregate
            .as_bytes_per_sec()
        };
        assert!(
            mk(true) > 8.0 * mk(false) / 2.0,
            "optimal placement ~9x per client"
        );
    }

    #[test]
    fn reads_flow_too() {
        let c = small();
        let sol = solve(
            &c,
            &FlowTest {
                fs: 1,
                clients: 32,
                transfer_size: MIB,
                write: false,
                optimal_placement: false,
            },
        );
        assert!(sol.aggregate.as_bytes_per_sec() > 0.0);
        assert_eq!(sol.clients(), 32);
        assert_eq!(sol.per_client().len(), 32);
    }

    #[test]
    fn namespaces_are_independent() {
        // Loading namespace 0 does not involve namespace 1's resources:
        // solve() for fs 1 with the same config yields the same answer
        // regardless of a concurrent fs-0 test (steady-state independence).
        let c = small();
        let t = FlowTest {
            fs: 1,
            clients: 100,
            transfer_size: MIB,
            write: true,
            optimal_placement: false,
        };
        let a = solve(&c, &t).aggregate;
        let b = solve(&c, &t).aggregate;
        assert_eq!(
            a.as_bytes_per_sec().to_bits(),
            b.as_bytes_per_sec().to_bits()
        );
    }

    #[test]
    fn concurrent_workloads_contend_for_shared_resources() {
        // The data-centric tradeoff at flow level (LL1): two big jobs on
        // one namespace each get less than they would alone; splitting
        // across namespaces isolates them.
        let c = small();
        let job = |fs: usize| FlowTest {
            fs,
            clients: 4_000,
            transfer_size: MIB,
            write: true,
            optimal_placement: false,
        };
        let alone = solve(&c, &job(0)).aggregate.as_bytes_per_sec();
        let both_same = solve_concurrent(&c, &[job(0), job(0)]);
        let shared_each = both_same[0].aggregate.as_bytes_per_sec();
        assert!(
            shared_each < 0.6 * alone,
            "sharing a namespace halves each job: {shared_each} vs {alone}"
        );
        // Fair: the two identical jobs get equal shares.
        let a = both_same[0].aggregate.as_bytes_per_sec();
        let b = both_same[1].aggregate.as_bytes_per_sec();
        assert!((a - b).abs() / a < 0.01);
        // Split over two namespaces: each keeps its full rate (storage
        // side is independent; routers are plentiful at this scale).
        let split = solve_concurrent(&c, &[job(0), job(1)]);
        assert!(split[0].aggregate.as_bytes_per_sec() > 0.9 * alone);
    }

    #[test]
    fn concurrent_empty_is_empty() {
        let c = small();
        assert!(solve_concurrent(&c, &[]).is_empty());
    }

    #[test]
    fn class_aggregation_is_consistent() {
        // Clients sharing a class get identical rates; the aggregate is the
        // exact sum of per-client rates; and the number of distinct rates is
        // bounded by the number of (OST, router) classes, not clients.
        let c = small();
        let sol = solve(
            &c,
            &FlowTest {
                fs: 0,
                clients: 3_000,
                transfer_size: MIB,
                write: true,
                optimal_placement: false,
            },
        );
        let per_client = sol.per_client();
        assert_eq!(per_client.len(), 3_000);
        let sum: f64 = per_client.iter().map(|b| b.0).sum();
        assert!(
            (sum - sol.aggregate.as_bytes_per_sec()).abs() <= 1e-6 * sum,
            "aggregate {} vs per-client sum {sum}",
            sol.aggregate.as_bytes_per_sec()
        );
        let mut distinct: Vec<u64> = per_client.iter().map(|b| b.0.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let n_osts = c.filesystems[0].ost_count();
        let n_routers = c.routers.len();
        assert!(
            distinct.len() <= n_osts * n_routers.max(1),
            "{} distinct rates for {} classes max",
            distinct.len(),
            n_osts * n_routers
        );
    }

    #[test]
    fn session_churn_matches_solve_concurrent_bitwise() {
        let c = small();
        let t1 = FlowTest {
            fs: 0,
            clients: 700,
            transfer_size: MIB,
            write: true,
            optimal_placement: false,
        };
        let t2 = FlowTest {
            fs: 1,
            clients: 300,
            transfer_size: 64 << 10,
            write: false,
            optimal_placement: true,
        };
        let t3 = FlowTest {
            fs: 0,
            clients: 450,
            transfer_size: 256 << 10,
            write: true,
            optimal_placement: false,
        };
        let bits = |sol: &FlowSolution| {
            let mut v = vec![sol.aggregate.as_bytes_per_sec().to_bits()];
            v.extend(
                sol.per_client()
                    .iter()
                    .map(|b| b.as_bytes_per_sec().to_bits()),
            );
            v
        };

        let mut s = FlowSession::new(&c);
        let a = s.add_test(&t1);
        let b = s.add_test(&t2);
        s.solve();
        s.remove_test(a);
        let d = s.add_test(&t3);
        s.solve();
        // Oracle: a from-scratch concurrent solve over the live tests in
        // session order. Must agree bit-for-bit.
        let oracle = solve_concurrent(&c, &[t2.clone(), t3.clone()]);
        assert_eq!(bits(&s.solution_of(b)), bits(&oracle[0]));
        assert_eq!(bits(&s.solution_of(d)), bits(&oracle[1]));

        // Re-creating the same active shape with fresh ids is a memo hit
        // and still replays the identical fixed point.
        s.remove_test(d);
        let e = s.add_test(&t3);
        s.solve();
        assert!(s.solver_stats().cache_hits >= 1, "{:?}", s.solver_stats());
        assert_eq!(bits(&s.solution_of(e)), bits(&oracle[1]));
        assert_eq!(
            s.aggregate_of(e).as_bytes_per_sec().to_bits(),
            oracle[1].aggregate.as_bytes_per_sec().to_bits()
        );
        assert_eq!(s.active_len(), 2);
    }

    #[test]
    fn coupled_namespaces_follow_shared_routers() {
        // Namespaces share no storage-side resources. At small scale
        // fine-grained routing keeps their router zones disjoint too, so
        // tests on different namespaces never couple; with one router group
        // every namespace routes through the same routers, and they do.
        let job = |fs: usize| FlowTest {
            fs,
            clients: 64,
            transfer_size: MIB,
            write: true,
            optimal_placement: false,
        };
        let tests = [job(0), job(1), job(0)];
        let mut zones = coupled_namespaces(&small(), &tests);
        assert_eq!((zones.find(0), zones.find(1)), (0, 1));
        let mut cfg = CenterConfig::small();
        cfg.router_groups = 1;
        let mut zones = coupled_namespaces(&Center::build(cfg), &tests);
        assert_eq!((zones.find(0), zones.find(1)), (0, 0));
    }

    /// The per-client walk the closed-form build replaced: every client in
    /// order, the first on an (OST, slot) cell founding its class. The
    /// namespace's resources start at id `base`: its OSTs, its OSS links,
    /// then one couplet per SSU in the order the SSUs first serve an OST.
    /// Returns the classes and each client's class.
    fn walk_class_set(
        center: &Center,
        t: &FlowTest,
        base: usize,
        router_res: &[ResourceId],
    ) -> (Vec<FlowSpec>, Vec<u32>) {
        let fs = &center.filesystems[t.fs];
        let n_osts = fs.ost_count();
        let mut ssus: Vec<usize> = Vec::new();
        for o in 0..n_osts {
            let ssu = center.ssu_index(t.fs, OstId(o as u32));
            if !ssus.contains(&ssu) {
                ssus.push(ssu);
            }
        }
        let ost_res = |o: usize| ResourceId(base + o);
        let oss_res = |i: usize| ResourceId(base + n_osts + i);
        let couplet_res = |ssu: usize| {
            let at = ssus
                .iter()
                .position(|&s| s == ssu)
                .expect("an SSU of the namespace");
            ResourceId(base + n_osts + fs.oss.len() + at)
        };
        let per_process = center
            .config
            .client
            .process_rate(t.transfer_size, t.optimal_placement)
            .as_bytes_per_sec();
        let plant = center.routers.len().max(1);
        let groups = center.routers.groups.max(1) as usize;
        let mut classes: Vec<FlowSpec> = Vec::new();
        let mut class_at: BTreeMap<(u32, usize), u32> = BTreeMap::new();
        let mut class_of_client = Vec::new();
        for i in 0..t.clients {
            let ost = ost_of_client(i, n_osts);
            let ssu = center.ssu_index(t.fs, ost);
            let members = center.routers_of_group(ssu % groups);
            let slots = if members.is_empty() {
                plant
            } else {
                members.len()
            };
            let slot = i as usize % slots;
            let c = match class_at.get(&(ost.0, slot)) {
                Some(&c) => {
                    classes[c as usize].weight += 1.0;
                    c
                }
                None => {
                    let router = if members.is_empty() {
                        slot
                    } else {
                        members[slot]
                    };
                    classes.push(
                        FlowSpec::new(vec![
                            router_res[router],
                            oss_res(fs.oss_index_of(ost)),
                            couplet_res(ssu),
                            ost_res(ost.0 as usize),
                        ])
                        .with_cap(per_process),
                    );
                    let c = classes.len() as u32 - 1;
                    class_at.insert((ost.0, slot), c);
                    c
                }
            };
            class_of_client.push(c);
        }
        (classes, class_of_client)
    }

    #[test]
    fn closed_form_classes_match_the_per_client_walk() {
        // Centers whose OSTs-per-namespace n and group sizes m are coprime
        // (n = 5, m = 12), share a factor (n = 10, m = 12; n = 16, m = 8),
        // and one whose groups 2 and 3 have no routers (their OSTs spread
        // over the 8-router plant), at client counts below, at and above
        // n·m for every group size.
        let configs: Vec<(usize, usize, usize, u32)> = vec![
            // (SSUs, OSTs per SSU, I/O modules, router groups)
            (4, 8, 8, 4),
            (2, 5, 3, 1),
            (4, 5, 3, 1),
            (4, 8, 2, 4),
        ];
        let (mut periodic, mut spread) = (false, false);
        for (ssus, per_ssu, modules, groups) in configs {
            let mut cfg = CenterConfig::small();
            cfg.fleet.ssus = ssus;
            cfg.fleet.ssu.groups = per_ssu;
            cfg.io_modules = modules;
            cfg.router_groups = groups;
            let c = Center::build(cfg);
            let mut problem = MaxMinProblem::new();
            let mut bases = Vec::new();
            let skeletons: Vec<NsSkeleton> = (0..c.namespaces())
                .map(|fs| {
                    bases.push(problem.resources());
                    NsSkeleton::build(&mut problem, &c, fs, true, MIB)
                })
                .collect();
            // The plant's routers follow the skeletons, in router order.
            let router_res: Vec<ResourceId> = (0..c.routers.len())
                .map(|r| ResourceId(problem.resources() + r))
                .collect();
            let slots = router_plant(&mut problem, &c);
            for (fs, ns) in skeletons.iter().enumerate() {
                let n = c.filesystems[fs].ost_count() as u32;
                let m = (c.routers.len() / groups as usize).max(1) as u32;
                spread |= (0..n).any(|o| {
                    let ssu = c.ssu_index(fs, OstId(o));
                    c.routers_of_group(ssu % groups as usize).is_empty()
                });
                let mut counts = vec![1, 3, n - 1, n, n + 2, n * m - 1, n * m, n * m + 1];
                counts.extend([2 * n * m + n / 2, 8 * c.routers.len() as u32 * n + 3]);
                for clients in counts {
                    let t = FlowTest {
                        fs,
                        clients,
                        transfer_size: MIB,
                        write: true,
                        optimal_placement: false,
                    };
                    let set = ClassSet::build(&c, &t, ns, &slots);
                    let (classes, class_of_client) = walk_class_set(&c, &t, bases[fs], &router_res);
                    let bits = |path: &[ResourceId], cap: Option<f64>, weight: f64| {
                        let path: Vec<usize> = path.iter().map(|r| r.0).collect();
                        (path, cap.map(f64::to_bits), weight.to_bits())
                    };
                    let what = format!(
                        "{ssus} SSUs x {per_ssu}, {modules} modules, fs {fs}, {clients} clients"
                    );
                    let built: Vec<_> = set.flows().map(|(p, c, w)| bits(p, c, w)).collect();
                    let walked: Vec<_> = classes
                        .iter()
                        .map(|f| bits(&f.resources, f.cap, f.weight))
                        .collect();
                    assert_eq!(built, walked, "{what}");
                    let expanded: Vec<u32> = set.table.class_of_clients().collect();
                    assert_eq!(expanded, class_of_client, "{what}");
                    periodic |= set.paths.len() > n as usize;
                }
            }
        }
        assert!(periodic, "some OST founds more than one class");
        assert!(spread, "some group has no routers");
    }

    #[test]
    #[should_panic(expected = "no OSTs")]
    fn empty_namespace_panics_cleanly() {
        // Regression: used to reach `i % n_osts` and die with a raw
        // divide-by-zero instead of a diagnosable assert.
        let mut c = small();
        c.filesystems[0].osts.clear();
        let _ = solve(
            &c,
            &FlowTest {
                fs: 0,
                clients: 4,
                transfer_size: MIB,
                write: true,
                optimal_placement: false,
            },
        );
    }

    #[test]
    #[should_panic(expected = "unknown namespace")]
    fn bad_namespace_panics() {
        let c = small();
        let _ = solve(
            &c,
            &FlowTest {
                fs: 9,
                clients: 1,
                transfer_size: MIB,
                write: true,
                optimal_placement: false,
            },
        );
    }
}
