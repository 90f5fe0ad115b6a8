//! Assembling the whole center.

use spider_net::gemini::TitanGeometry;
use spider_net::ib::IbFabric;
use spider_net::lnet::RouterSet;
use spider_pfs::fs::{FileSystem, FsConfig};
use spider_pfs::mds::MdsCluster;
use spider_pfs::ost::OstId;
use spider_simkit::{Bandwidth, SimRng};
use spider_storage::controller::ControllerPair;
use spider_storage::fleet::StorageFleet;

use crate::config::CenterConfig;

/// The assembled center: Titan, the router plant, SION, and the Spider II
/// namespaces over the storage floor.
#[derive(Debug)]
pub struct Center {
    /// Build configuration.
    pub config: CenterConfig,
    /// Titan's network geometry.
    pub geometry: TitanGeometry,
    /// LNET routers.
    pub routers: RouterSet,
    /// The SION InfiniBand fabric.
    pub fabric: IbFabric,
    /// File system namespaces (Spider II: `atlas1`, `atlas2`).
    pub filesystems: Vec<FileSystem>,
    /// Controller couplets, indexed by global SSU.
    pub controllers: Vec<ControllerPair>,
    /// Global SSU index of each OST, per namespace.
    pub ssu_of_ost: Vec<Vec<usize>>,
    /// Router indices by FGR group, built once at assembly so hot paths
    /// never rescan the router plant (`routers_of_group`).
    router_groups: Vec<Vec<usize>>,
}

impl Center {
    /// Build deterministically from a configuration.
    pub fn build(config: CenterConfig) -> Center {
        let mut rng = SimRng::seed_from_u64(config.seed);
        let geometry = if config.io_modules >= 64 {
            TitanGeometry::titan()
        } else {
            TitanGeometry::small_test()
        };
        let fabric = if config.router_groups >= 36 {
            IbFabric::sion()
        } else {
            IbFabric {
                leaves: config.router_groups * 4,
                ..IbFabric::small_test()
            }
        };
        let routers = RouterSet::place(
            &geometry,
            config.placement,
            config.io_modules,
            config.router_groups,
            fabric.leaves,
            Bandwidth::gb_per_sec(2.8),
            &mut rng,
        );

        // Sample the floor, then split SSUs into contiguous namespace
        // blocks (Spider II: atlas1 = SSUs 0..18, atlas2 = 18..36).
        let fleet = StorageFleet::sample(config.fleet.clone(), &mut rng);
        let per_ns = config.ssus_per_namespace();
        assert!(per_ns >= 1, "more namespaces than SSUs");
        let mut controllers = Vec::with_capacity(fleet.ssus.len());
        let mut ns_groups: Vec<Vec<spider_storage::raid::RaidGroup>> =
            (0..config.namespaces).map(|_| Vec::new()).collect();
        let mut ssu_of_ost: Vec<Vec<usize>> = (0..config.namespaces).map(|_| Vec::new()).collect();
        for (i, ssu) in fleet.ssus.into_iter().enumerate() {
            controllers.push(ssu.controller.clone());
            let ns = (i / per_ns).min(config.namespaces - 1);
            for g in ssu.groups {
                ns_groups[ns].push(g);
                ssu_of_ost[ns].push(i);
            }
        }
        let filesystems = ns_groups
            .into_iter()
            .enumerate()
            .map(|(i, groups)| {
                let mut fsc = FsConfig::spider2(&format!("atlas{}", i + 1));
                fsc.n_oss = config.oss_per_namespace;
                FileSystem::build(fsc, groups, MdsCluster::single())
            })
            .collect();

        let mut router_groups: Vec<Vec<usize>> = vec![Vec::new(); routers.groups.max(1) as usize];
        for (idx, r) in routers.routers.iter().enumerate() {
            let g = r.group.0 as usize;
            if g >= router_groups.len() {
                router_groups.resize(g + 1, Vec::new());
            }
            router_groups[g].push(idx);
        }

        Center {
            config,
            geometry,
            routers,
            fabric,
            filesystems,
            controllers,
            ssu_of_ost,
            router_groups,
        }
    }

    /// Number of namespaces.
    pub fn namespaces(&self) -> usize {
        self.filesystems.len()
    }

    /// Global SSU index serving an OST of namespace `fs`.
    pub fn ssu_index(&self, fs: usize, ost: OstId) -> usize {
        self.ssu_of_ost[fs][ost.0 as usize]
    }

    /// Indices into `routers.routers` of the routers in FGR group `group`,
    /// from the table precomputed at build time. Empty for unknown groups.
    pub fn routers_of_group(&self, group: usize) -> &[usize] {
        self.router_groups.get(group).map_or(&[], |v| v.as_slice())
    }

    /// Total usable capacity across namespaces.
    pub fn capacity(&self) -> u64 {
        self.filesystems
            .iter()
            .map(spider_pfs::FileSystem::capacity)
            .sum()
    }

    /// Upgrade every controller couplet in place (§V-C campaign).
    pub fn upgrade_controllers(&mut self, to: spider_storage::controller::ControllerGeneration) {
        for c in &mut self.controllers {
            c.upgrade(to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CenterConfig;

    #[test]
    fn small_center_assembles() {
        let c = Center::build(CenterConfig::small());
        assert_eq!(c.namespaces(), 2);
        assert_eq!(c.filesystems[0].ost_count(), 16);
        assert_eq!(c.filesystems[1].ost_count(), 16);
        assert_eq!(c.controllers.len(), 4);
        // OSTs 0..8 of namespace 0 live in SSU 0, 8..16 in SSU 1.
        assert_eq!(c.ssu_index(0, OstId(0)), 0);
        assert_eq!(c.ssu_index(0, OstId(8)), 1);
        assert_eq!(c.ssu_index(1, OstId(0)), 2);
        assert_eq!(c.routers.len(), 32);
    }

    #[test]
    fn build_is_deterministic() {
        let a = Center::build(CenterConfig::small());
        let b = Center::build(CenterConfig::small());
        let caps = |c: &Center| {
            c.filesystems[0]
                .osts
                .iter()
                .map(|o| o.group.streaming_bandwidth().as_bytes_per_sec())
                .collect::<Vec<_>>()
        };
        assert_eq!(caps(&a), caps(&b));
    }

    #[test]
    fn paper_scale_center_assembles() {
        let c = Center::build(CenterConfig::spider2());
        assert_eq!(c.filesystems[0].ost_count(), 1_008);
        assert_eq!(c.filesystems[1].ost_count(), 1_008);
        assert_eq!(c.controllers.len(), 36);
        assert_eq!(c.routers.len(), 440);
        // >30 PB usable.
        assert!(c.capacity() > 30 * spider_simkit::PB);
    }

    #[test]
    fn router_group_table_matches_filter_scan() {
        let c = Center::build(CenterConfig::small());
        let groups = c.routers.groups as usize;
        let mut seen = 0;
        for g in 0..groups {
            let table = c.routers_of_group(g);
            let scan: Vec<usize> = c
                .routers
                .routers
                .iter()
                .enumerate()
                .filter(|(_, r)| r.group.0 as usize == g)
                .map(|(idx, _)| idx)
                .collect();
            assert_eq!(table, scan.as_slice(), "group {g}");
            seen += table.len();
        }
        assert_eq!(seen, c.routers.len(), "every router belongs to a group");
        assert!(c.routers_of_group(groups + 99).is_empty());
    }

    #[test]
    fn controller_upgrade_applies_everywhere() {
        use spider_storage::controller::ControllerGeneration;
        let mut c = Center::build(CenterConfig::small());
        c.upgrade_controllers(ControllerGeneration::Sfa12kUpgraded);
        assert!(c
            .controllers
            .iter()
            .all(|p| p.generation == ControllerGeneration::Sfa12kUpgraded));
    }
}
