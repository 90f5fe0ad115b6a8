//! Namespace scaling: what a file costs to create, walk, free and purge.
//!
//! Two shapes, both the experiments' own:
//!
//! 1. **E12's project tree** (`e12_tools::build_tree`, 256 run directories
//!    of 2,000 files at full shape): building it, one serial walk
//!    (`walk_serial`, a `find .`), and dropping it, plus its deterministic
//!    footprint (`MemFootprint for Namespace`) in bytes per inode.
//! 2. **E8c's scratch simulation** (60 days of 2,500 1 GiB files, 10% of the
//!    previous day's files re-read, a 14-day purge every day): the creates
//!    and appends, and the purges, each summed over the days.
//!
//! Each part is the best of its passes (one at smoke shape, ten at full
//! shape). [`spider_bench::record`] decides the shapes and where
//! `BENCH_namespace.json` goes.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use spider_bench::record;
use spider_core::experiments::e12_tools::build_tree;
use spider_pfs::fs::{FileSystem, FsConfig};
use spider_pfs::mds::MdsCluster;
use spider_pfs::purge::{purge, PURGE_WINDOW};
use spider_simkit::{MemFootprint, SimDuration, SimRng, SimTime};
use spider_storage::disk::{Disk, DiskId, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
use spider_tools::ptools::walk_serial;

/// E8c's file system: 4 OSTs of 16 TB on 2 OSS.
fn scratch_fs() -> FileSystem {
    let cfg = RaidConfig::raid6_8p2();
    let groups = (0..4u32)
        .map(|g| {
            let members = (0..cfg.width())
                .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                .collect();
            RaidGroup::new(RaidGroupId(g), cfg, members)
        })
        .collect();
    let mut fsc = FsConfig::spider2("e8");
    fsc.n_oss = 2;
    FileSystem::build(fsc, groups, MdsCluster::single())
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Keep the smaller of each part's time.
fn keep_best(best: &mut [f64], pass: &[f64]) {
    for (b, p) in best.iter_mut().zip(pass) {
        *b = b.min(*p);
    }
}

/// One pass of E8c's day loop: the create-and-append time, the purge time,
/// the files purged and the files left.
fn scratch_days(days: u64, daily_files: u32) -> ([f64; 2], u64, u64) {
    let mut fs = scratch_fs();
    let mut rng = SimRng::seed_from_u64(0xE8);
    let dir = fs.ns.mkdir_p("/scratch").expect("fresh namespace");
    let mut name = String::new();
    let (mut write_ms, mut purge_ms, mut purged) = (0.0, 0.0, 0u64);
    for day in 0..days {
        let now = SimTime::ZERO + SimDuration::from_days(day);
        let t = Instant::now();
        for i in 0..daily_files {
            name.clear();
            write!(name, "d{day}_f{i}").expect("writing to a String cannot fail");
            let f = fs
                .create(dir, &name, 4, 0, now, &mut rng)
                .expect("names are unique per day");
            fs.append(f, 1 << 30, now)
                .expect("the purge keeps space free");
        }
        write_ms += ms_since(t);
        if day > 0 {
            for i in 0..daily_files / 10 {
                name.clear();
                write!(name, "/scratch/d{}_f{i}", day - 1)
                    .expect("writing to a String cannot fail");
                if let Some(f) = fs.ns.lookup(&name) {
                    fs.read(f, now).expect("file was just looked up");
                }
            }
        }
        let t = Instant::now();
        purged += purge(&mut fs, now, PURGE_WINDOW).deleted;
        purge_ms += ms_since(t);
    }
    ([write_ms, purge_ms], purged, fs.ns.file_count())
}

fn main() {
    spider_obs::init_from_env();
    let smoke = record::smoke();
    let passes = if smoke { 1 } else { 10 };
    let (dirs, files_per_dir) = if smoke { (64, 500) } else { (256, 2_000) };
    let (days, daily_files) = if smoke { (20u64, 500u32) } else { (60, 2_500) };

    // E12's tree: build, one serial walk, drop.
    let mut tree = [f64::INFINITY; 3];
    let (mut inodes, mut mem_bytes, mut walked) = (0u64, 0u64, 0u64);
    for _ in 0..passes {
        let t = Instant::now();
        let ns = black_box(build_tree(dirs, files_per_dir));
        let build = ms_since(t);
        let t = Instant::now();
        walked = black_box(walk_serial(&ns, ns.root())).files;
        let walk = ms_since(t);
        inodes = ns.file_count() + ns.dir_count();
        mem_bytes = ns.mem_bytes();
        let t = Instant::now();
        drop(ns);
        keep_best(&mut tree, &[build, walk, ms_since(t)]);
    }
    assert_eq!(
        walked,
        (dirs * files_per_dir) as u64,
        "the walk sees every file"
    );
    let per_inode = mem_bytes as f64 / inodes as f64;
    println!("namespace_scale/e12_build: {:.3} ms", tree[0]);
    println!("namespace_scale/e12_serial_walk: {:.3} ms", tree[1]);
    println!("namespace_scale/e12_drop: {:.3} ms", tree[2]);
    println!(
        "namespace_scale/e12_bytes_per_inode: {per_inode:.1} ({mem_bytes} B over {inodes} inodes)"
    );

    // E8c's days: creates plus appends, and purges.
    let mut scratch = [f64::INFINITY; 2];
    let (mut purged, mut left) = (0, 0);
    for _ in 0..passes {
        let (pass, p, l) = scratch_days(days, daily_files);
        keep_best(&mut scratch, &pass);
        (purged, left) = (p, l);
    }
    println!("namespace_scale/e8c_create_append: {:.3} ms", scratch[0]);
    println!(
        "namespace_scale/e8c_purge: {:.3} ms ({purged} files purged)",
        scratch[1]
    );

    let fields = format!(
        r#"  "note": "each part is the best of {passes} passes, timed on its own inside one pass of its shape. bytes_per_inode is the deterministic MemFootprint of the namespace (inode slab, child-map keys and values, last-activity index, boxed names and layouts; BTreeMap node overhead is not counted) over files plus directories",
  "e12_tree": {{
    "dirs": {dirs},
    "files_per_dir": {files_per_dir},
    "inodes": {inodes},
    "build_ms": {:.2},
    "serial_walk_ms": {:.2},
    "drop_ms": {:.2},
    "mem_bytes": {mem_bytes},
    "bytes_per_inode": {per_inode:.1}
  }},
  "e8c_scratch": {{
    "days": {days},
    "files_per_day": {daily_files},
    "files_purged": {purged},
    "files_left": {left},
    "create_append_ms": {:.2},
    "purge_ms": {:.2}
  }}"#,
        tree[0], tree[1], tree[2], scratch[0], scratch[1],
    );
    record::write("namespace_scale", "BENCH_namespace.json", &fields);
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
