//! The in-memory namespace tree.
//!
//! One instance per mounted file system (Spider II ran two namespaces,
//! `atlas1`/`atlas2`). Holds directories, files, stripe metadata and the
//! three timestamps the purge policy inspects. Designed so read-only
//! traversal needs only `&Namespace` — the parallel tools in `spider-tools`
//! walk it from many threads at once.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use spider_simkit::SimTime;

use crate::layout::StripeLayout;

/// Index of an inode within its namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InodeId(pub u32);

/// File metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Logical size in bytes.
    pub size: u64,
    /// Last access.
    pub atime: SimTime,
    /// Last data modification.
    pub mtime: SimTime,
    /// Last metadata change.
    pub ctime: SimTime,
    /// Stripe layout over OSTs.
    pub stripe: StripeLayout,
    /// Owning project (allocation), for capacity planning.
    pub project: u32,
}

impl FileMeta {
    /// The newest of the three timestamps — what the 14-day purge compares.
    pub fn last_activity(&self) -> SimTime {
        self.atime.max(self.mtime).max(self.ctime)
    }
}

/// Directory or file payload.
#[derive(Debug, Clone)]
pub enum InodeKind {
    /// A directory and its sorted children.
    Dir {
        /// Name -> child inode.
        children: BTreeMap<String, InodeId>,
    },
    /// A regular file.
    File(FileMeta),
}

/// One inode.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Self index.
    pub id: InodeId,
    /// Parent directory (the root is its own parent).
    pub parent: InodeId,
    /// Name within the parent.
    pub name: String,
    /// Payload.
    pub kind: InodeKind,
}

impl Inode {
    /// Is this a directory?
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, InodeKind::Dir { .. })
    }

    /// File metadata, if a file.
    pub fn file(&self) -> Option<&FileMeta> {
        match &self.kind {
            InodeKind::File(m) => Some(m),
            InodeKind::Dir { .. } => None,
        }
    }
}

/// Namespace operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    /// Path component missing.
    NotFound,
    /// Expected a directory.
    NotADirectory,
    /// Name already exists in the directory.
    Exists,
    /// Directory not empty.
    NotEmpty,
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NsError::NotFound => "no such file or directory",
            NsError::NotADirectory => "not a directory",
            NsError::Exists => "file exists",
            NsError::NotEmpty => "directory not empty",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NsError {}

/// The namespace tree.
///
/// # Examples
///
/// ```
/// use spider_pfs::layout::StripeLayout;
/// use spider_pfs::namespace::{FileMeta, Namespace};
/// use spider_pfs::ost::OstId;
/// use spider_simkit::SimTime;
///
/// let mut ns = Namespace::new();
/// let dir = ns.mkdir_p("/proj/run1").unwrap();
/// ns.create_file(dir, "out.dat", FileMeta {
///     size: 4096,
///     atime: SimTime::ZERO,
///     mtime: SimTime::ZERO,
///     ctime: SimTime::ZERO,
///     stripe: StripeLayout::new(vec![OstId(0)]),
///     project: 7,
/// }).unwrap();
/// assert_eq!(ns.du(ns.root()), 4096);
/// assert!(ns.lookup("/proj/run1/out.dat").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Namespace {
    inodes: Vec<Option<Inode>>,
    free: Vec<u32>,
    root: InodeId,
    files: u64,
    dirs: u64,
    bytes: u64,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// An empty namespace with just `/`.
    pub fn new() -> Self {
        let root = Inode {
            id: InodeId(0),
            parent: InodeId(0),
            name: String::new(),
            kind: InodeKind::Dir {
                children: BTreeMap::new(),
            },
        };
        Namespace {
            inodes: vec![Some(root)],
            free: Vec::new(),
            root: InodeId(0),
            files: 0,
            dirs: 1,
            bytes: 0,
        }
    }

    /// The root directory.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Live file count.
    pub fn file_count(&self) -> u64 {
        self.files
    }

    /// Live directory count (including the root).
    pub fn dir_count(&self) -> u64 {
        self.dirs
    }

    /// Sum of file sizes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Borrow an inode. Panics on a dangling id (a logic error).
    pub fn get(&self, id: InodeId) -> &Inode {
        self.inodes[id.0 as usize]
            .as_ref()
            .expect("dangling inode id")
    }

    fn get_mut(&mut self, id: InodeId) -> &mut Inode {
        self.inodes[id.0 as usize]
            .as_mut()
            .expect("dangling inode id")
    }

    fn alloc(&mut self, inode: Inode) -> InodeId {
        if let Some(slot) = self.free.pop() {
            let id = InodeId(slot);
            let mut inode = inode;
            inode.id = id;
            self.inodes[slot as usize] = Some(inode);
            id
        } else {
            let id = InodeId(self.inodes.len() as u32);
            let mut inode = inode;
            inode.id = id;
            self.inodes.push(Some(inode));
            id
        }
    }

    fn children_mut(&mut self, dir: InodeId) -> Result<&mut BTreeMap<String, InodeId>, NsError> {
        match &mut self.get_mut(dir).kind {
            InodeKind::Dir { children } => Ok(children),
            InodeKind::File(_) => Err(NsError::NotADirectory),
        }
    }

    /// Children of a directory.
    pub fn children(&self, dir: InodeId) -> Result<&BTreeMap<String, InodeId>, NsError> {
        match &self.get(dir).kind {
            InodeKind::Dir { children } => Ok(children),
            InodeKind::File(_) => Err(NsError::NotADirectory),
        }
    }

    /// Bind `name` in `parent`, with one search of the parent's children,
    /// to the id [`alloc`](Self::alloc) gives the next inode: the top of the
    /// free list, or else the next new slot. Fails if the name is taken.
    fn bind_next(&mut self, parent: InodeId, name: &str) -> Result<InodeId, NsError> {
        let next = self.free.last().copied();
        let id = InodeId(next.unwrap_or(self.inodes.len() as u32));
        match self.children_mut(parent)?.entry(name.to_owned()) {
            Entry::Occupied(_) => Err(NsError::Exists),
            Entry::Vacant(slot) => {
                slot.insert(id);
                Ok(id)
            }
        }
    }

    /// Create a subdirectory.
    pub fn mkdir(&mut self, parent: InodeId, name: &str) -> Result<InodeId, NsError> {
        let id = self.bind_next(parent, name)?;
        let allocated = self.alloc(Inode {
            id: InodeId(0),
            parent,
            name: name.to_owned(),
            kind: InodeKind::Dir {
                children: BTreeMap::new(),
            },
        });
        debug_assert_eq!(allocated, id, "alloc gave another id than bound");
        self.dirs += 1;
        Ok(id)
    }

    /// `mkdir -p`: create every missing component of a `/`-separated path.
    pub fn mkdir_p(&mut self, path: &str) -> Result<InodeId, NsError> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = match self.children(cur)?.get(comp) {
                Some(&id) if self.get(id).is_dir() => id,
                Some(_) => return Err(NsError::NotADirectory),
                None => self.mkdir(cur, comp)?,
            };
        }
        Ok(cur)
    }

    /// Create a file.
    pub fn create_file(
        &mut self,
        parent: InodeId,
        name: &str,
        meta: FileMeta,
    ) -> Result<InodeId, NsError> {
        let id = self.bind_next(parent, name)?;
        self.bytes += meta.size;
        self.files += 1;
        let allocated = self.alloc(Inode {
            id: InodeId(0),
            parent,
            name: name.to_owned(),
            kind: InodeKind::File(meta),
        });
        debug_assert_eq!(allocated, id, "alloc gave another id than bound");
        Ok(id)
    }

    /// Resolve a `/`-separated absolute path.
    pub fn lookup(&self, path: &str) -> Option<InodeId> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = *self.children(cur).ok()?.get(comp)?;
        }
        Some(cur)
    }

    /// Absolute path of an inode.
    pub fn path_of(&self, id: InodeId) -> String {
        if id == self.root {
            return "/".to_owned();
        }
        let mut comps = Vec::new();
        let mut cur = id;
        while cur != self.root {
            let node = self.get(cur);
            comps.push(node.name.clone());
            cur = node.parent;
        }
        comps.reverse();
        format!("/{}", comps.join("/"))
    }

    /// Mutate a file's metadata (size/timestamps). The namespace's byte
    /// accounting follows size changes.
    pub fn update_file<F: FnOnce(&mut FileMeta)>(
        &mut self,
        id: InodeId,
        f: F,
    ) -> Result<(), NsError> {
        // Borrow-split: take size before and after.
        let (old_size, new_size) = match &mut self.get_mut(id).kind {
            InodeKind::File(meta) => {
                let old = meta.size;
                f(meta);
                (old, meta.size)
            }
            InodeKind::Dir { .. } => return Err(NsError::NotADirectory),
        };
        self.bytes = self.bytes - old_size + new_size;
        Ok(())
    }

    /// Unlink a file. Returns its metadata (the caller releases OST space).
    pub fn unlink(&mut self, id: InodeId) -> Result<FileMeta, NsError> {
        let (parent, name, meta) = {
            let node = self.get(id);
            match &node.kind {
                InodeKind::File(meta) => (node.parent, node.name.clone(), meta.clone()),
                InodeKind::Dir { .. } => return Err(NsError::NotADirectory),
            }
        };
        self.children_mut(parent)?.remove(&name);
        self.inodes[id.0 as usize] = None;
        self.free.push(id.0);
        self.files -= 1;
        self.bytes -= meta.size;
        Ok(meta)
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, id: InodeId) -> Result<(), NsError> {
        if id == self.root {
            return Err(NsError::NotEmpty);
        }
        let (parent, name) = {
            let node = self.get(id);
            match &node.kind {
                InodeKind::Dir { children } if children.is_empty() => {
                    (node.parent, node.name.clone())
                }
                InodeKind::Dir { .. } => return Err(NsError::NotEmpty),
                InodeKind::File(_) => return Err(NsError::NotADirectory),
            }
        };
        self.children_mut(parent)?.remove(&name);
        self.inodes[id.0 as usize] = None;
        self.free.push(id.0);
        self.dirs -= 1;
        Ok(())
    }

    /// Depth-first visit of the subtree at `start` (inclusive), directories
    /// before their contents, children in name order.
    pub fn visit<F: FnMut(&Inode)>(&self, start: InodeId, mut f: F) {
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            let node = self.get(id);
            f(node);
            if let InodeKind::Dir { children } = &node.kind {
                // Reverse so the smallest name pops first.
                for &child in children.values().rev() {
                    stack.push(child);
                }
            }
        }
    }

    /// Collect the subtree's inode ids (DFS order).
    pub fn subtree(&self, start: InodeId) -> Vec<InodeId> {
        let mut out = Vec::new();
        self.visit(start, |n| out.push(n.id));
        out
    }

    /// Total bytes of all files under `start` — what `du` computes.
    pub fn du(&self, start: InodeId) -> u64 {
        let mut total = 0;
        self.visit(start, |n| {
            if let Some(meta) = n.file() {
                total += meta.size;
            }
        });
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ost::OstId;

    fn meta(size: u64, t: u64) -> FileMeta {
        FileMeta {
            size,
            atime: SimTime::from_secs(t),
            mtime: SimTime::from_secs(t),
            ctime: SimTime::from_secs(t),
            stripe: StripeLayout::new(vec![OstId(0)]),
            project: 0,
        }
    }

    #[test]
    fn mkdir_and_lookup() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(ns.root(), "a").unwrap();
        let b = ns.mkdir(a, "b").unwrap();
        assert_eq!(ns.lookup("/a"), Some(a));
        assert_eq!(ns.lookup("/a/b"), Some(b));
        assert_eq!(ns.lookup("/a/c"), None);
        assert_eq!(ns.path_of(b), "/a/b");
        assert_eq!(ns.dir_count(), 3);
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut ns = Namespace::new();
        let d1 = ns.mkdir_p("/proj/run1/out").unwrap();
        let d2 = ns.mkdir_p("/proj/run1/out").unwrap();
        assert_eq!(d1, d2);
        assert_eq!(ns.dir_count(), 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ns = Namespace::new();
        ns.mkdir(ns.root(), "x").unwrap();
        assert_eq!(ns.mkdir(ns.root(), "x"), Err(NsError::Exists));
        let d = ns.lookup("/x").unwrap();
        let f = ns.create_file(d, "f", meta(10, 0)).unwrap();
        let counts = |ns: &Namespace| (ns.file_count(), ns.dir_count(), ns.total_bytes());
        let before = counts(&ns);
        assert_eq!(ns.create_file(d, "f", meta(10, 0)), Err(NsError::Exists));
        assert_eq!(ns.mkdir(d, "f"), Err(NsError::Exists));
        assert_eq!(ns.mkdir(ns.root(), "x"), Err(NsError::Exists));
        assert_eq!(counts(&ns), before);
        // A rejected name takes no id: the next create gets the id the
        // rejected one would have had, a new slot here and a freed one
        // after an unlink.
        let next = ns.create_file(d, "g", meta(1, 0)).unwrap();
        assert_eq!(next.0, f.0 + 1);
        assert_eq!(counts(&ns), (before.0 + 1, before.1, before.2 + 1));
        ns.unlink(f).unwrap();
        let before = counts(&ns);
        assert_eq!(ns.create_file(d, "g", meta(10, 0)), Err(NsError::Exists));
        assert_eq!(ns.mkdir(d, "g"), Err(NsError::Exists));
        assert_eq!(counts(&ns), before);
        assert_eq!(ns.mkdir(d, "sub"), Ok(f));
        assert_eq!(counts(&ns), (before.0, before.1 + 1, before.2));
    }

    #[test]
    fn file_accounting_and_du() {
        let mut ns = Namespace::new();
        let a = ns.mkdir_p("/a").unwrap();
        let b = ns.mkdir_p("/a/b").unwrap();
        ns.create_file(a, "f1", meta(100, 0)).unwrap();
        ns.create_file(b, "f2", meta(50, 0)).unwrap();
        ns.create_file(ns.root(), "top", meta(7, 0)).unwrap();
        assert_eq!(ns.file_count(), 3);
        assert_eq!(ns.total_bytes(), 157);
        assert_eq!(ns.du(a), 150);
        assert_eq!(ns.du(ns.root()), 157);
    }

    #[test]
    fn update_file_adjusts_byte_accounting() {
        let mut ns = Namespace::new();
        let f = ns.create_file(ns.root(), "f", meta(100, 0)).unwrap();
        ns.update_file(f, |m| {
            m.size = 500;
            m.mtime = SimTime::from_secs(9);
        })
        .unwrap();
        assert_eq!(ns.total_bytes(), 500);
        assert_eq!(ns.get(f).file().unwrap().mtime, SimTime::from_secs(9));
    }

    #[test]
    fn unlink_frees_and_reuses_slots() {
        let mut ns = Namespace::new();
        let f = ns.create_file(ns.root(), "f", meta(100, 0)).unwrap();
        let m = ns.unlink(f).unwrap();
        assert_eq!(m.size, 100);
        assert_eq!(ns.file_count(), 0);
        assert_eq!(ns.total_bytes(), 0);
        assert_eq!(ns.lookup("/f"), None);
        // The freed slot is recycled.
        let g = ns.create_file(ns.root(), "g", meta(1, 0)).unwrap();
        assert_eq!(g, f, "slot reuse");
    }

    #[test]
    fn rmdir_only_when_empty() {
        let mut ns = Namespace::new();
        let d = ns.mkdir_p("/d").unwrap();
        let f = ns.create_file(d, "f", meta(1, 0)).unwrap();
        assert_eq!(ns.rmdir(d), Err(NsError::NotEmpty));
        ns.unlink(f).unwrap();
        ns.rmdir(d).unwrap();
        assert_eq!(ns.lookup("/d"), None);
        assert_eq!(ns.dir_count(), 1);
    }

    #[test]
    fn visit_is_deterministic_dfs_in_name_order() {
        let mut ns = Namespace::new();
        let b = ns.mkdir_p("/b").unwrap();
        ns.mkdir_p("/a").unwrap();
        ns.create_file(b, "z", meta(1, 0)).unwrap();
        ns.create_file(b, "a", meta(1, 0)).unwrap();
        let names: Vec<String> = {
            let mut v = Vec::new();
            ns.visit(ns.root(), |n| v.push(n.name.clone()));
            v
        };
        assert_eq!(names, vec!["", "a", "b", "a", "z"]);
    }

    #[test]
    fn last_activity_is_max_of_timestamps() {
        let mut m = meta(1, 10);
        m.atime = SimTime::from_secs(30);
        assert_eq!(m.last_activity(), SimTime::from_secs(30));
    }

    #[test]
    fn million_inode_scale() {
        // The incident recovery story involves >1M files; make sure the
        // tree handles that scale briskly.
        let mut ns = Namespace::new();
        let dir = ns.mkdir_p("/big").unwrap();
        let mut sub = dir;
        for i in 0..1_000 {
            if i % 100 == 0 {
                sub = ns.mkdir(dir, &format!("d{i}")).unwrap();
            }
            for j in 0..1_000 {
                ns.create_file(sub, &format!("f{i}_{j}"), meta(4096, 0))
                    .unwrap();
            }
        }
        assert_eq!(ns.file_count(), 1_000_000);
        assert_eq!(ns.du(dir), 4096 * 1_000_000);
        assert_eq!(ns.subtree(dir).len() as u64, 1 + 10 + 1_000_000);
    }
}
