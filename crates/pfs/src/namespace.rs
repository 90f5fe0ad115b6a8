//! The in-memory namespace tree.
//!
//! One instance per mounted file system (Spider II ran two namespaces,
//! `atlas1`/`atlas2`). Holds directories, files, stripe metadata and the
//! three timestamps the purge policy inspects. Designed so read-only
//! traversal needs only `&Namespace` — the parallel tools in `spider-tools`
//! walk it from many threads at once.
//!
//! A file costs no heap allocation of its own. Its [`Name`] keeps up to
//! [`INLINE_NAME`] bytes inline, both in the inode and as the key of its
//! parent's child map, and its [`StripeLayout`] keeps up to
//! [`INLINE_OSTS`](crate::layout::INLINE_OSTS) OSTs inline. What a file adds
//! is its slot in the inode slab, one child-map entry and one id in the
//! last-activity index.
//!
//! The last-activity index lists files by [`FileMeta::last_activity`], one
//! bucket per timestamp. [`create_file`](Namespace::create_file) pushes each
//! file, and [`update_file`](Namespace::update_file) pushes it again when its
//! last activity changes. Nothing is ever removed from a bucket but by a
//! purge, which drains the buckets older than its cutoff and keeps an id only
//! if it still names a live file whose last activity is the bucket's time. So
//! the index holds every live file under its current last activity, plus
//! stale entries that the purge discards, and a purge visits only the
//! buckets that can hold victims.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use spider_simkit::mem::{slab_bytes, MemFootprint};
use spider_simkit::SimTime;

use crate::layout::StripeLayout;

/// Longest name a [`Name`] stores inline; longer names are boxed.
pub const INLINE_NAME: usize = 22;

/// A directory entry's name: up to [`INLINE_NAME`] bytes inline, longer
/// ones boxed, 24 bytes either way.
///
/// Orders and compares by its bytes, exactly as `String` does, so a child
/// map keyed by `Name` iterates in the same order as one keyed by `String`. It borrows as `[u8]`, so a map lookup takes a path component's
/// bytes and allocates nothing.
///
/// ```
/// use spider_pfs::namespace::Name;
///
/// let short = Name::new("f000042");
/// let long = Name::new("a-name-longer-than-twenty-two-bytes");
/// assert_eq!(short.as_str(), "f000042");
/// assert!(long < short, "byte order, as String orders");
/// ```
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Boxed(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == 24);

impl Name {
    /// A name holding `s`.
    pub fn new(s: &str) -> Name {
        if s.len() <= INLINE_NAME {
            let mut bytes = [0u8; INLINE_NAME];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Name(NameRepr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Name(NameRepr::Boxed(s.into()))
        }
    }

    /// The name's bytes (valid UTF-8).
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NameRepr::Inline { len, bytes } => &bytes[..*len as usize],
            NameRepr::Boxed(s) => s.as_bytes(),
        }
    }

    /// The name as a string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline name holds the bytes of a str"),
            NameRepr::Boxed(s) => s,
        }
    }

    /// Heap bytes the name owns: 0 when inline.
    pub(crate) fn heap_bytes(&self) -> u64 {
        match &self.0 {
            NameRepr::Inline { .. } => 0,
            NameRepr::Boxed(s) => s.len() as u64,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

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
        /// Name -> child inode, in byte order of the names.
        children: BTreeMap<Name, InodeId>,
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
    pub name: Name,
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
    /// Files by last activity (see the module docs): every live file sits
    /// in the bucket of its current last activity, and stale entries wait
    /// for the purge that drains their bucket.
    activity: BTreeMap<SimTime, Vec<InodeId>>,
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
            name: Name::new(""),
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
            activity: BTreeMap::new(),
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

    fn children_mut(&mut self, dir: InodeId) -> Result<&mut BTreeMap<Name, InodeId>, NsError> {
        match &mut self.get_mut(dir).kind {
            InodeKind::Dir { children } => Ok(children),
            InodeKind::File(_) => Err(NsError::NotADirectory),
        }
    }

    /// Children of a directory, in byte order of their names.
    pub fn children(&self, dir: InodeId) -> Result<&BTreeMap<Name, InodeId>, NsError> {
        match &self.get(dir).kind {
            InodeKind::Dir { children } => Ok(children),
            InodeKind::File(_) => Err(NsError::NotADirectory),
        }
    }

    /// Bind `name` in `parent`, with one search of the parent's children,
    /// to the id [`alloc`](Self::alloc) gives the next inode: the top of the
    /// free list, or else the next new slot. Fails if the name is taken.
    fn bind_next(&mut self, parent: InodeId, name: &Name) -> Result<InodeId, NsError> {
        let next = self.free.last().copied();
        let id = InodeId(next.unwrap_or(self.inodes.len() as u32));
        match self.children_mut(parent)?.entry(name.clone()) {
            Entry::Occupied(_) => Err(NsError::Exists),
            Entry::Vacant(slot) => {
                slot.insert(id);
                Ok(id)
            }
        }
    }

    /// Create a subdirectory.
    pub fn mkdir(&mut self, parent: InodeId, name: &str) -> Result<InodeId, NsError> {
        let name = Name::new(name);
        let id = self.bind_next(parent, &name)?;
        let allocated = self.alloc(Inode {
            id: InodeId(0),
            parent,
            name,
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
            cur = match self.children(cur)?.get(comp.as_bytes()) {
                Some(&id) if self.get(id).is_dir() => id,
                Some(_) => return Err(NsError::NotADirectory),
                None => self.mkdir(cur, comp)?,
            };
        }
        Ok(cur)
    }

    /// Create a file, and list it in the last-activity index.
    pub fn create_file(
        &mut self,
        parent: InodeId,
        name: &str,
        meta: FileMeta,
    ) -> Result<InodeId, NsError> {
        let name = Name::new(name);
        let id = self.bind_next(parent, &name)?;
        self.bytes += meta.size;
        self.files += 1;
        self.activity
            .entry(meta.last_activity())
            .or_default()
            .push(id);
        let allocated = self.alloc(Inode {
            id: InodeId(0),
            parent,
            name,
            kind: InodeKind::File(meta),
        });
        debug_assert_eq!(allocated, id, "alloc gave another id than bound");
        Ok(id)
    }

    /// Resolve a `/`-separated absolute path.
    pub fn lookup(&self, path: &str) -> Option<InodeId> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = *self.children(cur).ok()?.get(comp.as_bytes())?;
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
            comps.push(node.name.as_str());
            cur = node.parent;
        }
        comps.reverse();
        format!("/{}", comps.join("/"))
    }

    /// Mutate a file's metadata (size/timestamps). The namespace's byte
    /// accounting follows size changes, and the last-activity index lists
    /// the file again if its last activity changed.
    pub fn update_file<F: FnOnce(&mut FileMeta)>(
        &mut self,
        id: InodeId,
        f: F,
    ) -> Result<(), NsError> {
        // Borrow-split: take size and last activity before and after.
        let (old_size, new_size, old_active, new_active) = match &mut self.get_mut(id).kind {
            InodeKind::File(meta) => {
                let (size, active) = (meta.size, meta.last_activity());
                f(meta);
                (size, meta.size, active, meta.last_activity())
            }
            InodeKind::Dir { .. } => return Err(NsError::NotADirectory),
        };
        self.bytes = self.bytes - old_size + new_size;
        if new_active != old_active {
            self.activity.entry(new_active).or_default().push(id);
        }
        Ok(())
    }

    /// Free `id`'s slot and drop its binding in its parent. The index keeps
    /// any entries for the id; a purge discards them.
    fn release(&mut self, id: InodeId) -> Inode {
        let node = self.inodes[id.0 as usize]
            .take()
            .expect("dangling inode id");
        self.children_mut(node.parent)
            .expect("a parent is a directory")
            .remove(node.name.as_bytes());
        self.free.push(id.0);
        node
    }

    /// Unlink a file. Returns its metadata (the caller releases OST space).
    pub fn unlink(&mut self, id: InodeId) -> Result<FileMeta, NsError> {
        if self.get(id).is_dir() {
            return Err(NsError::NotADirectory);
        }
        let InodeKind::File(meta) = self.release(id).kind else {
            unreachable!("checked to be a file above")
        };
        self.files -= 1;
        self.bytes -= meta.size;
        Ok(meta)
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, id: InodeId) -> Result<(), NsError> {
        if id == self.root {
            return Err(NsError::NotEmpty);
        }
        match &self.get(id).kind {
            InodeKind::Dir { children } if children.is_empty() => {}
            InodeKind::Dir { .. } => return Err(NsError::NotEmpty),
            InodeKind::File(_) => return Err(NsError::NotADirectory),
        }
        self.release(id);
        self.dirs -= 1;
        Ok(())
    }

    /// Drain the last-activity buckets older than `cutoff` and return the
    /// live files whose last activity is older than `cutoff`, in ascending
    /// id order, each once. The caller must unlink every returned file: the
    /// index no longer lists them.
    pub(crate) fn take_inactive(&mut self, cutoff: SimTime) -> Vec<InodeId> {
        let newer = self.activity.split_off(&cutoff);
        let older = std::mem::replace(&mut self.activity, newer);
        let mut victims = Vec::new();
        for (at, ids) in older {
            victims.extend(ids.into_iter().filter(|&id| {
                self.inodes[id.0 as usize]
                    .as_ref()
                    .and_then(Inode::file)
                    .is_some_and(|m| m.last_activity() == at)
            }));
        }
        // An id appears twice in one bucket when its activity returned to
        // an earlier time, or when it was reused at the same time.
        victims.sort_unstable();
        victims.dedup();
        victims
    }

    /// Debug builds: check that the index lists every live file under its
    /// current last activity, and that the file and byte counts equal a
    /// recount of the slab.
    pub(crate) fn debug_check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut listed = vec![false; self.inodes.len()];
        for (&at, ids) in &self.activity {
            for &id in ids {
                let node = self.inodes[id.0 as usize].as_ref();
                if node
                    .and_then(Inode::file)
                    .is_some_and(|m| m.last_activity() == at)
                {
                    listed[id.0 as usize] = true;
                }
            }
        }
        let (mut files, mut bytes) = (0u64, 0u64);
        for node in self.inodes.iter().flatten() {
            if let Some(meta) = node.file() {
                files += 1;
                bytes += meta.size;
                assert!(
                    listed[node.id.0 as usize],
                    "{:?} is missing from the last-activity index",
                    node.id
                );
            }
        }
        assert_eq!(files, self.files, "file count drifted from a recount");
        assert_eq!(bytes, self.bytes, "byte count drifted from a recount");
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

/// The namespace's steady-state bytes: the inode slab and free list, one
/// key and value per child-map entry, the last-activity index (each
/// bucket's key and `Vec` plus its reserved ids), and the heap bytes of
/// boxed names (twice: the inode's and its parent's key) and boxed stripe
/// layouts. `BTreeMap` node overhead is not counted: it has no capacity to
/// read.
impl MemFootprint for Namespace {
    fn mem_bytes(&self) -> u64 {
        let slab = slab_bytes::<Option<Inode>>(self.inodes.capacity())
            + slab_bytes::<u32>(self.free.capacity());
        let entry = slab_bytes::<(Name, InodeId)>(1);
        let mut owned = 0u64;
        for node in self.inodes.iter().flatten() {
            if node.id != self.root {
                owned += 2 * node.name.heap_bytes();
            }
            owned += match &node.kind {
                InodeKind::Dir { children } => children.len() as u64 * entry,
                InodeKind::File(meta) => meta.stripe.heap_bytes(),
            };
        }
        let index: u64 = self
            .activity
            .values()
            .map(|ids| slab_bytes::<(SimTime, Vec<InodeId>)>(1) + ids.mem_bytes())
            .sum();
        slab + owned + index
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
            ns.visit(ns.root(), |n| v.push(n.name.to_string()));
            v
        };
        assert_eq!(names, vec!["", "a", "b", "a", "z"]);
    }

    #[test]
    fn names_up_to_22_bytes_are_inline() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        for (s, inline) in [
            ("", true),
            ("x", true),
            ("abcdefghijklmnopqrstuv", true),
            ("abcdefghijklmnopqrstuvw", false),
            ("üüüüüüüüüüü", true),
            ("üüüüüüüüüüüx", false),
        ] {
            let n = Name::new(s);
            assert_eq!(n.as_str(), s);
            let boxed = if inline { 0 } else { s.len() as u64 };
            assert_eq!(n.heap_bytes(), boxed, "{s:?}");
            assert_eq!(n.clone(), n);
        }
    }

    #[test]
    fn names_order_as_strings_across_the_inline_boundary() {
        let strs = [
            "b",
            "",
            "a",
            "abcdefghijklmnopqrstuvw",
            "abcdefghijklmnopqrstuv",
            "é",
            "z",
        ];
        let mut names: Vec<Name> = strs.iter().map(|s| Name::new(s)).collect();
        let mut sorted: Vec<&str> = strs.to_vec();
        names.sort();
        sorted.sort_unstable();
        let got: Vec<&str> = names.iter().map(Name::as_str).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn unlink_and_rmdir_drop_long_names_from_the_parent() {
        let mut ns = Namespace::new();
        let long = "a-directory-name-longer-than-22-bytes";
        let d = ns.mkdir(ns.root(), long).unwrap();
        let f = ns
            .create_file(d, "another-file-name-over-22-bytes", meta(5, 0))
            .unwrap();
        assert_eq!(
            ns.lookup(&format!("/{long}/another-file-name-over-22-bytes")),
            Some(f)
        );
        ns.unlink(f).unwrap();
        assert!(ns.children(d).unwrap().is_empty());
        ns.rmdir(d).unwrap();
        assert!(ns.children(ns.root()).unwrap().is_empty());
    }

    #[test]
    fn mem_bytes_counts_boxed_names_and_layouts() {
        let mut ns = Namespace::new();
        ns.create_file(ns.root(), "short", meta(1, 0)).unwrap();
        let long = "n".repeat(30);
        let mut wide = meta(1, 0);
        wide.stripe = StripeLayout::new((0..6).map(crate::ost::OstId).collect());
        ns.create_file(ns.root(), &long, wide).unwrap();
        let bucket = &ns.activity[&SimTime::ZERO];
        let expected = slab_bytes::<Option<Inode>>(ns.inodes.capacity())
            + slab_bytes::<u32>(ns.free.capacity())
            + 2 * slab_bytes::<(Name, InodeId)>(1)
            + 2 * 30
            + 6 * 4
            + slab_bytes::<(SimTime, Vec<InodeId>)>(1)
            + slab_bytes::<InodeId>(bucket.capacity());
        assert_eq!(ns.mem_bytes(), expected);
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
