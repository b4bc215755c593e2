//! The directory index: every directory a namespace ever created, in
//! parents-before-children order, with each directory's child directories.
//!
//! Per-epoch balancer passes aggregate load bottom-up over directories
//! only; walking the whole inode arena to find them costs O(inodes) when
//! files outnumber directories by orders of magnitude. The index lets such
//! passes cost O(directories).
//!
//! ## Ordering invariant
//!
//! The order is a pure function of the arena: visit directories by id and
//! place each one right after its not-yet-placed ancestors. When every
//! parent has a smaller id than its children, which holds until a rename
//! moves a directory under one created after it, this is plain arena
//! order. Because it depends on nothing but the arena, an index rebuilt
//! after a snapshot restore equals the one the live run maintained.
//!
//! Tombstoned directories stay in the index (their arena slots stay too),
//! so a pass over the index visits exactly the directories an arena walk
//! would. The index is derived state: it is never serialized.

use crate::inode::{Inode, InodeId};
use lunule_util::convert::{u32_to_usize, usize_to_u32};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Index over every directory of a [`crate::Namespace`] (see module docs).
///
/// Directories are addressed by *slot*, their position in
/// [`DirIndex::ids`]; a parent's slot is always below its children's.
#[derive(Clone, Debug)]
pub struct DirIndex {
    /// Directory ids, parents before children.
    order: Vec<InodeId>,
    /// Per slot, the slots of the directory's child directories, in the
    /// directory's `children` order.
    kids: Vec<Vec<u32>>,
    /// Slot of each directory.
    slot: BTreeMap<InodeId, u32>,
}

impl DirIndex {
    /// The index of a namespace holding only the root directory.
    pub(crate) fn root() -> Self {
        DirIndex {
            order: vec![InodeId::ROOT],
            kids: vec![Vec::new()],
            slot: BTreeMap::from([(InodeId::ROOT, 0)]),
        }
    }

    /// Number of directories, tombstoned ones included.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Never true: the root directory is always indexed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Directory ids by slot: parents before children.
    pub fn ids(&self) -> &[InodeId] {
        &self.order
    }

    /// Slots of the child directories of the directory at `slot`, in the
    /// directory's `children` order.
    pub fn child_slots(&self, slot: usize) -> &[u32] {
        &self.kids[slot]
    }

    /// Slot of directory `dir`; `None` for files and unknown ids.
    pub fn slot_of(&self, dir: InodeId) -> Option<usize> {
        self.slot.get(&dir).map(|s| u32_to_usize(*s))
    }

    /// Records a directory just created under `parent`. A fresh id is
    /// the largest in the arena and its parent is already placed, so it
    /// goes last.
    pub(crate) fn push(&mut self, parent: InodeId, dir: InodeId) {
        let slot = usize_to_u32(self.order.len());
        self.order.push(dir);
        self.kids.push(Vec::new());
        self.slot.insert(dir, slot);
        if let Some(p) = self.slot_of(parent) {
            self.kids[p].push(slot);
        }
    }

    /// Drops `dir` from `parent`'s child-directory list (the directory
    /// itself stays indexed as a tombstone).
    pub(crate) fn detach(&mut self, parent: InodeId, dir: InodeId) {
        if let (Some(p), Some(d)) = (self.slot_of(parent), self.slot.get(&dir).copied()) {
            self.kids[p].retain(|k| *k != d);
        }
    }

    /// Builds the index of `arena` from scratch.
    pub(crate) fn build(arena: &[Inode]) -> Self {
        let dirs = arena
            .iter()
            .enumerate()
            .filter(|(_, ino)| ino.is_dir())
            .map(|(i, _)| InodeId::from_index(i))
            .collect();
        Self::ordered(arena, dirs)
    }

    /// Rebuilds the order after a directory rename: same directories,
    /// re-placed from the arena's current parent links.
    pub(crate) fn rebuilt(&self, arena: &[Inode]) -> Self {
        let mut dirs = self.order.clone();
        dirs.sort_unstable();
        Self::ordered(arena, dirs)
    }

    /// Places `dirs` (ascending ids) so that each directory follows its
    /// ancestors, then derives the child-directory lists.
    ///
    /// Total on any arena: an ancestor walk stops at a non-directory
    /// parent and is cut after `dirs.len()` steps, so corrupt parent links
    /// (a cycle, a directory under a file) terminate and then fail
    /// [`DirIndex::matches`].
    fn ordered(arena: &[Inode], dirs: Vec<InodeId>) -> Self {
        let mut slot: BTreeMap<InodeId, u32> = BTreeMap::new();
        let mut order = Vec::with_capacity(dirs.len());
        let mut pending = Vec::new();
        for d in dirs.iter().copied() {
            let mut cur = Some(d);
            while let Some(c) = cur {
                if slot.contains_key(&c) || pending.len() > dirs.len() {
                    break;
                }
                pending.push(c);
                cur = arena[c.index()]
                    .parent
                    .filter(|p| arena[p.index()].is_dir());
            }
            while let Some(c) = pending.pop() {
                if let Entry::Vacant(e) = slot.entry(c) {
                    e.insert(usize_to_u32(order.len()));
                    order.push(c);
                }
            }
        }
        let kids = order
            .iter()
            .map(|d| {
                arena[d.index()]
                    .children
                    .iter()
                    .filter_map(|c| slot.get(c).copied())
                    .collect()
            })
            .collect();
        DirIndex { order, kids, slot }
    }

    /// True when this is a valid index of `arena`: every directory is
    /// indexed once, after its parent, and every child-directory list
    /// agrees with the children's parent links. Checked on decode.
    pub(crate) fn matches(&self, arena: &[Inode]) -> bool {
        let n_dirs = arena.iter().filter(|ino| ino.is_dir()).count();
        self.order.len() == n_dirs
            && self.order.iter().enumerate().all(|(s, d)| {
                let placed = match arena[d.index()].parent {
                    None => *d == InodeId::ROOT,
                    Some(p) => self.slot_of(p).is_some_and(|ps| ps < s),
                };
                placed
                    && self.kids[s]
                        .iter()
                        .all(|k| arena[self.order[u32_to_usize(*k)].index()].parent == Some(*d))
            })
    }
}

#[cfg(test)]
mod tests {
    use crate::{InodeId, Namespace};

    #[test]
    fn rename_places_parents_first_and_keeps_children_order() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        let c = ns.mkdir(InodeId::ROOT, "c").unwrap();
        ns.rename(a, b, "a").unwrap();
        assert_eq!(ns.dir_index().ids(), &[InodeId::ROOT, b, a, c]);
        assert_eq!(ns.child_dirs(InodeId::ROOT).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(ns.child_dirs(b).collect::<Vec<_>>(), vec![a]);
        // Moving it back restores plain arena order.
        ns.rename(a, InodeId::ROOT, "a").unwrap();
        assert_eq!(ns.dir_index().ids(), &[InodeId::ROOT, a, b, c]);
        assert_eq!(
            ns.child_dirs(InodeId::ROOT).collect::<Vec<_>>(),
            vec![b, c, a]
        );
    }
}
