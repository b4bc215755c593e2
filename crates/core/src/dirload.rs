//! Shared per-directory load bookkeeping and subtree aggregation.
//!
//! Every balancer needs the same two primitives: (a) charge each served
//! request to the directory containing the target inode, and (b) turn those
//! per-directory numbers into *candidate dirfrag subtrees with aggregated
//! loads* for a given exporter rank. This module provides both, generic over
//! the per-directory load metric (decayed heat for Vanilla/Lunule-Light,
//! migration index for Lunule).
//!
//! ## Aggregation invariant
//!
//! Selection and migration only ever operate on *live* fragments of a
//! directory's [`lunule_namespace::FragSet`], and authority entries are only
//! placed on live fragments. Live fragments are pairwise disjoint, so a
//! candidate `(dir, frag)` can never contain a deeper authority entry of the
//! same directory, and the aggregate of a candidate is simply its local load
//! share plus the aggregates of non-delegated child directories inside the
//! fragment.

use lunule_namespace::{
    dentry_hash, Frag, FragKey, FragSet, InodeId, MdsRank, Namespace, SubtreeMap,
};
use lunule_util::convert::{u32_to_usize, usize_to_f64};

/// A migration candidate: a dirfrag subtree with its aggregated load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// The dirfrag subtree.
    pub key: FragKey,
    /// Rank currently authoritative for the subtree.
    pub rank: MdsRank,
    /// Load of the whole subtree under the chosen metric (heat or mIndex).
    pub load: f64,
    /// The portion of `load` contributed by `key.dir`'s *direct* children
    /// (as opposed to nested directories). The selector uses this to decide
    /// between fragment splitting and descending.
    pub local_load: f64,
}

/// The fragment list of a directory that was never split.
const UNDIVIDED: [Frag; 1] = [Frag::root()];

/// Computes the candidate list for the whole cluster given a per-directory
/// local load metric.
///
/// `local` maps a directory to the load charged to its direct children.
/// Directories with zero aggregate load are skipped. The returned vector is
/// unsorted; callers filter by rank and order as their policy requires.
///
/// Costs O(directories): the pass walks the namespace's directory index,
/// never the inode arena.
pub fn build_candidates(
    ns: &Namespace,
    map: &SubtreeMap,
    local: &impl Fn(InodeId) -> f64,
) -> Vec<Candidate> {
    // Bottom-up pass: the index places parents before children, so
    // iterating slots in reverse visits children before parents.
    let dirs = ns.dir_index();
    let ids = dirs.ids();
    // agg[s] = aggregate load of the directory at slot s's *non-delegated*
    // portion, i.e. what flows up into its parent's candidate.
    let mut agg = vec![0.0f64; dirs.len()];
    let mut candidates = Vec::new();

    for slot in (0..dirs.len()).rev() {
        let id = ids[slot];
        let local_load = local(id);
        let kids = dirs.child_slots(slot);
        let frags = ns.frag_set(id).map_or(&UNDIVIDED[..], FragSet::frags);

        // Fast path: undivided directory with no frag-level delegation.
        if frags.len() == 1 && frags[0].is_root() {
            let frag = frags[0];
            let mut load = local_load;
            for &k in kids {
                // agg[k] is the child's *non-delegated* portion by
                // construction (delegated fragments were excluded when
                // the child itself was processed), so it always flows up.
                load += agg[u32_to_usize(k)];
            }
            if load > 0.0 {
                candidates.push(Candidate {
                    key: FragKey { dir: id, frag },
                    rank: map.frag_authority(ns, id, &frag),
                    load,
                    local_load,
                });
            }
            if map.explicit_entry_rank(id, &frag).is_none() {
                agg[slot] = load;
            }
            continue;
        }

        // Fragmented directory: one candidate per live fragment, local load
        // apportioned by the share of children hashing into the fragment.
        let n_children = ns.inode(id).children().len();
        let mut up_load = 0.0;
        for frag in frags {
            let frac = if n_children == 0 {
                0.0
            } else {
                usize_to_f64(ns.children_in_frag_count(id, frag)) / usize_to_f64(n_children)
            };
            let mut load = local_load * frac;
            for &k in kids {
                let k = u32_to_usize(k);
                if frag.contains_hash(dentry_hash(ids[k].raw())) {
                    load += agg[k];
                }
            }
            if load > 0.0 {
                candidates.push(Candidate {
                    key: FragKey {
                        dir: id,
                        frag: *frag,
                    },
                    rank: map.frag_authority(ns, id, frag),
                    load,
                    local_load: local_load * frac,
                });
            }
            if map.explicit_entry_rank(id, frag).is_none() {
                up_load += load;
            }
        }
        agg[slot] = up_load;
    }
    candidates
}

/// Filters candidates down to one exporter and sorts them by descending
/// load — the shape every selection policy starts from.
pub fn candidates_of_rank(all: &[Candidate], rank: MdsRank) -> Vec<Candidate> {
    let mut v: Vec<Candidate> = all.iter().filter(|c| c.rank == rank).copied().collect();
    v.sort_by(|a, b| b.load.total_cmp(&a.load));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Namespace:
    /// /           (ROOT)
    ///   a/        local 10
    ///     a1/     local 5
    ///   b/        local 20
    fn fixture() -> (Namespace, InodeId, InodeId, InodeId, HashMap<InodeId, f64>) {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let a1 = ns.mkdir(a, "a1").unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        for d in [a, a1, b] {
            for i in 0..4 {
                ns.create_file(d, &format!("f{i}"), 1).unwrap();
            }
        }
        let mut loads = HashMap::new();
        loads.insert(a, 10.0);
        loads.insert(a1, 5.0);
        loads.insert(b, 20.0);
        (ns, a, a1, b, loads)
    }

    #[test]
    fn aggregates_roll_up_to_root() {
        let (ns, a, a1, b, loads) = fixture();
        let map = SubtreeMap::new(MdsRank(0));
        let local = |d: InodeId| loads.get(&d).copied().unwrap_or(0.0);
        let cands = build_candidates(&ns, &map, &local);
        let find = |dir| {
            cands
                .iter()
                .find(|c| c.key.dir == dir)
                .copied()
                .unwrap_or_else(|| panic!("no candidate for {dir:?}"))
        };
        assert_eq!(find(a1).load, 5.0);
        assert_eq!(find(a).load, 15.0); // 10 local + 5 nested
        assert_eq!(find(b).load, 20.0);
        let root = find(InodeId::ROOT);
        assert_eq!(root.load, 35.0);
        assert_eq!(root.local_load, 0.0);
        // Every candidate belongs to rank 0 before any delegation.
        assert!(cands.iter().all(|c| c.rank == MdsRank(0)));
    }

    #[test]
    fn delegated_child_is_excluded_from_parent() {
        let (ns, a, a1, _b, loads) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a1), MdsRank(1));
        let local = |d: InodeId| loads.get(&d).copied().unwrap_or(0.0);
        let cands = build_candidates(&ns, &map, &local);
        let a_cand = cands.iter().find(|c| c.key.dir == a).unwrap();
        // a1's subtree is delegated to rank 1, so its load no longer flows
        // up into a's candidate; a keeps only its own local load.
        assert_eq!(a_cand.load, 10.0);
        let a1_cand = cands.iter().find(|c| c.key.dir == a1).unwrap();
        assert_eq!(a1_cand.rank, MdsRank(1));
        assert_eq!(a1_cand.load, 5.0);
        let of_rank1 = candidates_of_rank(&cands, MdsRank(1));
        assert_eq!(of_rank1.len(), 1);
    }

    #[test]
    fn fragmented_dir_produces_per_frag_candidates() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "big").unwrap();
        for i in 0..100 {
            ns.create_file(d, &format!("f{i}"), 0).unwrap();
        }
        ns.split_frag(d, &Frag::root(), 1).unwrap();
        let map = SubtreeMap::new(MdsRank(0));
        let local = move |x: InodeId| if x == d { 100.0 } else { 0.0 };
        let cands = build_candidates(&ns, &map, &local);
        let frag_cands: Vec<_> = cands.iter().filter(|c| c.key.dir == d).collect();
        assert_eq!(frag_cands.len(), 2);
        let total: f64 = frag_cands.iter().map(|c| c.load).sum();
        assert!((total - 100.0).abs() < 1e-9);
        // Shares are proportional to children counts, which are roughly even.
        for c in frag_cands {
            assert!(c.load > 20.0 && c.load < 80.0);
        }
    }

    #[test]
    fn load_flows_up_after_moving_a_dir_under_a_younger_one() {
        // `b` is created after `a`, so once `a` moves under `b` the child
        // has the smaller arena index. Its load must still reach `b` and
        // the root.
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        ns.rename(a, b, "a").unwrap();
        let map = SubtreeMap::new(MdsRank(0));
        let local = move |d: InodeId| if d == a { 10.0 } else { 0.0 };
        let cands = build_candidates(&ns, &map, &local);
        let load_of = |dir| cands.iter().find(|c| c.key.dir == dir).map(|c| c.load);
        assert_eq!(load_of(a), Some(10.0));
        assert_eq!(load_of(b), Some(10.0));
        assert_eq!(load_of(InodeId::ROOT), Some(10.0));
    }

    #[test]
    fn zero_load_dirs_are_skipped() {
        let (ns, _, _, _, _) = fixture();
        let map = SubtreeMap::new(MdsRank(0));
        let cands = build_candidates(&ns, &map, &|_| 0.0);
        assert!(cands.is_empty());
    }

    #[test]
    fn rank_filter_sorts_descending() {
        let (ns, _, _, _, loads) = fixture();
        let map = SubtreeMap::new(MdsRank(0));
        let local = |d: InodeId| loads.get(&d).copied().unwrap_or(0.0);
        let cands = build_candidates(&ns, &map, &local);
        let sorted = candidates_of_rank(&cands, MdsRank(0));
        for w in sorted.windows(2) {
            assert!(w[0].load >= w[1].load);
        }
    }
}
