//! Differential tests for the per-epoch candidate pass.
//!
//! `build_candidates` walks the namespace's directory index. Two oracles
//! pin it down:
//!
//! * [`arena_walk`], the earlier pass that visited every arena slot in
//!   reverse. It is exact whenever parents precede children in the arena
//!   (no rename), and the index pass must reproduce its output exactly:
//!   same order, same `f64` bits.
//! * [`post_order`], a recursive post-order walk over parent/child links.
//!   It is right for any namespace, renames included; the comparison is
//!   order-insensitive but still bit-exact.
//!
//! A golden digest of the plans `LunuleBalancer::on_epoch` emits on a
//! many-pairing 128-rank case guards the whole epoch, selection included.

use lunule_core::{
    build_candidates, Access, Balancer, Candidate, EpochStats, IfModelConfig, OpKind,
};
use lunule_core::{LunuleBalancer, LunuleConfig, MigrationPlan};
use lunule_namespace::{FragKey, InodeId, MdsRank, Namespace, SubtreeMap};
use lunule_util::propcheck;
use lunule_util::DetRng;

/// The arena-walk candidate pass this crate used before the directory
/// index, kept verbatim as the oracle (minus the inode counts `Candidate`
/// no longer carries).
fn arena_walk(ns: &Namespace, map: &SubtreeMap, local: &impl Fn(InodeId) -> f64) -> Vec<Candidate> {
    let n = ns.len();
    let mut agg_whole = vec![0.0f64; n];
    let mut candidates = Vec::new();
    for idx in (0..n).rev() {
        let id = InodeId::from_index(idx);
        let ino = ns.inode(id);
        if !ino.is_dir() {
            continue;
        }
        let local_load = local(id);
        let n_children = ino.children().len();
        let frags = ns.frags_of(id);
        if frags.len() == 1 && frags[0].is_root() {
            let frag = frags[0];
            let mut load = local_load;
            for &c in ino.children() {
                if ns.inode(c).is_dir() {
                    load += agg_whole[c.index()];
                }
            }
            let rank = map.frag_authority(ns, id, &frag);
            if load > 0.0 {
                candidates.push(Candidate {
                    key: FragKey { dir: id, frag },
                    rank,
                    load,
                    local_load,
                });
            }
            if map.explicit_entry_rank(id, &frag).is_none() {
                agg_whole[idx] = load;
            }
            continue;
        }
        let mut up_load = 0.0;
        for frag in frags {
            let in_frag = ns.children_in_frag(id, &frag);
            let frac = if n_children == 0 {
                0.0
            } else {
                in_frag.len() as f64 / n_children as f64
            };
            let mut load = local_load * frac;
            for c in &in_frag {
                if ns.inode(*c).is_dir() {
                    load += agg_whole[c.index()];
                }
            }
            let rank = map.frag_authority(ns, id, &frag);
            if load > 0.0 {
                candidates.push(Candidate {
                    key: FragKey { dir: id, frag },
                    rank,
                    load,
                    local_load: local_load * frac,
                });
            }
            if map.explicit_entry_rank(id, &frag).is_none() {
                up_load += load;
            }
        }
        agg_whole[idx] = up_load;
    }
    candidates
}

/// Recursive post-order oracle: correct for any parent/child layout.
/// Visits the tree under the root, then every tombstoned directory (each
/// is a detached leaf).
fn post_order(ns: &Namespace, map: &SubtreeMap, local: &impl Fn(InodeId) -> f64) -> Vec<Candidate> {
    fn visit(
        ns: &Namespace,
        map: &SubtreeMap,
        local: &impl Fn(InodeId) -> f64,
        dir: InodeId,
        out: &mut Vec<Candidate>,
    ) -> f64 {
        let ino = ns.inode(dir);
        let nested: Vec<(InodeId, f64)> = ino
            .children()
            .iter()
            .filter(|c| ns.inode(**c).is_dir())
            .map(|c| (*c, visit(ns, map, local, *c, out)))
            .collect();
        let local_load = local(dir);
        let n_children = ino.children().len();
        let mut up = 0.0;
        for frag in ns.frags_of(dir) {
            let frac = if frag.is_root() {
                1.0
            } else if n_children == 0 {
                0.0
            } else {
                ns.children_in_frag(dir, &frag).len() as f64 / n_children as f64
            };
            let own = if frag.is_root() {
                local_load
            } else {
                local_load * frac
            };
            let mut load = own;
            for (c, agg) in &nested {
                if frag.contains_hash(ns.dentry_hash_of(*c)) {
                    load += agg;
                }
            }
            if load > 0.0 {
                out.push(Candidate {
                    key: FragKey { dir, frag },
                    rank: map.frag_authority(ns, dir, &frag),
                    load,
                    local_load: own,
                });
            }
            if map.explicit_entry_rank(dir, &frag).is_none() {
                up += load;
            }
        }
        up
    }
    let mut out = Vec::new();
    visit(ns, map, local, InodeId::ROOT, &mut out);
    for idx in 0..ns.len() {
        let id = InodeId::from_index(idx);
        let ino = ns.inode(id);
        if ino.is_dir() && !ino.is_alive() {
            visit(ns, map, local, id, &mut out);
        }
    }
    out
}

/// A candidate as comparable bits: key, rank and both loads' `f64` bits.
fn bits(c: &Candidate) -> (InodeId, u32, u8, MdsRank, u64, u64) {
    (
        c.key.dir,
        c.key.frag.value(),
        c.key.frag.bits(),
        c.rank,
        c.load.to_bits(),
        c.local_load.to_bits(),
    )
}

fn all_bits(cands: &[Candidate]) -> Vec<(InodeId, u32, u8, MdsRank, u64, u64)> {
    cands.iter().map(bits).collect()
}

fn pick<T: Copy>(rng: &mut DetRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A random namespace grown by mkdir/create/unlink/rmdir, frag splits
/// and (when `renames`) directory renames, with explicit delegations on
/// live fragments placed after the last split, and a random per-directory
/// load (zero for about a third of the directories, tombstones included).
fn random_case(rng: &mut DetRng, renames: bool) -> (Namespace, SubtreeMap, Vec<f64>) {
    let mut ns = Namespace::new();
    let mut dirs = vec![InodeId::ROOT];
    let mut files: Vec<InodeId> = Vec::new();
    let kinds = if renames { 7 } else { 6 };
    for _ in 0..rng.gen_range(1..160) {
        match rng.gen_range(0..kinds) {
            0 | 1 => {
                let parent = pick(rng, &dirs);
                dirs.push(ns.mkdir(parent, "d").unwrap());
            }
            2 => {
                let parent = pick(rng, &dirs);
                for _ in 0..rng.gen_range(1..12) {
                    files.push(ns.create_file(parent, "f", 1).unwrap());
                }
            }
            3 => {
                let d = pick(rng, &dirs);
                let frags = ns.frags_of(d);
                let f = pick(rng, &frags);
                if f.bits() < 4 {
                    let by = u8::try_from(rng.gen_range(1..3)).unwrap();
                    ns.split_frag(d, &f, by).unwrap();
                }
            }
            4 => {
                if !files.is_empty() {
                    let i = rng.gen_range(0..files.len());
                    ns.unlink(files.swap_remove(i)).unwrap();
                }
            }
            5 => {
                let d = pick(rng, &dirs);
                if d != InodeId::ROOT && ns.inode(d).children().is_empty() {
                    ns.rmdir(d).unwrap();
                    dirs.retain(|x| *x != d);
                }
            }
            _ => {
                let d = pick(rng, &dirs);
                let target = pick(rng, &dirs);
                if d != InodeId::ROOT && !ns.path_chain(target).contains(&d) {
                    ns.rename(d, target, "moved").unwrap();
                }
            }
        }
    }
    let mut map = SubtreeMap::new(MdsRank(0));
    for _ in 0..rng.gen_range(0..8) {
        let d = pick(rng, &dirs);
        let frags = ns.frags_of(d);
        let frag = pick(rng, &frags);
        let rank = MdsRank(u16::try_from(rng.gen_range(1..4)).unwrap());
        map.set_authority(FragKey { dir: d, frag }, rank);
    }
    let loads = (0..ns.len())
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                0.0
            } else {
                rng.gen_f64_in(0.0, 100.0)
            }
        })
        .collect();
    (ns, map, loads)
}

/// Without renames the index pass reproduces the arena walk exactly:
/// same candidates, same order, same bits.
#[test]
fn index_pass_matches_arena_walk_without_renames() {
    propcheck::run(160, |rng| {
        let (ns, map, loads) = random_case(rng, false);
        let local = |d: InodeId| loads[d.index()];
        let fast = build_candidates(&ns, &map, &local);
        assert_eq!(all_bits(&fast), all_bits(&arena_walk(&ns, &map, &local)));
        // And the recursive oracle agrees, which the rename test relies on.
        let mut fast_sorted = all_bits(&fast);
        let mut slow = all_bits(&post_order(&ns, &map, &local));
        fast_sorted.sort();
        slow.sort();
        assert_eq!(fast_sorted, slow);
    });
}

/// With renames (which put children before parents in the arena) the
/// index pass still aggregates every directory's full subtree.
#[test]
fn index_pass_matches_post_order_with_renames() {
    propcheck::run(160, |rng| {
        let (ns, map, loads) = random_case(rng, true);
        let local = |d: InodeId| loads[d.index()];
        let mut fast = all_bits(&build_candidates(&ns, &map, &local));
        let mut slow = all_bits(&post_order(&ns, &map, &local));
        fast.sort();
        slow.sort();
        assert_eq!(fast, slow);
    });
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn plan_words(plan: &MigrationPlan, out: &mut Vec<u64>) {
    out.push(plan.exports.len() as u64);
    for task in &plan.exports {
        out.push(u64::from(task.from.0));
        out.push(u64::from(task.to.0));
        out.push(task.target_amount.to_bits());
        out.push(task.subtrees.len() as u64);
        for s in &task.subtrees {
            out.push(s.subtree.dir.raw());
            out.push(u64::from(s.subtree.frag.value()));
            out.push(u64::from(s.subtree.frag.bits()));
            out.push(s.estimated_load.to_bits());
        }
    }
}

/// 128 ranks each own two of 256 top-level directories (16 files and two
/// 8-file subdirectories apiece); a quarter of the ranks run hot. Over
/// six epochs Lunule plans dozens of pairings per epoch, exercising the
/// `used` overlap filter, fragment splits and descents.
#[test]
fn lunule_plans_match_golden_on_many_pairing_128_rank_case() {
    const RANKS: usize = 128;
    let mut ns = Namespace::new();
    let mut map = SubtreeMap::new(MdsRank(0));
    let mut owned: Vec<(MdsRank, Vec<InodeId>)> = Vec::new();
    for d in 0..2 * RANKS {
        let rank = MdsRank(u16::try_from(d % RANKS).unwrap());
        let top = ns.mkdir(InodeId::ROOT, &format!("t{d}")).unwrap();
        map.set_authority(FragKey::whole(top), rank);
        let mut files = Vec::new();
        for f in 0..16 {
            files.push(ns.create_file(top, &format!("f{f}"), 1).unwrap());
        }
        for s in 0..2 {
            let sub = ns.mkdir(top, &format!("s{s}")).unwrap();
            for f in 0..8 {
                files.push(ns.create_file(sub, &format!("f{f}"), 1).unwrap());
            }
        }
        owned.push((rank, files));
    }
    let cfg = LunuleConfig {
        if_model: IfModelConfig {
            mds_capacity: 500.0,
            ..IfModelConfig::default()
        },
        ..LunuleConfig::default()
    };
    let mut balancer = LunuleBalancer::new(cfg);
    let mut words = Vec::new();
    let mut pairings = 0;
    for epoch in 0..6u64 {
        let mut requests = vec![0u64; RANKS];
        for (i, (rank, files)) in owned.iter().enumerate() {
            let hot = usize::from(rank.0) < RANKS / 4;
            for (j, f) in files.iter().enumerate() {
                let n = if hot {
                    40 + ((i + j) as u64 * 7 + epoch) % 23
                } else {
                    1 + (j as u64 % 3)
                };
                let access = Access {
                    ino: *f,
                    served_by: *rank,
                    kind: OpKind::Read,
                };
                balancer.record_access_n(&ns, access, n);
                requests[usize::from(rank.0)] += n;
            }
        }
        let stats = EpochStats::new(epoch, 10.0, requests);
        let plan = balancer.on_epoch(&ns, &map, &stats);
        pairings += plan.exports.len();
        plan_words(&plan, &mut words);
    }
    assert!(pairings >= 300, "case must plan many pairings: {pairings}");
    assert_eq!(fnv(words), GOLDEN_PLAN_DIGEST);
}

/// Digest of the plans the arena-walk implementation emitted on the case
/// above; the directory-index pass must reproduce them bit for bit.
const GOLDEN_PLAN_DIGEST: u64 = 0xa17b_a839_f424_50b9;
