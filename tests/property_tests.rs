//! Property-based tests over the core data structures and invariants,
//! spanning all three library crates.

use proptest::prelude::*;
use strex::team::form_teams;
use strex_oltp::engine::{Arena, BTree, RecordingSink};
use strex_sim::addr::{Addr, AddrRange, BlockAddr};
use strex_sim::cache::{CacheGeometry, SetAssocCache};
use strex_sim::ids::{ThreadId, TxnTypeId};
use strex_sim::replacement::ReplacementKind;

fn any_replacement() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::Lip),
        Just(ReplacementKind::Bip),
        Just(ReplacementKind::Srrip),
        Just(ReplacementKind::Brrip),
    ]
}

proptest! {
    /// A cache never holds more blocks than its capacity, never holds the
    /// same block twice, and peek_victim always agrees with the eviction
    /// the subsequent fill performs.
    #[test]
    fn cache_capacity_uniqueness_and_peek(
        kind in any_replacement(),
        accesses in prop::collection::vec((0u64..200, 0u8..8), 1..400),
    ) {
        let geom = CacheGeometry::new(4096, 4); // 16 sets x 4 ways
        let mut cache = SetAssocCache::new(geom, kind);
        for (blk, aux) in accesses {
            let block = BlockAddr::new(blk);
            let peek = cache.peek_victim(block);
            let out = cache.access(block, aux);
            prop_assert_eq!(peek, out.evicted(), "peek/evict divergence");
            prop_assert!(cache.contains(block));
            prop_assert!(cache.occupancy() <= geom.blocks());
            // Residency is unique: resident_blocks has no duplicates.
            let mut seen: Vec<u64> =
                cache.resident_blocks().map(BlockAddr::index).collect();
            let before = seen.len();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(before, seen.len(), "duplicate resident block");
        }
    }

    /// B+tree: whatever was inserted is found; whatever was removed is
    /// gone; length tracks the live key count.
    #[test]
    fn btree_models_a_map(
        keys in prop::collection::hash_set(0u64..10_000, 1..150),
        remove_mask in any::<u64>(),
    ) {
        let mut arena = Arena::new();
        let mut tree = BTree::new(&mut arena, "prop");
        let mut sink = RecordingSink::new();
        let keys: Vec<u64> = keys.into_iter().collect();
        for &k in &keys {
            tree.insert(k, k + 1, &mut arena, &mut sink);
        }
        prop_assert_eq!(tree.len(), keys.len());
        let mut live = 0;
        for (i, &k) in keys.iter().enumerate() {
            if remove_mask >> (i % 64) & 1 == 1 {
                prop_assert_eq!(tree.remove(k, &mut sink), Some(k + 1));
            } else {
                live += 1;
            }
        }
        prop_assert_eq!(tree.len(), live);
        for (i, &k) in keys.iter().enumerate() {
            let expect = if remove_mask >> (i % 64) & 1 == 1 {
                None
            } else {
                Some(k + 1)
            };
            prop_assert_eq!(tree.search(k, &mut sink), expect, "key {}", k);
        }
    }

    /// B+tree scans return keys' payloads in sorted-run order.
    #[test]
    fn btree_scan_is_a_sorted_run(
        n in 10u64..300,
        start in 0u64..200,
        limit in 1usize..40,
    ) {
        let mut arena = Arena::new();
        let mut tree = BTree::new(&mut arena, "scan");
        let mut sink = RecordingSink::new();
        for k in 0..n {
            tree.insert(k, k, &mut arena, &mut sink);
        }
        let hits = tree.scan_from(start, limit, &mut sink);
        let expected: Vec<u64> = (start..n).take(limit).collect();
        prop_assert_eq!(hits, expected);
    }

    /// Team formation is a partition: every thread appears in exactly one
    /// team, teams are type-pure, and no team exceeds the size cap.
    #[test]
    fn team_formation_is_a_type_pure_partition(
        types in prop::collection::vec(0u16..5, 1..100),
        team_size in 1usize..12,
        window in 1usize..40,
    ) {
        let arrivals: Vec<(ThreadId, TxnTypeId)> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| (ThreadId::new(i as u32), TxnTypeId::new(t)))
            .collect();
        let teams = form_teams(&arrivals, team_size, window);
        let mut all: Vec<u32> = Vec::new();
        for team in &teams {
            prop_assert!(!team.is_empty());
            prop_assert!(team.len() <= team_size);
            for &m in &team.members {
                prop_assert_eq!(
                    arrivals[m.as_usize()].1, team.txn_type,
                    "team must be type-pure"
                );
                all.push(m.value());
            }
        }
        all.sort_unstable();
        let expected: Vec<u32> = (0..types.len() as u32).collect();
        prop_assert_eq!(all, expected, "not a partition");
    }

    /// Non-power-of-two set counts are rejected by configuration
    /// validation as a `ConfigError` — never a panic. (The single-probe
    /// cache indexes sets with a mask, so only power-of-two set counts are
    /// simulable; every Table 2 geometry qualifies.)
    #[test]
    fn non_pow2_sets_rejected_with_config_error(
        sets in 2usize..512,
        assoc in 1usize..16,
    ) {
        use strex::config::SimConfig;
        use strex::error::ConfigError;
        use strex_sim::config::SystemConfig;

        // Construct an exactly divisible geometry with `sets` sets.
        let size = (sets * assoc) as u64 * 64;
        let geom = CacheGeometry::new(size, assoc);
        prop_assert_eq!(geom.sets(), sets);

        let mut system = SystemConfig::with_cores(2);
        system.l1i_geometry = geom;
        let result = SimConfig::builder().system(system).build();
        if sets.is_power_of_two() {
            prop_assert!(result.is_ok());
        } else {
            prop_assert_eq!(
                result.err(),
                Some(ConfigError::NonPowerOfTwoSets { cache: "L1-I", sets })
            );
            // The fallible geometry constructor agrees.
            prop_assert!(CacheGeometry::try_new(size, assoc).is_err());
        }
    }

    /// Address ranges: every block reported by `blocks()` overlaps the
    /// range, and the count matches the byte span.
    #[test]
    fn addr_range_block_enumeration(start in 0u64..1_000_000, len in 0u64..10_000) {
        let r = AddrRange::new(Addr::new(start), len);
        let blocks: Vec<BlockAddr> = r.blocks().collect();
        if len == 0 {
            prop_assert!(blocks.is_empty());
        } else {
            let first = Addr::new(start).block().index();
            let last = Addr::new(start + len - 1).block().index();
            prop_assert_eq!(blocks.len() as u64, last - first + 1);
            prop_assert_eq!(blocks.first().map(|b| b.index()), Some(first));
            prop_assert_eq!(blocks.last().map(|b| b.index()), Some(last));
        }
    }
}
