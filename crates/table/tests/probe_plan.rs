//! Pure probe-plan unit tests: no pool, no I/O, just geometry.
//!
//! These pin the exact cell sequences each plan yields for small, known
//! geometries. Because plans are plain arithmetic, a regression here is a
//! probe-order change — exactly the kind of bug that would silently warp
//! every scheme's locality and persistence-cost numbers.

use nvm_table::probe::{
    broadcast, match_bits, GroupPlan, IcebergPlan, LinearPlan, PathPlan, PfhtPlan, ICEBERG_LANES,
};

// ------------------------------------------------------------- group plan

#[test]
fn group_contiguous_exact_sequence() {
    let p = GroupPlan::new(4, 4);
    assert_eq!(p.cells_per_level(), 16);
    let g2: Vec<u64> = p.group_cells(2).collect();
    assert_eq!(g2, vec![8, 9, 10, 11]);
    assert_eq!(p.cell(2, 3), 11);
    assert_eq!(p.group_of_cell(9), 2);
    assert_eq!(p.group_of_slot(7), 1);
}

#[test]
fn group_layout_partitions_the_level() {
    // The groups partition [0, cells_per_level) into n_groups disjoint
    // contiguous ranges.
    let p = GroupPlan::new(8, 4);
    let mut seen: Vec<u64> = (0..4).flat_map(|g| p.group_cells(g)).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..32).collect::<Vec<u64>>());
    for g in 0..4 {
        for idx in p.group_cells(g) {
            assert_eq!(p.group_of_cell(idx), g, "cell {idx}");
        }
    }
}

// ------------------------------------------------------------ linear plan

#[test]
fn linear_sequence_wraps_exactly_once() {
    let p = LinearPlan::new(8);
    let seq: Vec<u64> = p.sequence(6).collect();
    assert_eq!(seq, vec![6, 7, 0, 1, 2, 3, 4, 5]);
    assert_eq!(p.home(13), 5);
    assert_eq!(p.step(7), 0);
    assert_eq!(p.step(3), 4);
}

#[test]
fn linear_must_stay_ring_intervals() {
    // Hole at 2, entry at 5: an entry homed at 4 never probed through the
    // hole (2 < 4 <= 5), so it must stay; an entry homed at 1 did probe
    // through 2, so it may move.
    assert!(LinearPlan::must_stay(2, 4, 5));
    assert!(!LinearPlan::must_stay(2, 1, 5));
    // Wrapped case: hole at 6, entry at 1 (probe ran 6 → 7 → 0 → 1).
    assert!(LinearPlan::must_stay(6, 7, 1));
    assert!(LinearPlan::must_stay(6, 0, 1));
    assert!(!LinearPlan::must_stay(6, 6, 1));
    assert!(!LinearPlan::must_stay(6, 5, 1));
}

// -------------------------------------------------------------- pfht plan

#[test]
fn pfht_bucket_and_stash_geometry() {
    let p = PfhtPlan::new(8, 4, 3);
    assert_eq!(p.total_cells(), 35);
    assert_eq!(p.stash_base(), 32);
    let b3: Vec<u64> = p.bucket_range(3).collect();
    assert_eq!(b3, vec![12, 13, 14, 15]);
    assert_eq!(p.cell(3, 0), 12);
    assert_eq!(p.buckets(0x1_0005, 0x2_000B), (5, 3));
    assert_eq!(p.bucket_of_cell(13), Some(3));
    assert_eq!(p.bucket_of_cell(31), Some(7));
    assert_eq!(p.bucket_of_cell(32), None, "stash cell has no bucket");
    assert_eq!(p.bucket_of_cell(34), None);
}

// -------------------------------------------------------------- path plan

#[test]
fn path_distinct_leaves_exact_sequence() {
    // leaf_bits=3, levels=3: sizes 8/4/2, level bases 0/8/12, 14 cells.
    let p = PathPlan::new(3, 3);
    assert_eq!(p.total_cells(), 14);
    assert_eq!(p.level_base(0), 0);
    assert_eq!(p.level_base(1), 8);
    assert_eq!(p.level_base(2), 12);
    let cells: Vec<u64> = p.path_cells(2, 5).collect();
    assert_eq!(cells, vec![2, 5, 9, 10, 12, 13]);
}

#[test]
fn path_merged_ancestors_visited_once() {
    // Leaves 2 and 3 share every ancestor above level 0: the probe
    // sequence must not visit the shared cells twice.
    let p = PathPlan::new(3, 3);
    let cells: Vec<u64> = p.path_cells(2, 3).collect();
    assert_eq!(cells, vec![2, 3, 9, 12]);
    // Same leaf twice degenerates to a single path.
    let cells: Vec<u64> = p.path_cells(5, 5).collect();
    assert_eq!(cells, vec![5, 10, 13]);
}

#[test]
fn path_level_math_round_trips() {
    let p = PathPlan::new(3, 3);
    assert_eq!(p.level_of_cell(0), 0);
    assert_eq!(p.level_of_cell(7), 0);
    assert_eq!(p.level_of_cell(8), 1);
    assert_eq!(p.level_of_cell(12), 2);
    assert_eq!(p.level_of_cell(13), 2);
    assert!(p.on_path(5, 10));
    assert!(p.on_path(5, 13));
    assert!(!p.on_path(5, 9));
    // Levels clamp to the tree height; cell_count agrees with the plan.
    let tall = PathPlan::new(3, 99);
    assert_eq!(tall.levels(), 4);
    assert_eq!(tall.total_cells(), PathPlan::cell_count(3, 99));
    assert_eq!(tall.total_cells(), 15);
}

// ----------------------------------------------------------- iceberg plan

#[test]
fn iceberg_exact_cell_indices() {
    // 16 L1 + 8 L2 + 8 backyard buckets, 8 lanes each: 256 cells with
    // level bases at cells 0 / 128 / 192.
    let p = IcebergPlan::new(16, 8, 8);
    assert_eq!(ICEBERG_LANES, 8);
    assert_eq!(p.n_buckets(), 32);
    assert_eq!(p.total_cells(), 256);
    assert_eq!(p.backyard_base(), 24);
    assert_eq!(p.cell(0, 0), 0);
    assert_eq!(p.cell(15, 7), 127);
    assert_eq!(p.cell(16, 0), 128, "first level-2 cell");
    assert_eq!(p.cell(24, 0), 192, "first backyard cell");
    assert_eq!(p.bucket_cells(2).collect::<Vec<u64>>(), vec![16, 17, 18, 19, 20, 21, 22, 23]);
    assert_eq!(p.level_of_cell(127), 0);
    assert_eq!(p.level_of_cell(128), 1);
    assert_eq!(p.level_of_cell(191), 1);
    assert_eq!(p.level_of_cell(192), 2);
    assert_eq!(p.level_of_cell(255), 2);
}

#[test]
fn iceberg_bucket_addressing_masks_each_level() {
    let p = IcebergPlan::new(16, 8, 8);
    // L1 masks h1 by its own bucket count.
    assert_eq!(p.l1_bucket(0x123), 0x123 & 15);
    // The L2 pair masks h2/h3 by the level-2 count and offsets past L1.
    assert_eq!(p.l2_pair(0x29, 0x35), (16 + 1, 16 + 5));
    // The backyard home offsets past both upper levels.
    assert_eq!(p.backyard_home(0x0B), 24 + 3);
}

#[test]
fn iceberg_backyard_chain_wraps_exactly_once() {
    let p = IcebergPlan::new(16, 8, 8);
    let seq: Vec<u64> = p.backyard_sequence(6).collect();
    assert_eq!(seq, vec![30, 31, 24, 25, 26, 27, 28, 29]);
}

#[test]
fn iceberg_lane_round_trips() {
    let p = IcebergPlan::new(16, 8, 8);
    for idx in [0u64, 7, 8, 127, 128, 200, 255] {
        assert_eq!(p.cell(p.bucket_of_cell(idx), p.lane_of_cell(idx)), idx);
    }
}

#[test]
fn iceberg_reachability_is_level_scoped() {
    let p = IcebergPlan::new(16, 8, 8);
    let (h1, h2, h3) = (9u64, 3u64, 6u64);
    let own_l1 = p.l1_bucket(h1);
    for b in 0..p.l1_buckets() {
        assert_eq!(p.cell_reachable(p.cell(b, 0), h1, h2, h3), b == own_l1);
    }
    let (a, c) = p.l2_pair(h2, h3);
    for b in p.l1_buckets()..p.backyard_base() {
        assert_eq!(p.cell_reachable(p.cell(b, 4), h1, h2, h3), b == a || b == c);
    }
    for b in p.backyard_base()..p.n_buckets() {
        assert!(p.cell_reachable(p.cell(b, 7), h1, h2, h3));
    }
}

// ------------------------------------------------------- swar fingerprint

#[test]
fn broadcast_fills_every_lane() {
    assert_eq!(broadcast(0x5A), 0x5A5A_5A5A_5A5A_5A5A);
    assert_eq!(broadcast(0x00), 0);
    assert_eq!(broadcast(0xFF), u64::MAX);
}

#[test]
fn match_bits_exact_lanes() {
    // Lanes 1 and 3 (little-endian byte order) hold 0xAA.
    let word = 0x0000_00AA_00AA_0000u64.rotate_left(16);
    let got = match_bits(word, 0xAA);
    let mut want = 0u64;
    for lane in 0..8 {
        if (word >> (lane * 8)) as u8 == 0xAA {
            want |= 1 << lane;
        }
    }
    assert_eq!(got, want);
    assert_eq!(match_bits(broadcast(0x33), 0x33), 0xFF);
    assert_eq!(match_bits(broadcast(0x33), 0x34), 0);
    assert_eq!(match_bits(0, 0), 0xFF);
}
