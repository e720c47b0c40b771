//! Cross-crate integration: re-opening tables from raw pool bytes, and
//! behavioural equality of the simulated and real pmem backends.

use group_hashing::baselines::{LinearProbing, PathHash, Pfht};
use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme};
use group_hashing::pmem::{RealPmem, Region, SimConfig, SimPmem};
use group_hashing::table::ConsistencyMode;

/// All tables reconstruct exactly from their persisted header + regions.
#[test]
fn every_scheme_reopens_from_bytes() {
    // Group
    let cfg = GroupHashConfig::new(1 << 9, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let mut t = GroupHash::<_, u64, u64>::create(&mut pm, region, cfg).unwrap();
    for k in 0..300u64 {
        t.insert(&mut pm, k, k).unwrap();
    }
    let _ = t;
    let t = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t.len(&pm), 300);
    assert_eq!(t.config().group_size, 32);

    // Linear
    let size = LinearProbing::<SimPmem, u64, u64>::required_size(1 << 9);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let mut t =
        LinearProbing::<_, u64, u64>::create(&mut pm, region, 1 << 9, 5, ConsistencyMode::UndoLog)
            .unwrap();
    for k in 0..200u64 {
        t.insert(&mut pm, k, k).unwrap();
    }
    let _ = t;
    let t = LinearProbing::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t.len(&pm), 200);
    assert_eq!(t.name(), "linear-L");

    // PFHT
    let (b, s) = Pfht::<SimPmem, u64, u64>::geometry_for(1 << 10);
    let size = Pfht::<SimPmem, u64, u64>::required_size(b, s);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let mut t =
        Pfht::<_, u64, u64>::create(&mut pm, region, b, s, 5, ConsistencyMode::None).unwrap();
    for k in 0..400u64 {
        t.insert(&mut pm, k, k).unwrap();
    }
    let _ = t;
    let t = Pfht::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t.len(&pm), 400);

    // Path
    let size = PathHash::<SimPmem, u64, u64>::required_size(8, 6);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let mut t =
        PathHash::<_, u64, u64>::create(&mut pm, region, 8, 6, 5, ConsistencyMode::None).unwrap();
    for k in 0..250u64 {
        t.insert(&mut pm, k, k).unwrap();
    }
    let _ = t;
    let t = PathHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t.len(&pm), 250);
    t.check_consistency(&pm).unwrap();
}

/// A wrong-magic open (pointing at the wrong region) fails cleanly.
#[test]
fn open_wrong_region_fails() {
    let cfg = GroupHashConfig::new(1 << 8, 16);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size + 4096, SimConfig::fast_test());
    GroupHash::<_, u64, u64>::create(&mut pm, Region::new(0, size), cfg).unwrap();
    // Offset region: garbage header.
    assert!(GroupHash::<SimPmem, u64, u64>::open(&mut pm, Region::new(4096, size)).is_err());
    // Wrong scheme's opener on a group-hash header.
    assert!(LinearProbing::<SimPmem, u64, u64>::open(&mut pm, Region::new(0, size)).is_err());
}

/// The same operation sequence produces identical results on the
/// simulator and on the real-intrinsics backend (the table logic is
/// backend-generic; only timing differs).
#[test]
fn sim_and_real_backends_agree() {
    let cfg = GroupHashConfig::new(1 << 9, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);

    let mut sim = SimPmem::new(size, SimConfig::fast_test());
    let mut real = RealPmem::with_write_latency(size, 0);
    let region = Region::new(0, size);
    let mut ts = GroupHash::<SimPmem, u64, u64>::create(&mut sim, region, cfg).unwrap();
    let mut tr = GroupHash::<RealPmem, u64, u64>::create(&mut real, region, cfg).unwrap();

    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let mut present = std::collections::HashSet::new();
    for step in 0..3000 {
        let k: u64 = rng.gen_range(0..700);
        match rng.gen_range(0..3) {
            0 => {
                if present.contains(&k) {
                    continue; // Algorithm 1 assumes distinct keys
                }
                let a = ts.insert(&mut sim, k, k + 2);
                let b = tr.insert(&mut real, k, k + 2);
                assert_eq!(a, b, "step {step} insert({k})");
                if a.is_ok() {
                    present.insert(k);
                }
            }
            1 => {
                assert_eq!(ts.get(&sim, &k), tr.get(&real, &k), "step {step} get({k})");
            }
            _ => {
                let a = ts.remove(&mut sim, &k);
                assert_eq!(a, tr.remove(&mut real, &k), "step {step} remove({k})");
                if a {
                    present.remove(&k);
                }
            }
        }
    }
    assert_eq!(ts.len(&sim), tr.len(&real));
    ts.check_consistency(&sim).unwrap();
    tr.check_consistency(&real).unwrap();

    // Even the raw persistent images agree: both backends execute the
    // identical store sequence into identically-sized pools.
    assert_eq!(sim.raw(), real.raw());
}

/// Facade paths work end-to-end (what the README advertises).
#[test]
fn facade_namespaces() {
    use group_hashing::hashfn::{md5, xxhash64};
    use group_hashing::traces::{RandomNum, Trace};

    assert_eq!(xxhash64(b"", 0), 0xEF46DB3751D8E999);
    assert_eq!(
        md5(b"abc"),
        [
            0x90, 0x01, 0x50, 0x98, 0x3c, 0xd2, 0x4f, 0xb0, 0xd6, 0x96, 0x3f, 0x7d, 0x28, 0xe1,
            0x7f, 0x72
        ]
    );
    let mut t = RandomNum::new(1);
    assert!(t.next_key() < 1 << 26);
}
