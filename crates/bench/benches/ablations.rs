//! Ablation benches for group hashing's design choices (DESIGN.md):
//!
//! * `commit`: 8-byte atomic bitmap commit vs forced undo logging —
//!   what eliminating duplicate-copy writes buys (contribution 1);
//! * `choice`: one hash function vs the §4.4 two-choice extension —
//!   what a second candidate slot and group costs per operation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gh_bench::{fresh_keys, BENCH_NVM_NS};
use group_hash::{ChoiceMode, CommitStrategy, GroupHash, GroupHashConfig};
use nvm_pmem::{RealPmem, Region};
use nvm_table::InsertError;
use nvm_traces::{RandomNum, Trace};

const CELLS_PER_LEVEL: u64 = 1 << 13;
const SEED: u64 = 8;

fn build(cfg: GroupHashConfig) -> (RealPmem, GroupHash<RealPmem, u64, u64>, Vec<u64>) {
    let size = GroupHash::<RealPmem, u64, u64>::required_size(&cfg);
    let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
    let mut t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    let mut trace = RandomNum::new(SEED);
    let mut filled = Vec::new();
    while (filled.len() as u64) < CELLS_PER_LEVEL {
        let k = trace.next_key();
        match t.insert(&mut pm, k, k) {
            Ok(()) => filled.push(k),
            Err(InsertError::TableFull) => break,
            Err(e) => panic!("{e}"),
        }
    }
    (pm, t, filled)
}

fn bench_variant(c: &mut Criterion, group: &str, label: &str, cfg: GroupHashConfig) {
    let (mut pm, mut table, filled) = build(cfg);
    let fresh = fresh_keys(SEED, filled.len(), 4096);
    let mut g = c.benchmark_group(group.to_string());
    let mut ii = 0usize;
    g.bench_function(format!("{label}/insert_delete"), |b| {
        b.iter_batched(
            || {
                let k = fresh[ii % fresh.len()];
                ii += 1;
                k
            },
            |k| {
                table.insert(&mut pm, k, k).unwrap();
                assert!(table.remove(&mut pm, &k));
            },
            BatchSize::SmallInput,
        )
    });
    let mut qi = 0usize;
    g.bench_function(format!("{label}/query"), |b| {
        b.iter(|| {
            let k = filled[qi % filled.len()];
            qi += 1;
            assert!(table.get(&pm, &k).is_some());
        })
    });
    g.finish();
}

fn ablation_commit(c: &mut Criterion) {
    let base = GroupHashConfig::new(CELLS_PER_LEVEL, 256).with_seed(SEED);
    bench_variant(c, "ablation/commit", "atomic_bitmap", base);
    bench_variant(
        c,
        "ablation/commit",
        "undo_log",
        base.with_commit(CommitStrategy::UndoLog),
    );
}

fn ablation_choice(c: &mut Criterion) {
    let base = GroupHashConfig::new(CELLS_PER_LEVEL, 256).with_seed(SEED);
    bench_variant(c, "ablation/choice", "single_hash", base);
    bench_variant(
        c,
        "ablation/choice",
        "two_choice",
        base.with_choice(ChoiceMode::TwoChoice),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = ablation_commit, ablation_choice
}
criterion_main!(benches);
