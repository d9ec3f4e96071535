//! Criterion microbenchmarks of the substrate data structures and models:
//! the performance of the simulator itself (host-side), not of the
//! simulated system.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dbsens_hwsim::cache::{CatMask, Llc};
use dbsens_hwsim::calib::CacheCalib;
use dbsens_hwsim::kernel::{Kernel, SimConfig};
use dbsens_hwsim::mem::{MemProfile, Region};
use dbsens_hwsim::rng::SimRng;
use dbsens_hwsim::script::{ScriptOp, ScriptTask};
use dbsens_hwsim::task::Demand;
use dbsens_hwsim::task::TaskId;
use dbsens_hwsim::time::SimDuration;
use dbsens_storage::btree::{BTree, RowId};
use dbsens_storage::bufferpool::{BufferPool, EXTENT_BYTES, EXTENT_PAGES};
use dbsens_storage::columnstore::ColumnStore;
use dbsens_storage::lock::{LockKey, LockManager, LockMode, TxnId};
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::{Key, Value};

fn bench_btree(c: &mut Criterion) {
    c.bench_function("btree/insert_10k", |b| {
        b.iter_batched(
            BTree::new,
            |mut t| {
                for i in 0..10_000i64 {
                    t.insert(Key::int((i * 7919) % 10_000), RowId(i as u64));
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut tree = BTree::new();
    for i in 0..100_000i64 {
        tree.insert(Key::int(i), RowId(i as u64));
    }
    c.bench_function("btree/seek_100k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            tree.get(&Key::int(k)).next()
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("llc/mixed_profile_access", |b| {
        let mut llc = Llc::new(2, CacheCalib::default());
        llc.set_mask(CatMask::contiguous(10));
        let mut rng = SimRng::new(1);
        let mut profile = MemProfile::new();
        profile.stream(Region::new(1), 8 << 20);
        profile.random(Region::new(2), 16 << 20, 4_000);
        b.iter(|| llc.access(0, &profile, &mut rng))
    });
    // The OLTP shape: one hot structure that fits, ~99% hit rate — the
    // probe loop's branchless filter-tag scan is what this stresses.
    c.bench_function("llc/hot_working_set", |b| {
        let mut llc = Llc::new(2, CacheCalib::default());
        let mut rng = SimRng::new(2);
        let mut profile = MemProfile::new();
        profile.random(Region::new(1), 2 << 20, 4_000);
        llc.access(0, &profile, &mut rng); // warm
        b.iter(|| llc.access(0, &profile, &mut rng))
    });
    // The OLAP shape: a deep pipeline with dozens of concurrent patterns,
    // exercising the heap-based proportional interleave scheduler.
    c.bench_function("llc/deep_pipeline_access", |b| {
        let mut llc = Llc::new(2, CacheCalib::default());
        let mut rng = SimRng::new(3);
        let mut profile = MemProfile::new();
        for i in 0..32u64 {
            if i % 2 == 0 {
                profile.stream(Region::new(i + 1), 4 << 20);
            } else {
                profile.random(Region::new(i + 1), 8 << 20, 2_000);
            }
        }
        b.iter(|| llc.access(0, &profile, &mut rng))
    });
}

fn bench_bufferpool(c: &mut Criterion) {
    c.bench_function("bufferpool/scan_1gb_run", |b| {
        let mut pool = BufferPool::new(4 << 30);
        let pages = (1u64 << 30) / 8192;
        b.iter(|| pool.access(0, pages, false))
    });
    c.bench_function("bufferpool/random_100k_probes", |b| {
        let mut pool = BufferPool::new(1 << 30);
        pool.access(0, EXTENT_PAGES * ((1 << 30) / EXTENT_BYTES) / 2, false);
        b.iter(|| pool.access_random(0, 1 << 20, 100_000, false))
    });
}

fn bench_columnstore(c: &mut Criterion) {
    let schema = Schema::new(&[
        ("a", ColType::Int),
        ("b", ColType::Int),
        ("s", ColType::Str(8)),
    ]);
    let rows: Vec<Vec<Value>> = (0..20_000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::from(format!("v{}", i % 100)),
            ]
        })
        .collect();
    c.bench_function("columnstore/build_20k_rows", |b| {
        b.iter(|| ColumnStore::build(schema.clone(), &rows, 4096))
    });
    let cs = ColumnStore::build(schema.clone(), &rows, 4096);
    c.bench_function("columnstore/scan_column", |b| {
        b.iter(|| cs.scan_column(1, None, None))
    });
}

fn bench_locks(c: &mut Criterion) {
    c.bench_function("locks/acquire_release_1k_txns", |b| {
        b.iter_batched(
            LockManager::new,
            |mut lm| {
                for t in 0..1_000u64 {
                    let txn = TxnId(t);
                    for k in 0..4u64 {
                        lm.acquire(
                            txn,
                            TaskId(t as usize),
                            LockKey {
                                table: 1,
                                row: t * 4 + k,
                            },
                            LockMode::X,
                        );
                    }
                    lm.release_all(txn);
                }
                lm
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_kernel(c: &mut Criterion) {
    c.bench_function("kernel/100k_compute_events", |b| {
        b.iter(|| {
            let mut kernel = Kernel::new(SimConfig::paper_default(1));
            for _ in 0..8 {
                let ops: Vec<ScriptOp> = (0..12_500)
                    .map(|_| {
                        ScriptOp::Demand(Demand::Compute {
                            instructions: 10_000,
                            mem: MemProfile::new(),
                        })
                    })
                    .collect();
                kernel.spawn(Box::new(ScriptTask::new(ops)));
            }
            kernel.run_to_completion(SimDuration::from_secs(3600));
            kernel.counters().instructions
        })
    });
}

criterion_group!(
    name = substrates;
    config = Criterion::default().sample_size(10);
    targets = bench_btree, bench_cache, bench_bufferpool, bench_columnstore, bench_locks, bench_kernel
);
criterion_main!(substrates);
