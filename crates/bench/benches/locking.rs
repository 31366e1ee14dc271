//! Micro-benchmarks of the synchronisation protocols: lock table
//! operations, ceiling admission, waits-for cycle detection, and the
//! live (real-threads) lock path with its event recording.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use rtdb::{LockMode, LockTable, ObjectId, QueuePolicy, SiteId, TxnId, TxnSpec, WaitsForGraph};
use rtlock::protocols::{LockProtocol, PriorityCeilingProtocol, ReleaseReason};
use rtlock_live::{Acquire, LiveGate, LiveProtocol};
use starlite::{Priority, SimTime};

fn bench_lock_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("locking/lock_table");
    for policy in [QueuePolicy::Fifo, QueuePolicy::Priority] {
        group.bench_function(format!("{policy:?}/contended_cycle"), |b| {
            b.iter(|| {
                let mut table = LockTable::new(policy);
                // 32 transactions contending over 8 objects.
                for t in 0..32u64 {
                    for o in 0..4u32 {
                        let outcome = table.request(
                            TxnId(t),
                            ObjectId((t as u32 + o) % 8),
                            if o % 2 == 0 {
                                LockMode::Read
                            } else {
                                LockMode::Write
                            },
                            Priority::new((t % 5) as i64),
                        );
                        if matches!(outcome, rtdb::LockOutcome::Waiting { .. }) {
                            break; // a blocked transaction stops requesting
                        }
                    }
                }
                let mut woken = 0usize;
                for t in 0..32u64 {
                    woken += table.release_all(TxnId(t)).len();
                }
                woken
            });
        });
    }
    group.finish();
}

fn bench_lock_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("locking/lock_table");
    // The dominant pattern in the simulations: a transaction acquires its
    // read/write set uncontended and releases everything at commit. The
    // grant path must not allocate (inline holder vectors, scratch-buffer
    // conflict checks).
    group.bench_function("uncontended_request_release_64", |b| {
        let mut table = LockTable::new(QueuePolicy::Priority);
        b.iter(|| {
            for t in 0..8u64 {
                for o in 0..8u32 {
                    table.request(
                        TxnId(t),
                        ObjectId(t as u32 * 8 + o),
                        if o % 2 == 0 {
                            LockMode::Read
                        } else {
                            LockMode::Write
                        },
                        Priority::new((t % 5) as i64),
                    );
                }
            }
            let mut woken = 0usize;
            for t in 0..8u64 {
                woken += table.release_all(TxnId(t)).len();
            }
            woken
        });
    });
    // Read-shared object: every transaction holds the same lock, so the
    // holder list grows past the inline capacity and conflict checks scan
    // it on each request.
    group.bench_function("shared_readers_32", |b| {
        let mut table = LockTable::new(QueuePolicy::Priority);
        b.iter(|| {
            for t in 0..32u64 {
                table.request(TxnId(t), ObjectId(0), LockMode::Read, Priority::new(0));
            }
            let mut woken = 0usize;
            for t in 0..32u64 {
                woken += table.release_all(TxnId(t)).len();
            }
            woken
        });
    });
    group.finish();
}

fn bench_ceiling_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("locking/ceiling");
    for active in [16u64, 64] {
        group.bench_function(format!("admission_with_{active}_active"), |b| {
            b.iter(|| {
                let mut pcp = PriorityCeilingProtocol::read_write();
                for t in 0..active {
                    let spec = TxnSpec::new(
                        TxnId(t),
                        SimTime::ZERO,
                        vec![ObjectId((t % 20) as u32)],
                        vec![ObjectId(((t + 7) % 20) as u32 + 20)],
                        SimTime::from_ticks(1_000 + t),
                        SiteId(0),
                    );
                    pcp.register(&spec);
                }
                // Each transaction requests its write object; many will be
                // ceiling-blocked, exercising the admission scan.
                let mut granted = 0usize;
                for t in 0..active {
                    let obj = ObjectId(((t + 7) % 20) as u32 + 20);
                    let r = pcp.request(TxnId(t), obj, LockMode::Write);
                    if matches!(r.outcome, rtlock::protocols::RequestOutcome::Granted) {
                        granted += 1;
                    }
                }
                for t in 0..active {
                    pcp.release_all(TxnId(t), ReleaseReason::Finished);
                }
                granted
            });
        });
    }
    group.finish();
}

fn bench_wfg(c: &mut Criterion) {
    c.bench_function("locking/wfg/cycle_detection_100", |b| {
        b.iter(|| {
            let mut g = WaitsForGraph::new();
            for i in 0..100u64 {
                g.add_edges(TxnId(i), &[TxnId((i + 1) % 100), TxnId((i + 7) % 100)]);
            }
            g.cycle_from(TxnId(0)).is_some()
        });
    });
}

fn bench_live_uncontended(c: &mut Criterion) {
    // The `live-overhead` shape on one thread: a registered transaction
    // reads 16 and writes 16 of 10⁵ objects, then finishes, and the
    // gate's events are taken so its buffer does not grow across
    // iterations — the live lock path through the gate, its uncontended
    // latch and the event buffer, nothing else. One arm per live
    // protocol.
    let mut group = c.benchmark_group("locking/live/uncontended_32");
    group.sample_size(200);
    let txn = TxnId(1);
    let objects: Vec<ObjectId> = (0..32u32).map(|i| ObjectId(i * 3_125)).collect();
    let (reads, writes) = objects.split_at(16);
    let plan: Vec<(ObjectId, LockMode)> = reads
        .iter()
        .map(|&o| (o, LockMode::Read))
        .chain(writes.iter().map(|&o| (o, LockMode::Write)))
        .collect();
    let spec = TxnSpec::new(
        txn,
        SimTime::ZERO,
        reads.to_vec(),
        writes.to_vec(),
        SimTime::from_ticks(1_000_000),
        SiteId(0),
    );
    let deadline = Instant::now() + Duration::from_secs(3_600);

    for protocol in LiveProtocol::all() {
        group.bench_function(protocol.name(), |b| {
            let gate = LiveGate::new(protocol);
            b.iter(|| {
                let mut blocked = 0;
                gate.register(gate.now_ticks(), &spec);
                for &(object, mode) in &plan {
                    let at = gate.now_ticks();
                    let outcome = gate.acquire(at, txn, object, mode, deadline, &mut blocked);
                    assert_eq!(outcome, Acquire::Granted);
                }
                gate.finish(txn, true);
                gate.take_events().len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lock_table,
    bench_lock_fast_path,
    bench_ceiling_admission,
    bench_wfg,
    bench_live_uncontended
);
criterion_main!(benches);
