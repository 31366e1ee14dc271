//! Micro-benchmarks of the simulation kernel: event queue throughput and
//! CPU scheduling operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use starlite::{
    Completion, Cpu, CpuPolicy, Engine, EventId, HeapQueue, Model, Priority, Scheduler,
    SimDuration, SimTime,
};

struct Ping {
    remaining: u64,
}

enum Ev {
    Tick,
}

impl Model for Ping {
    type Event = Ev;
    fn handle(&mut self, _ev: Ev, sched: &mut Scheduler<Ev>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_after(SimDuration::from_ticks(1), Ev::Tick);
        }
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/event_queue");
    for &n in &[1_000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("chain", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = Engine::new(Ping { remaining: n });
                engine.scheduler_mut().schedule(SimTime::ZERO, Ev::Tick);
                engine.run_to_completion(None)
            });
        });
        group.bench_with_input(BenchmarkId::new("preloaded", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = Engine::new(Ping { remaining: 0 });
                for i in 0..n {
                    engine
                        .scheduler_mut()
                        .schedule(SimTime::from_ticks(i % 97), Ev::Tick);
                }
                engine.run_to_completion(None)
            });
        });
    }
    group.finish();
}

fn bench_schedule_cancel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/event_queue");
    for &n in &[1_000u64, 10_000] {
        // Cancel-heavy workload: half the scheduled events are cancelled
        // before the queue drains, exercising O(1) cancellation, tombstone
        // skipping at pop, and the periodic heap purge.
        group.bench_with_input(BenchmarkId::new("schedule_cancel_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = Engine::new(Ping { remaining: 0 });
                let mut ids = Vec::with_capacity(n as usize);
                for i in 0..n {
                    ids.push(
                        engine
                            .scheduler_mut()
                            .schedule(SimTime::from_ticks(i % 257), Ev::Tick),
                    );
                }
                let mut cancelled = 0u64;
                for id in ids.into_iter().step_by(2) {
                    cancelled += u64::from(engine.scheduler_mut().cancel(id));
                }
                engine.run_to_completion(None) + cancelled
            });
        });
    }
    group.finish();
}

/// Raw-queue benchmarks of the engine's heap-plus-lane queue on the access
/// patterns the simulators generate.
fn bench_queue_patterns(c: &mut Criterion) {
    // Dense near-future: every event lands within 61 ticks of now, the
    // common case for CPU burst completions.
    fn dense(n: u64) -> u64 {
        let mut q = HeapQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_ticks(i % 61), i as u32);
        }
        let mut fired = 0;
        while q.pop_next().is_some() {
            fired += 1;
        }
        fired
    }

    // Cancel-heavy churn at steady state: a sliding window of pending
    // timers (deadline timers, I/O timeouts) where most are cancelled
    // before they fire and new ones arrive as old ones resolve.
    fn churn(n: u64) -> u64 {
        let mut q = HeapQueue::new();
        let mut window: Vec<EventId> = Vec::new();
        let mut cancelled = 0u64;
        for i in 0..n {
            let at = q.now() + SimDuration::from_ticks(500 + i % 97);
            window.push(q.schedule(at, i as u32));
            if window.len() >= 64 {
                // Cancel three-quarters of the oldest window, fire the rest.
                for (k, id) in window.drain(..48).enumerate() {
                    if k % 4 != 0 {
                        cancelled += u64::from(q.cancel(id));
                    }
                }
                let horizon = q.now() + SimDuration::from_ticks(100);
                while q.next_event_time().is_some_and(|t| t <= horizon) {
                    q.pop_next();
                }
            }
        }
        while q.pop_next().is_some() {}
        cancelled
    }

    // Far-future outliers: mostly near-future traffic with a tail of
    // events parked millions of ticks out (retransmission backstops,
    // far deadlines).
    fn outliers(n: u64) -> u64 {
        let mut q = HeapQueue::new();
        for i in 0..n {
            let delta = if i % 16 == 0 { 9_999_991 } else { i % 127 };
            q.schedule(SimTime::from_ticks(delta), i as u32);
        }
        let mut fired = 0;
        while q.pop_next().is_some() {
            fired += 1;
        }
        fired
    }

    // The simulators' traffic: `n` time-sorted arrivals scheduled up
    // front. Each fired arrival schedules a deadline 60k ticks out and
    // one I/O (+500) or CPU (+1,000) completion, which cancels the
    // deadline for 94 % of arrivals (about the paper-grid miss rate of
    // 6 %). Arrivals 10k ticks apart leave about seven keys in the heap
    // beside the pending arrivals.
    fn arrivals(n: u64) -> u64 {
        enum Ev {
            Arrival(u64),
            Completion(Option<EventId>),
            Deadline,
        }
        let mut q = HeapQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_ticks(i * 10_000), Ev::Arrival(i));
        }
        let mut fired = 0;
        while let Some(ev) = q.pop_next() {
            fired += 1;
            let now = q.now();
            match ev {
                Ev::Arrival(i) => {
                    let deadline = q.schedule(now + SimDuration::from_ticks(60_000), Ev::Deadline);
                    let service = if i % 2 == 0 { 500 } else { 1_000 };
                    let cancel = (i % 50 >= 3).then_some(deadline);
                    q.schedule(
                        now + SimDuration::from_ticks(service),
                        Ev::Completion(cancel),
                    );
                }
                Ev::Completion(Some(deadline)) => {
                    q.cancel(deadline);
                }
                Ev::Completion(None) | Ev::Deadline => {}
            }
        }
        fired
    }

    let mut group = c.benchmark_group("kernel/queue_patterns");
    for &n in &[1_000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, &n| {
            b.iter(|| dense(n))
        });
        group.bench_with_input(BenchmarkId::new("churn", n), &n, |b, &n| {
            b.iter(|| churn(n))
        });
        group.bench_with_input(BenchmarkId::new("outliers", n), &n, |b, &n| {
            b.iter(|| outliers(n))
        });
        group.bench_with_input(BenchmarkId::new("arrivals", n), &n, |b, &n| {
            b.iter(|| arrivals(n))
        });
    }
    group.finish();
}

fn bench_cpu_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/cpu");
    for policy in [CpuPolicy::PreemptivePriority, CpuPolicy::Fcfs] {
        group.bench_function(format!("{policy:?}/submit_complete_64"), |b| {
            b.iter(|| {
                let mut cpu: Cpu<u32> = Cpu::new(policy);
                let mut timers: Vec<(SimTime, starlite::CpuToken)> = Vec::new();
                for i in 0..64u32 {
                    if let Some(burst) = cpu.submit(
                        i,
                        Priority::new((i % 7) as i64),
                        SimDuration::from_ticks(1_000),
                        SimTime::from_ticks(i as u64),
                    ) {
                        timers.push((burst.finish_at, burst.token));
                    }
                }
                let mut done = 0u32;
                while !timers.is_empty() {
                    timers.sort_by_key(|&(t, _)| t);
                    let (at, token) = timers.remove(0);
                    if let Completion::Finished { next, .. } = cpu.complete(token, at) {
                        done += 1;
                        if let Some(b2) = next {
                            timers.push((b2.finish_at, b2.token));
                        }
                    }
                }
                done
            });
        });
    }
    group.finish();
}

fn bench_cpu_ready_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/cpu");
    for &n in &[64u32, 512] {
        // A deep ready queue with priority churn: the inheritance path
        // (set_priority) and dispatch both pay O(log n) on the heap where
        // the old implementation scanned the whole ready vector.
        group.bench_with_input(BenchmarkId::new("ready_churn", n), &n, |b, &n| {
            b.iter(|| {
                let mut cpu: Cpu<u32> = Cpu::new(CpuPolicy::PreemptivePriority);
                let now = SimTime::ZERO;
                let mut running = cpu
                    .submit(0, Priority::new(100), SimDuration::from_ticks(10), now)
                    .expect("idle CPU starts");
                for i in 1..n {
                    cpu.submit(
                        i,
                        Priority::new((i % 13) as i64),
                        SimDuration::from_ticks(10),
                        now,
                    );
                }
                // Churn priorities across the ready queue, then drain.
                for i in 1..n {
                    if let Some(b2) = cpu.set_priority(i, Priority::new((i % 29) as i64), now) {
                        running = b2;
                    }
                }
                let mut done = 0u32;
                loop {
                    match cpu.complete(running.token, running.finish_at) {
                        Completion::Finished { next: Some(b2), .. } => {
                            done += 1;
                            running = b2;
                        }
                        Completion::Finished { next: None, .. } => {
                            done += 1;
                            break;
                        }
                        Completion::Stale => unreachable!("only live tokens are completed"),
                    }
                }
                done
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_schedule_cancel,
    bench_queue_patterns,
    bench_cpu_scheduler,
    bench_cpu_ready_queue
);
criterion_main!(benches);
