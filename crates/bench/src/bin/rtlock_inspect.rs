//! `rtlock-inspect` — offline queries over a recorded JSONL trace.
//!
//! Any figure binary records a replayable trace with `--record[=<path>]`
//! (see `rtlock_bench::observe`); this tool answers questions about it
//! after the fact, without re-running the simulation:
//!
//! ```text
//! rtlock-inspect summary               <trace.jsonl>
//! rtlock-inspect top-blockers [--k=N]  <trace.jsonl>
//! rtlock-inspect txn <id>              <trace.jsonl>
//! rtlock-inspect contention --by-object [--k=N] <trace.jsonl>
//! rtlock-inspect misses                <trace.jsonl>
//! ```
//!
//! * `summary` — event counts by kind, simulated time span, transaction
//!   outcomes, blocking and response-time tails.
//! * `top-blockers` — the blocker→blocked edges that cost the most
//!   blocked time, with priority-inversion time broken out.
//! * `txn <id>` — the full event timeline of one transaction (`T7` or
//!   bare `7`).
//! * `contention --by-object` — blocked time attributed per object and
//!   priority band.
//! * `misses` — one explanation line per missed deadline, from the
//!   contention profiler's blocking episodes
//!   (`rtlock_bench::observe::miss_lines`).
//!
//! The trace loader round-trips exactly: replaying a loaded trace through
//! the metrics/profiler sinks reproduces the live run's aggregates.
//!
//! The whole command line is checked before any trace is read. A usage
//! error — an unknown flag or command, a bad `--k` or transaction id, a
//! wrong number of arguments — prints one `error:` line plus the usage
//! and exits 2; a trace that cannot be read or parsed, or a `txn` absent
//! from it, prints one `error:` line and exits 1.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use monitor::profile::BAND_NAMES;
use monitor::{
    read_jsonl, ContentionProfiler, MetricsSink, SimEvent, SimEventKind, EVENT_KIND_COUNT,
};
use rtdb::TxnId;
use rtlock_bench::observe::miss_lines;
use starlite::{EventSink, SimTime};

/// `println!` that exits quietly when the reader closes the pipe, so
/// `rtlock-inspect summary trace.jsonl | head` ends cleanly instead of
/// panicking on the broken pipe.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn usage() -> &'static str {
    concat!(
        "usage: rtlock-inspect <command> [flags] <trace.jsonl>\n",
        "commands:\n",
        "  summary                  counts, time span, outcomes, tails\n",
        "  top-blockers [--k=N]     costliest blocker->blocked edges\n",
        "  txn <id>                 one transaction's event timeline\n",
        "  contention --by-object [--k=N]  blocked time per object\n",
        "  misses                   explain every missed deadline",
    )
}

/// One checked query.
enum Query {
    Summary,
    TopBlockers,
    Txn(TxnId),
    Contention,
    Misses,
}

struct Args {
    query: Query,
    path: String,
    k: usize,
}

/// Parses and checks the whole command line; every error is a usage
/// error.
fn parse_args() -> Result<Args, String> {
    let mut positionals = Vec::new();
    let mut k = 10usize;
    let mut by_object = false;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--k=") {
            k = v
                .parse()
                .map_err(|_| format!("--k needs a positive integer, got {v:?}"))?;
            if k == 0 {
                return Err("--k needs a positive integer".into());
            }
        } else if arg == "--by-object" {
            by_object = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}"));
        } else {
            positionals.push(arg);
        }
    }
    let Some((command, rest)) = positionals.split_first() else {
        return Err("missing command".into());
    };
    let (query, path) = match (command.as_str(), rest) {
        ("summary", [path]) => (Query::Summary, path),
        ("top-blockers", [path]) => (Query::TopBlockers, path),
        ("contention", [path]) if by_object => (Query::Contention, path),
        ("contention", [_]) => return Err("contention currently requires --by-object".into()),
        ("misses", [path]) => (Query::Misses, path),
        ("txn", [id, path]) => (Query::Txn(parse_txn(id)?), path),
        ("txn", _) => return Err("txn takes a transaction id and a trace path".into()),
        ("summary" | "top-blockers" | "contention" | "misses", _) => {
            return Err(format!("{command} takes exactly one trace path"));
        }
        (other, _) => return Err(format!("unknown command {other:?}")),
    };
    Ok(Args {
        query,
        path: path.clone(),
        k,
    })
}

/// A transaction id, `T7` or bare `7`.
fn parse_txn(id: &str) -> Result<TxnId, String> {
    let digits = id.strip_prefix('T').unwrap_or(id);
    digits
        .parse()
        .map(TxnId)
        .map_err(|_| format!("transaction id must be T<n> or <n>, got {id:?}"))
}

fn load(path: &str) -> Result<Vec<(SimTime, SimEvent)>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_jsonl(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn span(events: &[(SimTime, SimEvent)]) -> (u64, u64) {
    match (events.first(), events.last()) {
        (Some(&(first, _)), Some(&(last, _))) => (first.ticks(), last.ticks()),
        _ => (0, 0),
    }
}

fn summary(events: &[(SimTime, SimEvent)]) {
    let mut metrics = MetricsSink::new();
    let mut sites = std::collections::BTreeSet::new();
    let mut txns = std::collections::BTreeSet::new();
    for &(at, ev) in events {
        metrics.emit(at, ev);
        sites.insert(ev.site);
        if let Some(txn) = ev.kind.txn() {
            txns.insert(txn);
        }
    }
    let (first, last) = span(events);
    // Saturating: a hand-edited trace may not be time-sorted.
    out!(
        "trace: {} events over {} ticks",
        events.len(),
        last.saturating_sub(first)
    );
    out!(
        "sites: {}   transactions: {}   span: [{first}, {last}]",
        sites.len(),
        txns.len()
    );

    // Count by kind name; iterate the index space so the order is the
    // declaration order of SimEventKind, not hash order.
    let mut names = [""; EVENT_KIND_COUNT];
    for &(_, ev) in events {
        names[ev.kind.index()] = ev.kind.name();
    }
    out!("\nevents by kind:");
    for (i, name) in names.iter().enumerate() {
        let count = metrics.count_of(i);
        if count > 0 {
            out!("  {name:<20} {count}");
        }
    }

    let blocking = metrics.blocking();
    let response = metrics.response();
    out!("\nblocking episodes: {}", blocking.count());
    if blocking.count() > 0 {
        out!(
            "  total {} ticks, mean {:.1}, p50 {}, p95 {}, p99 {}, max {}",
            blocking.total(),
            blocking.mean(),
            blocking.percentile(50),
            blocking.percentile(95),
            blocking.percentile(99),
            blocking.max()
        );
    }
    out!("committed response times: {}", response.count());
    if response.count() > 0 {
        out!(
            "  mean {:.1}, p50 {}, p95 {}, p99 {}, max {}",
            response.mean(),
            response.percentile(50),
            response.percentile(95),
            response.percentile(99),
            response.max()
        );
    }
}

fn replay_profiler(events: &[(SimTime, SimEvent)]) -> ContentionProfiler {
    let mut profiler = ContentionProfiler::new();
    for &(at, ev) in events {
        profiler.emit(at, ev);
    }
    profiler
}

fn top_blockers(events: &[(SimTime, SimEvent)], k: usize) {
    let report = replay_profiler(events).finish(k);
    if report.edges.is_empty() {
        out!("no blocking edges in this trace");
        return;
    }
    out!(
        "top blocking edges (of {} episodes, {} blocked ticks total):",
        report.episodes,
        report.total_blocked_ticks
    );
    out!(
        "{:>8} -> {:<8} {:>8} {:>12} {:>16}",
        "blocker",
        "blocked",
        "count",
        "ticks",
        "inversion_ticks"
    );
    for e in &report.edges {
        out!(
            "{:>8} -> {:<8} {:>8} {:>12} {:>16}",
            e.blocker.to_string(),
            e.blocked.to_string(),
            e.count,
            e.ticks,
            e.inversion_ticks
        );
    }
    out!(
        "\nhot objects: {}   longest chain: {} (mean {:.2})",
        report.hot_objects_line(k.min(3)),
        report.chain.max_depth,
        report.chain.mean_depth()
    );
}

fn txn_timeline(events: &[(SimTime, SimEvent)], txn: TxnId) -> Result<(), String> {
    let mut shown = 0u64;
    let mut blocked_since: Option<SimTime> = None;
    let mut blocked_ticks = 0u64;
    for &(at, ev) in events {
        if ev.kind.txn() != Some(txn) {
            continue;
        }
        shown += 1;
        out!("{:>12} {} {}", at.ticks(), ev.site, ev.kind);
        match ev.kind {
            SimEventKind::LockBlocked { .. } | SimEventKind::CeilingBlocked { .. } => {
                blocked_since.get_or_insert(at);
            }
            SimEventKind::LockGranted { .. }
            | SimEventKind::LockUpgraded { .. }
            | SimEventKind::TxnAborted { .. } => {
                if let Some(since) = blocked_since.take() {
                    blocked_ticks =
                        blocked_ticks.saturating_add(at.saturating_since(since).ticks());
                }
            }
            _ => {}
        }
    }
    if shown == 0 {
        return Err(format!("{txn} does not appear in this trace"));
    }
    out!("\n{txn}: {shown} events, {blocked_ticks} ticks blocked");
    Ok(())
}

fn contention(events: &[(SimTime, SimEvent)], k: usize) {
    let report = replay_profiler(events).finish(k);
    if report.objects.is_empty() {
        out!("no contention in this trace");
        return;
    }
    out!(
        "blocked time by object ({} contended object(s), {} ticks total):",
        report.contended_objects,
        report.total_blocked_ticks
    );
    out!(
        "{:>8} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "object",
        "ticks",
        "episodes",
        "ceiling",
        BAND_NAMES[0],
        BAND_NAMES[1],
        BAND_NAMES[2]
    );
    for o in &report.objects {
        out!(
            "{:>8} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8}",
            o.object.to_string(),
            o.blocked_ticks,
            o.episodes,
            o.ceiling_episodes,
            o.by_band[0],
            o.by_band[1],
            o.by_band[2]
        );
    }
}

fn misses(events: &[(SimTime, SimEvent)]) {
    let lines = miss_lines(events);
    if lines.is_empty() {
        out!("no missed deadlines in this trace");
        return;
    }
    for line in lines {
        out!("{line}");
    }
}

/// Answers a checked query from its trace.
fn run(args: &Args) -> Result<(), String> {
    let events = load(&args.path)?;
    match args.query {
        Query::Summary => summary(&events),
        Query::TopBlockers => top_blockers(&events, args.k),
        Query::Txn(txn) => return txn_timeline(&events, txn),
        Query::Contention => contention(&events, args.k),
        Query::Misses => misses(&events),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
