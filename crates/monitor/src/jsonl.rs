//! Persistent, replayable event traces: JSON Lines writer and loader.
//!
//! The Chrome trace exporter ([`crate::ChromeTraceSink`]) renders events
//! for a human in a viewer; this module renders them for *machines*: one
//! self-contained JSON object per line, every field of every
//! [`SimEventKind`] variant serialized explicitly, and a loader
//! ([`read_jsonl`]) that reconstructs the exact `(SimTime, SimEvent)`
//! stream — `write → read` round-trips the sequence bit for bit. That
//! exactness is what lets `rtlock-inspect` answer queries offline with
//! the same sinks (`MetricsSink`, `ContentionProfiler`) that run online.
//!
//! Line shape: `{"t":<ticks>,"site":<u8>,"kind":"<name>",<kind fields>}`.
//! Field spellings are part of the trace format and documented in
//! DESIGN.md §13; optional transaction references serialize as `null`.

use std::io::{self, BufRead, Write};

use rtdb::{LockMode, ObjectId, SiteId, TxnId};
use starlite::{EventSink, Priority, SimTime};

use crate::events::{push_json_string, AbortReason, SimEvent, SimEventKind};

fn reason_name(reason: AbortReason) -> &'static str {
    match reason {
        AbortReason::DeadlineMissed => "DeadlineMissed",
        AbortReason::DeadlockVictim => "DeadlockVictim",
        AbortReason::SiteFailed => "SiteFailed",
    }
}

fn push_opt_txn(out: &mut String, key: &str, txn: Option<TxnId>) {
    match txn {
        Some(t) => out.push_str(&format!(",\"{key}\":{}", t.0)),
        None => out.push_str(&format!(",\"{key}\":null")),
    }
}

/// Appends one event as a single JSONL line (including the trailing
/// newline) to `out`.
pub fn write_jsonl_line(out: &mut String, at: SimTime, event: &SimEvent) {
    out.push_str(&format!(
        "{{\"t\":{},\"site\":{},\"kind\":\"{}\"",
        at.ticks(),
        event.site.0,
        event.kind.name()
    ));
    match event.kind {
        SimEventKind::TxnArrived { txn, priority } => {
            out.push_str(&format!(
                ",\"txn\":{},\"priority\":{}",
                txn.0,
                priority.level()
            ));
        }
        SimEventKind::TxnStarted { txn }
        | SimEventKind::TxnCommitted { txn }
        | SimEventKind::Dispatched { txn }
        | SimEventKind::Preempted { txn } => {
            out.push_str(&format!(",\"txn\":{}", txn.0));
        }
        SimEventKind::TxnAborted { txn, reason } => {
            out.push_str(&format!(
                ",\"txn\":{},\"reason\":\"{}\"",
                txn.0,
                reason_name(reason)
            ));
        }
        SimEventKind::LockRequested { txn, object, mode }
        | SimEventKind::LockGranted { txn, object, mode } => {
            out.push_str(&format!(
                ",\"txn\":{},\"object\":{},\"mode\":\"{}\"",
                txn.0,
                object.0,
                if mode == LockMode::Write { "W" } else { "R" }
            ));
        }
        SimEventKind::LockBlocked {
            txn,
            object,
            mode,
            blocker,
        } => {
            out.push_str(&format!(
                ",\"txn\":{},\"object\":{},\"mode\":\"{}\"",
                txn.0,
                object.0,
                if mode == LockMode::Write { "W" } else { "R" }
            ));
            push_opt_txn(out, "blocker", blocker);
        }
        SimEventKind::LockReleased { txn, object } | SimEventKind::LockUpgraded { txn, object } => {
            out.push_str(&format!(",\"txn\":{},\"object\":{}", txn.0, object.0));
        }
        SimEventKind::CeilingRaised {
            txn,
            object,
            ceiling,
        } => {
            out.push_str(&format!(
                ",\"txn\":{},\"object\":{},\"ceiling\":{}",
                txn.0,
                object.0,
                ceiling.level()
            ));
        }
        SimEventKind::CeilingBlocked {
            txn,
            object,
            blocker,
        } => {
            out.push_str(&format!(",\"txn\":{},\"object\":{}", txn.0, object.0));
            push_opt_txn(out, "blocker", blocker);
        }
        SimEventKind::PriorityInherited { txn, priority } => {
            out.push_str(&format!(
                ",\"txn\":{},\"priority\":{}",
                txn.0,
                priority.level()
            ));
        }
        SimEventKind::MsgSent { from, to }
        | SimEventKind::MsgDelivered { from, to }
        | SimEventKind::MsgDuplicated { from, to } => {
            out.push_str(&format!(",\"from\":{},\"to\":{}", from.0, to.0));
        }
        SimEventKind::MsgDropped {
            from,
            to,
            in_flight,
        } => {
            out.push_str(&format!(
                ",\"from\":{},\"to\":{},\"in_flight\":{in_flight}",
                from.0, to.0
            ));
        }
        SimEventKind::DeadlockDetected { victim } => {
            out.push_str(&format!(",\"victim\":{}", victim.0));
        }
        SimEventKind::SiteCrashed | SimEventKind::SiteRecovered => {}
        SimEventKind::RpcRetried { txn, attempt } => {
            out.push_str(&format!(",\"txn\":{},\"attempt\":{attempt}", txn.0));
        }
        SimEventKind::ReplicaRepaired { object } => {
            out.push_str(&format!(",\"object\":{}", object.0));
        }
        SimEventKind::ProtocolAnomaly { txn, detail } => {
            push_opt_txn(out, "txn", txn);
            out.push_str(",\"detail\":");
            push_json_string(out, detail);
        }
        SimEventKind::TwoPcStarted { txn, participants } => {
            out.push_str(&format!(
                ",\"txn\":{},\"participants\":{participants}",
                txn.0
            ));
        }
        SimEventKind::TwoPcVoted { txn, yes } => {
            out.push_str(&format!(",\"txn\":{},\"yes\":{yes}", txn.0));
        }
        SimEventKind::TwoPcDecided { txn, commit } => {
            out.push_str(&format!(",\"txn\":{},\"commit\":{commit}", txn.0));
        }
        SimEventKind::TwoPcResolved { txn, commit } => {
            out.push_str(&format!(",\"txn\":{},\"commit\":{commit}", txn.0));
        }
        SimEventKind::VersionInstalled {
            object,
            version,
            writer,
        } => {
            out.push_str(&format!(
                ",\"object\":{},\"version\":{version},\"writer\":{}",
                object.0, writer.0
            ));
        }
        SimEventKind::SnapshotPinned { txn, pin } => {
            out.push_str(&format!(",\"txn\":{},\"pin\":{}", txn.0, pin.ticks()));
        }
        SimEventKind::SnapshotRead {
            txn,
            object,
            version,
        } => {
            out.push_str(&format!(
                ",\"txn\":{},\"object\":{},\"version\":{version}",
                txn.0, object.0
            ));
        }
        SimEventKind::VersionGced { object, through } => {
            out.push_str(&format!(",\"object\":{},\"through\":{through}", object.0));
        }
        SimEventKind::RangeLatchAcquired { txn, lo, hi, mode } => {
            out.push_str(&format!(
                ",\"txn\":{},\"lo\":{},\"hi\":{},\"mode\":\"{}\"",
                txn.0,
                lo.0,
                hi.0,
                if mode == LockMode::Write { "W" } else { "R" }
            ));
        }
        SimEventKind::RangeLatchBlocked {
            txn,
            lo,
            hi,
            blocker,
        } => {
            out.push_str(&format!(
                ",\"txn\":{},\"lo\":{},\"hi\":{}",
                txn.0, lo.0, hi.0
            ));
            push_opt_txn(out, "blocker", blocker);
        }
        SimEventKind::RangeLatchReleased { txn } => {
            out.push_str(&format!(",\"txn\":{}", txn.0));
        }
    }
    out.push_str("}\n");
}

/// Streaming JSONL trace writer: one line per event, flushed through the
/// wrapped [`io::Write`], so recording a million-transaction run stays
/// bounded-memory.
///
/// `emit` cannot return errors; the first I/O failure is latched and
/// reported by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    count: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (use a `BufWriter` for files).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: String::new(),
            count: 0,
            error: None,
        }
    }

    /// Number of events written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes and returns the wrapped writer, or the first I/O error
    /// encountered while recording.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> EventSink<SimEvent> for JsonlSink<W> {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        write_jsonl_line(&mut self.buf, at, &event);
        self.count += 1;
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }
}

/// Renders a buffered event stream to JSONL text (the in-memory analogue
/// of [`JsonlSink`], convenient for tests and goldens).
pub fn to_jsonl(events: &[(SimTime, SimEvent)]) -> String {
    let mut out = String::new();
    for (at, ev) in events {
        write_jsonl_line(&mut out, *at, ev);
    }
    out
}

// ----- loader ------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(i128),
    Bool(bool),
    Str(String),
    Null,
}

/// One parsed line: field lookup by key.
struct Fields {
    pairs: Vec<(String, Val)>,
}

impl Fields {
    fn get(&self, key: &str) -> io::Result<&Val> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| bad(format!("missing field {key:?}")))
    }

    fn u64(&self, key: &str) -> io::Result<u64> {
        match self.get(key)? {
            Val::Num(n) if *n >= 0 && *n <= u64::MAX as i128 => Ok(*n as u64),
            v => Err(bad(format!("field {key:?} is not a u64: {v:?}"))),
        }
    }

    fn i64(&self, key: &str) -> io::Result<i64> {
        match self.get(key)? {
            Val::Num(n) if *n >= i64::MIN as i128 && *n <= i64::MAX as i128 => Ok(*n as i64),
            v => Err(bad(format!("field {key:?} is not an i64: {v:?}"))),
        }
    }

    fn bool(&self, key: &str) -> io::Result<bool> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            v => Err(bad(format!("field {key:?} is not a bool: {v:?}"))),
        }
    }

    fn str(&self, key: &str) -> io::Result<&str> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            v => Err(bad(format!("field {key:?} is not a string: {v:?}"))),
        }
    }

    fn opt_txn(&self, key: &str) -> io::Result<Option<TxnId>> {
        match self.get(key)? {
            Val::Null => Ok(None),
            Val::Num(n) if *n >= 0 && *n <= u64::MAX as i128 => Ok(Some(TxnId(*n as u64))),
            v => Err(bad(format!("field {key:?} is not a txn id: {v:?}"))),
        }
    }

    fn txn(&self, key: &str) -> io::Result<TxnId> {
        Ok(TxnId(self.u64(key)?))
    }

    fn u32(&self, key: &str) -> io::Result<u32> {
        match self.u64(key)? {
            n if n <= u32::MAX as u64 => Ok(n as u32),
            n => Err(bad(format!("field {key:?} out of range for u32: {n}"))),
        }
    }

    fn object(&self, key: &str) -> io::Result<ObjectId> {
        match self.u64(key)? {
            n if n <= u32::MAX as u64 => Ok(ObjectId(n as u32)),
            n => Err(bad(format!("field {key:?} out of range for object: {n}"))),
        }
    }

    fn site(&self, key: &str) -> io::Result<SiteId> {
        match self.u64(key)? {
            n if n <= u8::MAX as u64 => Ok(SiteId(n as u8)),
            n => Err(bad(format!("field {key:?} out of range for site: {n}"))),
        }
    }

    fn mode(&self, key: &str) -> io::Result<LockMode> {
        match self.str(key)? {
            "R" => Ok(LockMode::Read),
            "W" => Ok(LockMode::Write),
            s => Err(bad(format!("unknown lock mode {s:?}"))),
        }
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A minimal single-line JSON-object parser covering exactly the value
/// shapes [`write_jsonl_line`] produces: integers, booleans, `null`, and
/// strings with `\" \\ \uXXXX` escapes (surrogate pairs combined, lone
/// surrogates rejected). The vendored serde has no JSON deserializer
/// backend, so the trace format carries its own. Input is raw bytes —
/// trace files are untrusted, so every malformed shape (bad UTF-8,
/// truncated escapes, embedded control bytes) must come back as a clean
/// [`io::ErrorKind::InvalidData`], never a panic.
fn parse_line(line: &[u8]) -> io::Result<Fields> {
    let mut p = Parser { s: line, pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            pairs.push((key, val));
            p.skip_ws();
            match p.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(bad(format!("expected ',' or '}}', got {:?}", c as char))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(bad("trailing bytes after object".into()));
    }
    Ok(Fields { pairs })
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn next(&mut self) -> io::Result<u8> {
        let c = self
            .peek()
            .ok_or_else(|| bad("unexpected end of line".into()))?;
        self.pos += 1;
        Ok(c)
    }

    fn expect(&mut self, want: u8) -> io::Result<()> {
        match self.next()? {
            c if c == want => Ok(()),
            c => Err(bad(format!(
                "expected {:?}, got {:?}",
                want as char, c as char
            ))),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Four hex digits of a `\uXXXX` escape (the `\u` already consumed).
    fn hex4(&mut self) -> io::Result<u32> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = (self.next()? as char)
                .to_digit(16)
                .ok_or_else(|| bad("bad \\u escape".into()))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn string(&mut self) -> io::Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let code = self.hex4()?;
                        let c = match code {
                            // High surrogate: JSON encodes astral-plane
                            // characters as a `\uD8xx\uDCxx` pair; combine
                            // it. Anything else after is a lone surrogate,
                            // which no Rust string can hold — reject.
                            0xD800..=0xDBFF => {
                                if self.next()? != b'\\' || self.next()? != b'u' {
                                    return Err(bad(format!("lone high surrogate \\u{code:04x}")));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(bad(format!(
                                        "invalid surrogate pair \\u{code:04x}\\u{low:04x}"
                                    )));
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                                    .ok_or_else(|| bad("bad surrogate pair".into()))?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(bad(format!("lone low surrogate \\u{code:04x}")))
                            }
                            _ => char::from_u32(code)
                                .ok_or_else(|| bad("bad \\u code point".into()))?,
                        };
                        out.push(c);
                    }
                    c => return Err(bad(format!("bad escape \\{:?}", c as char))),
                },
                // The writer escapes every control character (including
                // NUL) as `\u00xx`, so a raw one is corruption.
                c if c < 0x20 => {
                    return Err(bad(format!("unescaped control byte 0x{c:02x} in string")))
                }
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = start + len;
                    let chunk = self
                        .s
                        .get(start..end)
                        .ok_or_else(|| bad("truncated UTF-8".into()))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| bad("invalid UTF-8".into()))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> io::Result<Val> {
        match self
            .peek()
            .ok_or_else(|| bad("unexpected end of line".into()))?
        {
            b'"' => Ok(Val::Str(self.string()?)),
            b't' => self.literal("true").map(|_| Val::Bool(true)),
            b'f' => self.literal("false").map(|_| Val::Bool(false)),
            b'n' => self.literal("null").map(|_| Val::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                // The slice is ASCII sign/digits by construction, but a
                // corrupt trace must never panic — propagate instead.
                let text = std::str::from_utf8(&self.s[start..self.pos])
                    .map_err(|_| bad("bad number: invalid UTF-8".into()))?;
                text.parse::<i128>()
                    .map(Val::Num)
                    .map_err(|_| bad(format!("bad number {text:?}")))
            }
            c => Err(bad(format!("unexpected value start {:?}", c as char))),
        }
    }

    fn literal(&mut self, lit: &str) -> io::Result<()> {
        for &b in lit.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }
}

fn kind_from(fields: &Fields) -> io::Result<SimEventKind> {
    Ok(match fields.str("kind")? {
        "TxnArrived" => SimEventKind::TxnArrived {
            txn: fields.txn("txn")?,
            priority: Priority::new(fields.i64("priority")?),
        },
        "TxnStarted" => SimEventKind::TxnStarted {
            txn: fields.txn("txn")?,
        },
        "TxnCommitted" => SimEventKind::TxnCommitted {
            txn: fields.txn("txn")?,
        },
        "TxnAborted" => SimEventKind::TxnAborted {
            txn: fields.txn("txn")?,
            reason: match fields.str("reason")? {
                "DeadlineMissed" => AbortReason::DeadlineMissed,
                "DeadlockVictim" => AbortReason::DeadlockVictim,
                "SiteFailed" => AbortReason::SiteFailed,
                s => return Err(bad(format!("unknown abort reason {s:?}"))),
            },
        },
        "LockRequested" => SimEventKind::LockRequested {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
            mode: fields.mode("mode")?,
        },
        "LockGranted" => SimEventKind::LockGranted {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
            mode: fields.mode("mode")?,
        },
        "LockBlocked" => SimEventKind::LockBlocked {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
            mode: fields.mode("mode")?,
            blocker: fields.opt_txn("blocker")?,
        },
        "LockReleased" => SimEventKind::LockReleased {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
        },
        "LockUpgraded" => SimEventKind::LockUpgraded {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
        },
        "CeilingRaised" => SimEventKind::CeilingRaised {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
            ceiling: Priority::new(fields.i64("ceiling")?),
        },
        "CeilingBlocked" => SimEventKind::CeilingBlocked {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
            blocker: fields.opt_txn("blocker")?,
        },
        "PriorityInherited" => SimEventKind::PriorityInherited {
            txn: fields.txn("txn")?,
            priority: Priority::new(fields.i64("priority")?),
        },
        "Dispatched" => SimEventKind::Dispatched {
            txn: fields.txn("txn")?,
        },
        "Preempted" => SimEventKind::Preempted {
            txn: fields.txn("txn")?,
        },
        "MsgSent" => SimEventKind::MsgSent {
            from: fields.site("from")?,
            to: fields.site("to")?,
        },
        "MsgDelivered" => SimEventKind::MsgDelivered {
            from: fields.site("from")?,
            to: fields.site("to")?,
        },
        "DeadlockDetected" => SimEventKind::DeadlockDetected {
            victim: fields.txn("victim")?,
        },
        "MsgDropped" => SimEventKind::MsgDropped {
            from: fields.site("from")?,
            to: fields.site("to")?,
            in_flight: fields.bool("in_flight")?,
        },
        "MsgDuplicated" => SimEventKind::MsgDuplicated {
            from: fields.site("from")?,
            to: fields.site("to")?,
        },
        "SiteCrashed" => SimEventKind::SiteCrashed,
        "SiteRecovered" => SimEventKind::SiteRecovered,
        "RpcRetried" => SimEventKind::RpcRetried {
            txn: fields.txn("txn")?,
            attempt: fields.u32("attempt")?,
        },
        "ReplicaRepaired" => SimEventKind::ReplicaRepaired {
            object: fields.object("object")?,
        },
        "ProtocolAnomaly" => SimEventKind::ProtocolAnomaly {
            txn: fields.opt_txn("txn")?,
            // The in-memory event carries a `&'static str`; a loaded trace
            // leaks each distinct detail string once. Anomaly details come
            // from a tiny fixed set of literals, and the loader is an
            // offline tool, so the leak is bounded and deliberate.
            detail: Box::leak(fields.str("detail")?.to_owned().into_boxed_str()),
        },
        "TwoPcStarted" => SimEventKind::TwoPcStarted {
            txn: fields.txn("txn")?,
            participants: fields.u32("participants")?,
        },
        "TwoPcVoted" => SimEventKind::TwoPcVoted {
            txn: fields.txn("txn")?,
            yes: fields.bool("yes")?,
        },
        "TwoPcDecided" => SimEventKind::TwoPcDecided {
            txn: fields.txn("txn")?,
            commit: fields.bool("commit")?,
        },
        "TwoPcResolved" => SimEventKind::TwoPcResolved {
            txn: fields.txn("txn")?,
            commit: fields.bool("commit")?,
        },
        "VersionInstalled" => SimEventKind::VersionInstalled {
            object: fields.object("object")?,
            version: fields.u64("version")?,
            writer: fields.txn("writer")?,
        },
        "SnapshotPinned" => SimEventKind::SnapshotPinned {
            txn: fields.txn("txn")?,
            pin: SimTime::from_ticks(fields.u64("pin")?),
        },
        "SnapshotRead" => SimEventKind::SnapshotRead {
            txn: fields.txn("txn")?,
            object: fields.object("object")?,
            version: fields.u64("version")?,
        },
        "VersionGced" => SimEventKind::VersionGced {
            object: fields.object("object")?,
            through: fields.u64("through")?,
        },
        "RangeLatchAcquired" => SimEventKind::RangeLatchAcquired {
            txn: fields.txn("txn")?,
            lo: fields.object("lo")?,
            hi: fields.object("hi")?,
            mode: fields.mode("mode")?,
        },
        "RangeLatchBlocked" => SimEventKind::RangeLatchBlocked {
            txn: fields.txn("txn")?,
            lo: fields.object("lo")?,
            hi: fields.object("hi")?,
            blocker: fields.opt_txn("blocker")?,
        },
        "RangeLatchReleased" => SimEventKind::RangeLatchReleased {
            txn: fields.txn("txn")?,
        },
        s => return Err(bad(format!("unknown event kind {s:?}"))),
    })
}

/// Loads a JSONL trace back into the exact `(SimTime, SimEvent)` stream
/// [`JsonlSink`] recorded. Blank lines are skipped; any malformed line —
/// bad syntax, unknown kinds, non-UTF-8 bytes, a truncated final line —
/// fails the whole load with an [`io::ErrorKind::InvalidData`] error
/// carrying its line number. Never panics, whatever the input bytes.
pub fn read_jsonl<R: BufRead>(mut reader: R) -> io::Result<Vec<(SimTime, SimEvent)>> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        // Read raw bytes, not `lines()`: a non-UTF-8 line must still get
        // a line-numbered diagnostic, not an anonymous stream error.
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(out);
        }
        line_no += 1;
        let mut line: &[u8] = &buf;
        if line.last() == Some(&b'\n') {
            line = &line[..line.len() - 1];
        }
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        let parsed = (|| -> io::Result<(SimTime, SimEvent)> {
            let fields = parse_line(line)?;
            let t = SimTime::from_ticks(fields.u64("t")?);
            let site = fields.site("site")?;
            let kind = kind_from(&fields)?;
            Ok((t, SimEvent::new(site, kind)))
        })()
        .map_err(|e| bad(format!("line {line_no}: {e}")))?;
        out.push(parsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlite::VecSink;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    /// One event of every kind, with every optional field exercised in
    /// both states.
    fn all_kinds() -> Vec<(SimTime, SimEvent)> {
        let kinds: Vec<SimEventKind> = vec![
            SimEventKind::TxnArrived {
                txn: TxnId(1),
                priority: Priority::new(-250),
            },
            SimEventKind::TxnStarted { txn: TxnId(1) },
            SimEventKind::TxnCommitted { txn: TxnId(1) },
            SimEventKind::TxnAborted {
                txn: TxnId(2),
                reason: AbortReason::DeadlineMissed,
            },
            SimEventKind::TxnAborted {
                txn: TxnId(3),
                reason: AbortReason::DeadlockVictim,
            },
            SimEventKind::TxnAborted {
                txn: TxnId(4),
                reason: AbortReason::SiteFailed,
            },
            SimEventKind::LockRequested {
                txn: TxnId(1),
                object: ObjectId(9),
                mode: LockMode::Read,
            },
            SimEventKind::LockGranted {
                txn: TxnId(1),
                object: ObjectId(9),
                mode: LockMode::Write,
            },
            SimEventKind::LockBlocked {
                txn: TxnId(1),
                object: ObjectId(9),
                mode: LockMode::Write,
                blocker: Some(TxnId(5)),
            },
            SimEventKind::LockBlocked {
                txn: TxnId(1),
                object: ObjectId(9),
                mode: LockMode::Read,
                blocker: None,
            },
            SimEventKind::LockReleased {
                txn: TxnId(1),
                object: ObjectId(9),
            },
            SimEventKind::LockUpgraded {
                txn: TxnId(1),
                object: ObjectId(9),
            },
            SimEventKind::CeilingRaised {
                txn: TxnId(1),
                object: ObjectId(9),
                ceiling: Priority::new(i64::MIN + 1),
            },
            SimEventKind::CeilingBlocked {
                txn: TxnId(1),
                object: ObjectId(9),
                blocker: None,
            },
            SimEventKind::PriorityInherited {
                txn: TxnId(5),
                priority: Priority::new(-10),
            },
            SimEventKind::Dispatched { txn: TxnId(1) },
            SimEventKind::Preempted { txn: TxnId(1) },
            SimEventKind::MsgSent {
                from: SiteId(0),
                to: SiteId(2),
            },
            SimEventKind::MsgDelivered {
                from: SiteId(0),
                to: SiteId(2),
            },
            SimEventKind::DeadlockDetected { victim: TxnId(7) },
            SimEventKind::MsgDropped {
                from: SiteId(1),
                to: SiteId(0),
                in_flight: true,
            },
            SimEventKind::MsgDropped {
                from: SiteId(1),
                to: SiteId(0),
                in_flight: false,
            },
            SimEventKind::MsgDuplicated {
                from: SiteId(2),
                to: SiteId(1),
            },
            SimEventKind::SiteCrashed,
            SimEventKind::SiteRecovered,
            SimEventKind::RpcRetried {
                txn: TxnId(8),
                attempt: 2,
            },
            SimEventKind::ReplicaRepaired {
                object: ObjectId(12),
            },
            SimEventKind::ProtocolAnomaly {
                txn: None,
                detail: "weird \"quoted\" \\ state",
            },
            SimEventKind::ProtocolAnomaly {
                txn: Some(TxnId(9)),
                detail: "ceiling out of order",
            },
            SimEventKind::TwoPcStarted {
                txn: TxnId(9),
                participants: 3,
            },
            SimEventKind::TwoPcVoted {
                txn: TxnId(9),
                yes: false,
            },
            SimEventKind::TwoPcDecided {
                txn: TxnId(9),
                commit: true,
            },
            SimEventKind::TwoPcResolved {
                txn: TxnId(9),
                commit: true,
            },
            SimEventKind::VersionInstalled {
                object: ObjectId(3),
                version: 41,
                writer: TxnId(9),
            },
            SimEventKind::SnapshotPinned {
                txn: TxnId(11),
                pin: t(170),
            },
            SimEventKind::SnapshotRead {
                txn: TxnId(11),
                object: ObjectId(3),
                version: 0,
            },
            SimEventKind::SnapshotRead {
                txn: TxnId(11),
                object: ObjectId(4),
                version: 41,
            },
            SimEventKind::VersionGced {
                object: ObjectId(3),
                through: 12,
            },
            SimEventKind::RangeLatchAcquired {
                txn: TxnId(11),
                lo: ObjectId(2),
                hi: ObjectId(6),
                mode: LockMode::Read,
            },
            SimEventKind::RangeLatchBlocked {
                txn: TxnId(12),
                lo: ObjectId(4),
                hi: ObjectId(4),
                blocker: Some(TxnId(11)),
            },
            SimEventKind::RangeLatchBlocked {
                txn: TxnId(12),
                lo: ObjectId(4),
                hi: ObjectId(4),
                blocker: None,
            },
            SimEventKind::RangeLatchReleased { txn: TxnId(11) },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| (t(i as u64 * 13), SimEvent::new(SiteId((i % 3) as u8), kind)))
            .collect()
    }

    #[test]
    fn round_trip_is_exact_for_every_kind() {
        let events = all_kinds();
        let text = to_jsonl(&events);
        let loaded = read_jsonl(text.as_bytes()).expect("load");
        assert_eq!(loaded, events);
        // And re-rendering the loaded stream reproduces the bytes.
        assert_eq!(to_jsonl(&loaded), text);
    }

    #[test]
    fn sink_writes_the_same_bytes_as_to_jsonl() {
        let events = all_kinds();
        let mut sink = JsonlSink::new(Vec::new());
        for &(at, ev) in &events {
            sink.emit(at, ev);
        }
        assert_eq!(sink.count(), events.len() as u64);
        let bytes = sink.finish().expect("no I/O errors on a Vec");
        assert_eq!(String::from_utf8(bytes).unwrap(), to_jsonl(&events));
    }

    #[test]
    fn vec_sink_stream_round_trips() {
        let mut sink = VecSink::new();
        for (at, ev) in all_kinds() {
            sink.emit(at, ev);
        }
        let events = sink.into_events();
        let loaded = read_jsonl(to_jsonl(&events).as_bytes()).expect("load");
        assert_eq!(loaded, events);
    }

    #[test]
    fn blank_lines_are_skipped_and_bad_lines_fail_with_line_numbers() {
        let events = all_kinds();
        let mut text = to_jsonl(&events[..2]);
        text.push('\n');
        text.push_str(&to_jsonl(&events[2..3]));
        let loaded = read_jsonl(text.as_bytes()).expect("load");
        assert_eq!(loaded, events[..3]);

        let err = read_jsonl("{\"t\":1,\"site\":0,\"kind\":\"NoSuchKind\"}\n".as_bytes())
            .expect_err("unknown kind must fail");
        assert!(err.to_string().contains("line 1"), "{err}");

        let err = read_jsonl("not json\n".as_bytes()).expect_err("junk must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A ProtocolAnomaly line with the given raw detail payload bytes
    /// (spliced into the JSON string without escaping).
    fn anomaly_line(detail_payload: &[u8]) -> Vec<u8> {
        let mut line =
            b"{\"t\":1,\"site\":0,\"kind\":\"ProtocolAnomaly\",\"txn\":null,\"detail\":\"".to_vec();
        line.extend_from_slice(detail_payload);
        line.extend_from_slice(b"\"}\n");
        line
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_fail() {
        // U+1F600 spells \\ud83d\\ude00 in standard JSON; our writer
        // emits raw UTF-8 but the loader must accept both spellings.
        let events = read_jsonl(&anomaly_line(br"\ud83d\ude00")[..]).expect("pair loads");
        let SimEventKind::ProtocolAnomaly { detail, .. } = events[0].1.kind else {
            panic!("wrong kind");
        };
        assert_eq!(detail, "\u{1F600}");

        for payload in [
            &br"\ud83d"[..],       // lone high at end of string
            &br"\ud83dx"[..],      // lone high followed by junk
            &br"\ud83dA"[..],      // high paired with a non-surrogate
            &br"\ude00"[..],       // lone low
            &br"\ud83d\ud83d"[..], // high paired with another high
        ] {
            let err = read_jsonl(&anomaly_line(payload)[..]).expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}");
            assert!(err.to_string().contains("line 1"), "{err}");
        }
    }

    #[test]
    fn non_utf8_bytes_fail_with_line_numbers_not_panics() {
        // A valid first line, then invalid UTF-8 on line 2.
        let mut data = to_jsonl(&all_kinds()[..1]).into_bytes();
        data.extend_from_slice(&anomaly_line(&[0xFF, 0xFE]));
        let err = read_jsonl(&data[..]).expect_err("bad UTF-8 must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");

        // Truncated multi-byte sequence at end of input.
        let err = read_jsonl(&anomaly_line(&[0xE2, 0x82])[..]).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn embedded_nul_and_control_bytes_fail() {
        let err = read_jsonl(&anomaly_line(&[0x00])[..]).expect_err("NUL in string");
        assert!(err.to_string().contains("control byte"), "{err}");
        let err = read_jsonl(&anomaly_line(&[0x07])[..]).expect_err("BEL in string");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Escaped control characters (what the writer emits) still load.
        let events = read_jsonl(&anomaly_line(br"\u0000\u0007")[..]).expect("escaped ok");
        let SimEventKind::ProtocolAnomaly { detail, .. } = events[0].1.kind else {
            panic!("wrong kind");
        };
        assert_eq!(detail, "\u{0}\u{7}");
    }

    #[test]
    fn truncated_final_line_fails_cleanly() {
        let full = to_jsonl(&all_kinds());
        // Chop the last line mid-object (no trailing newline either).
        let cut = full.len() - 10;
        let err = read_jsonl(&full.as_bytes()[..cut]).expect_err("truncated line must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line"), "{err}");
    }

    #[test]
    fn out_of_range_numeric_fields_fail() {
        for line in [
            // attempt > u32::MAX must not silently truncate.
            &b"{\"t\":1,\"site\":0,\"kind\":\"RpcRetried\",\"txn\":1,\"attempt\":4294967296}\n"[..],
            // site > u8::MAX.
            &b"{\"t\":1,\"site\":300,\"kind\":\"TxnStarted\",\"txn\":1}\n"[..],
            // number overflowing i128.
            &b"{\"t\":999999999999999999999999999999999999999999,\"site\":0,\"kind\":\"SiteCrashed\"}\n"[..],
        ] {
            let err = read_jsonl(line).expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
