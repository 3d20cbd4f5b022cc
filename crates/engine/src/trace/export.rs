//! Trace exporters: JSONL and Chrome `trace_event` JSON.
//!
//! Both are hand-rolled (no serde in the offline build). The JSONL form
//! is one object per line with a stable key order, so a fixed-seed
//! single-worker run exports byte-identically — the determinism tests
//! rely on the canonical variant, which omits the wall-clock fields.
//! The Chrome form loads directly in `about:tracing` or
//! <https://ui.perfetto.dev>: each attempt becomes a complete (`"X"`)
//! slice on its worker's track and every other event an instant (`"i"`).

use std::fmt::Write as _;

use oodb_btree::ops::op_descriptor;

use super::event::{attempt_name, TraceEvent, TraceEventKind, TXN_NONE, WORKER_EXTERNAL};
use super::sink::TraceLog;
use crate::metrics::ShardRoute;

/// Escape a string for a JSON string literal (without the quotes).
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `"key":"value",` with escaping.
fn put_str(out: &mut String, key: &str, val: &str) {
    let _ = write!(out, "\"{key}\":\"");
    esc(val, out);
    out.push_str("\",");
}

fn put_u64(out: &mut String, key: &str, val: u64) {
    let _ = write!(out, "\"{key}\":{val},");
}

fn put_bool(out: &mut String, key: &str, val: bool) {
    let _ = write!(out, "\"{key}\":{val},");
}

fn shard_str(s: ShardRoute) -> String {
    match s {
        ShardRoute::One(i) => i.to_string(),
        ShardRoute::All => "all".to_string(),
    }
}

/// Append the payload-specific keys of `kind` to `out`.
fn payload(out: &mut String, kind: &TraceEventKind, timing: bool) {
    match kind {
        TraceEventKind::JobAdmitted { depth } => put_u64(out, "depth", *depth as u64),
        TraceEventKind::AttemptBegin { ops } => put_u64(out, "ops", *ops as u64),
        TraceEventKind::OpGranted {
            op,
            shard,
            wait_ns,
            hit,
        } => {
            put_str(out, "op", &op_descriptor(op).to_string());
            put_str(out, "shard", &shard_str(*shard));
            put_bool(out, "hit", *hit);
            if timing {
                put_u64(out, "wait_ns", *wait_ns);
            }
        }
        TraceEventKind::CompensationOp { op, hit } => {
            put_str(out, "op", &op_descriptor(op).to_string());
            put_bool(out, "hit", *hit);
        }
        TraceEventKind::Conflict {
            with,
            ours,
            theirs,
            inherited,
        } => {
            put_u64(out, "with", *with);
            put_str(out, "ours", ours);
            put_str(out, "theirs", theirs);
            put_bool(out, "inherited", *inherited);
        }
        TraceEventKind::DeadlockVictim {
            victim_job,
            cycle_jobs,
        } => {
            put_u64(out, "victim_job", *victim_job);
            out.push_str("\"cycle_jobs\":[");
            for (i, job) in cycle_jobs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{job}");
            }
            out.push_str("],");
        }
        TraceEventKind::CertAttempt { component, outcome } => {
            put_u64(out, "component", *component as u64);
            put_str(out, "outcome", outcome.label());
        }
        TraceEventKind::CertDelta { fed, reseeded } => {
            put_u64(out, "fed", *fed);
            put_bool(out, "reseeded", *reseeded);
        }
        TraceEventKind::WalAppend { records, bytes } => {
            put_u64(out, "records", *records as u64);
            put_u64(out, "bytes", *bytes);
        }
        TraceEventKind::GroupFlush {
            commits,
            durable_bytes,
            reason,
        } => {
            put_u64(out, "commits", *commits as u64);
            put_u64(out, "durable_bytes", *durable_bytes);
            put_str(out, "reason", reason.label());
        }
        TraceEventKind::Compensated { ops } => put_u64(out, "ops", *ops as u64),
        TraceEventKind::Committed => {}
        TraceEventKind::Aborted { reason, last } => {
            put_str(out, "reason", reason.label());
            put_bool(out, "last", *last);
        }
    }
}

fn event_line(out: &mut String, ev: &TraceEvent, timing: bool, seq: u64) {
    out.push('{');
    put_u64(out, "seq", seq);
    if timing {
        put_u64(out, "t_ns", ev.t_ns);
    }
    put_str(out, "kind", ev.kind.name());
    // Every event belongs to a (job, attempt) and is stamped with the
    // attempt's name.
    if ev.job == u64::MAX {
        put_str(out, "job", "setup");
    } else {
        put_u64(out, "job", ev.job);
    }
    put_u64(out, "attempt", ev.attempt as u64);
    if ev.txn != TXN_NONE {
        put_u64(out, "txn", ev.txn as u64);
    }
    put_str(out, "name", &attempt_name(ev.job, ev.attempt));
    if ev.worker == WORKER_EXTERNAL {
        put_str(out, "worker", "ext");
    } else {
        put_u64(out, "worker", ev.worker as u64);
    }
    payload(out, &ev.kind, timing);
    // Drop the trailing comma and close.
    out.pop();
    out.push_str("}\n");
}

/// Full JSONL export: one event per line, timing fields included.
pub fn to_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    for ev in &log.events {
        event_line(&mut out, ev, true, ev.seq);
    }
    out
}

/// Canonical JSONL export: the deterministic projection of a trace.
/// Omits the wall-clock fields (`t_ns`, `wait_ns`), drops the
/// admission events (`job_admitted` is emitted by the submitting
/// thread, so its position in the global sequence — and the queue depth
/// it observes — race the workers even on a single-worker engine), and
/// renumbers `seq` densely over what remains. A fixed-seed single-worker run exports byte-identically.
pub fn to_jsonl_canonical(log: &TraceLog) -> String {
    let mut out = String::new();
    let mut seq = 0u64;
    for ev in &log.events {
        if matches!(ev.kind, TraceEventKind::JobAdmitted { .. }) {
            continue;
        }
        event_line(&mut out, ev, false, seq);
        seq += 1;
    }
    out
}

/// Chrome `trace_event` JSON. Attempts become `"X"` (complete) slices —
/// one per `AttemptBegin`..`Committed`/`Aborted` pair on the worker's
/// track — and every event an `"i"` (instant) marker with its payload in
/// `args`. Load the file in `about:tracing` or ui.perfetto.dev.
pub fn to_chrome_trace(log: &TraceLog) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    // Open attempts: (job, attempt) -> (begin t_ns, worker).
    let mut open: Vec<((u64, u32), (u64, u32))> = Vec::new();
    for ev in &log.events {
        let ts_us = ev.t_ns / 1000;
        let tid = if ev.worker == WORKER_EXTERNAL {
            9999
        } else {
            ev.worker as u64
        };
        match &ev.kind {
            TraceEventKind::AttemptBegin { .. } => {
                open.retain(|(k, _)| *k != (ev.job, ev.attempt));
                open.push(((ev.job, ev.attempt), (ev.t_ns, ev.worker)));
            }
            TraceEventKind::Committed | TraceEventKind::Aborted { .. } => {
                if let Some(pos) = open.iter().position(|(k, _)| *k == (ev.job, ev.attempt)) {
                    let (_, (t0, w)) = open.swap_remove(pos);
                    let dur_us = (ev.t_ns.saturating_sub(t0)) / 1000;
                    let slice_tid = if w == WORKER_EXTERNAL { 9999 } else { w as u64 };
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"outcome\":\"{}\"}}}}",
                        attempt_name(ev.job, ev.attempt),
                        t0 / 1000,
                        dur_us.max(1),
                        slice_tid,
                        ev.kind.name(),
                    );
                }
            }
            _ => {}
        }
        // Every event also lands as an instant marker with its payload.
        let mut args = String::from("{");
        put_u64(&mut args, "seq", ev.seq);
        put_str(&mut args, "name", &attempt_name(ev.job, ev.attempt));
        payload(&mut args, &ev.kind, true);
        args.pop();
        args.push('}');
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
            ev.kind.name(),
            ts_us,
            tid,
            args,
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
        log.dropped
    );
    out
}
