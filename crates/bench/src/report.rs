//! Persisted perf trajectory: `BENCH_<commit>.json` reading, writing,
//! and comparison.
//!
//! The matrix binary ([`crate::matrix`]) emits one JSON report per run;
//! committing it at the repo root turns the sequence of reports into a
//! perf trajectory that `compare` can diff mechanically instead of
//! trusting memory. Everything here is hand-rolled — the offline build
//! has no serde — so the parser is a minimal recursive-descent JSON
//! reader sufficient for our own output plus schema validation.
//!
//! Report schema (version 1):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "commit": "<label>",
//!   "kind": "smoke" | "full",
//!   "cells": [ { "id": "...", <dims...>,
//!                "throughput_per_sec": N, "metrics": { ...MetricsSnapshot::to_json()... } } ],
//!   "openloop": [ { "rate_per_sec": N, "offered": N, "shed": N, ... } ]
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion-independent (sorted)
/// key order via `BTreeMap`; numbers are `f64` (all our values fit).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers included; all ours fit in f64 exactly
    /// enough for comparison purposes).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document. Trailing whitespace is allowed,
    /// trailing garbage is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Follow a `.`-separated path of object keys.
    pub fn path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, k| v.get(k))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.b.get(self.i).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|&c| c as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.b.get(self.i).ok_or("unterminated escape")?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape '\\{}'", *other as char)),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // multi-byte UTF-8 sequences pass through unchanged
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .b
                        .get(self.i..self.i + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.i += len;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Current report schema version (bump on breaking key changes).
pub const SCHEMA_VERSION: u64 = 1;

/// One finished matrix cell, ready for serialization.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Stable cell identifier (dims joined; unique within a matrix).
    pub id: String,
    /// Dimension name → rendered value, in declaration order.
    pub dims: Vec<(String, String)>,
    /// Committed transactions per second.
    pub throughput_per_sec: f64,
    /// The full `MetricsSnapshot::to_json()` object for the run.
    pub metrics_json: String,
}

/// One open-loop sweep point, ready for serialization.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Target arrival rate (txns/sec offered).
    pub rate_per_sec: f64,
    /// Arrivals generated.
    pub offered: u64,
    /// Arrivals admitted into the engine queue.
    pub admitted: u64,
    /// Arrivals shed at admission (queue full).
    pub shed: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Achieved commit rate (txns/sec over the measured window).
    pub achieved_per_sec: f64,
    /// End-to-end latency quantiles in nanoseconds (p50, p99, p999).
    pub latency_ns: (u64, u64, u64),
}

/// Serialize a full report document.
pub fn render_report(
    commit: &str,
    kind: &str,
    cells: &[CellResult],
    ol: &[OpenLoopPoint],
) -> String {
    let mut s = String::from("{");
    let _ = write!(s, "\"schema\":{SCHEMA_VERSION},");
    let _ = write!(s, "\"commit\":\"{}\",", escape(commit));
    let _ = write!(s, "\"kind\":\"{}\",", escape(kind));
    s.push_str("\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"id\":\"{}\",", escape(&c.id));
        for (k, v) in &c.dims {
            let _ = write!(s, "\"{}\":\"{}\",", escape(k), escape(v));
        }
        let _ = write!(
            s,
            "\"throughput_per_sec\":{:.3},\"metrics\":{}}}",
            c.throughput_per_sec, c.metrics_json
        );
    }
    s.push_str("],\"openloop\":[");
    for (i, p) in ol.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rate_per_sec\":{:.1},\"offered\":{},\"admitted\":{},\"shed\":{},\
             \"committed\":{},\"achieved_per_sec\":{:.3},\
             \"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
            p.rate_per_sec,
            p.offered,
            p.admitted,
            p.shed,
            p.committed,
            p.achieved_per_sec,
            p.latency_ns.0,
            p.latency_ns.1,
            p.latency_ns.2,
        );
    }
    s.push_str("]}");
    s
}

/// Schema-check a parsed report: version, required keys, per-cell
/// metrics shape (including the phase breakdown). Returns the list of
/// problems (empty = valid).
pub fn validate_report(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("schema").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        Some(v) => errs.push(format!("unsupported schema version {v}")),
        None => errs.push("missing numeric 'schema'".into()),
    }
    if doc.get("commit").and_then(Json::as_str).is_none() {
        errs.push("missing string 'commit'".into());
    }
    let cells = match doc.get("cells").and_then(Json::as_arr) {
        Some(c) => c,
        None => {
            errs.push("missing array 'cells'".into());
            return errs;
        }
    };
    for (i, cell) in cells.iter().enumerate() {
        let id = cell
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("<missing id>");
        if cell.get("id").and_then(Json::as_str).is_none() {
            errs.push(format!("cell {i}: missing string 'id'"));
        }
        if cell
            .get("throughput_per_sec")
            .and_then(Json::as_f64)
            .is_none()
        {
            errs.push(format!("cell {id}: missing numeric 'throughput_per_sec'"));
        }
        for key in [
            "metrics.committed",
            "metrics.e2e_p50_ns",
            "metrics.e2e_p99_ns",
            "metrics.e2e_p999_ns",
            "metrics.queue_depth",
            "metrics.wal_appends",
            "metrics.wal_bytes",
            "metrics.fsyncs",
            "metrics.group_commits",
            "metrics.phases.queue.p50_ns",
            "metrics.phases.wait.p99_ns",
            "metrics.phases.exec.p999_ns",
            "metrics.phases.fsync.p50_ns",
        ] {
            if cell.path(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("cell {id}: missing numeric '{key}'"));
            }
        }
    }
    if let Some(points) = doc.get("openloop").and_then(Json::as_arr) {
        for (i, p) in points.iter().enumerate() {
            for key in [
                "rate_per_sec",
                "offered",
                "shed",
                "p50_ns",
                "p99_ns",
                "p999_ns",
            ] {
                if p.get(key).and_then(Json::as_f64).is_none() {
                    errs.push(format!("openloop point {i}: missing numeric '{key}'"));
                }
            }
        }
    } else {
        errs.push("missing array 'openloop'".into());
    }
    errs
}

/// Tolerances for [`compare`]: a cell regresses when its throughput
/// falls below `old * throughput` or its p99 rises above `old * p99`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Minimum acceptable new/old throughput ratio (e.g. `0.7`).
    pub throughput: f64,
    /// Maximum acceptable new/old p99 ratio (e.g. `1.5`).
    pub p99: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        // generous by default: single-core CI boxes are noisy
        Tolerances {
            throughput: 0.5,
            p99: 3.0,
        }
    }
}

/// Outcome of comparing two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Human-readable per-cell regression lines.
    pub regressions: Vec<String>,
    /// Cells present in exactly one report (informational).
    pub unmatched: Vec<String>,
    /// Cells compared.
    pub compared: usize,
    /// Movement lines for every focused cell (id-substring match),
    /// reported whether or not the cell moved beyond tolerance — the
    /// cells a change claims to improve should be visible in CI output
    /// even when they stay inside the noise band.
    pub focus: Vec<String>,
}

impl Comparison {
    /// `true` when no cell moved beyond tolerance.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diff two parsed reports cell-by-cell (matched on `id`), flagging
/// throughput and p99 movements beyond `tol`.
pub fn compare(old: &Json, new: &Json, tol: Tolerances) -> Comparison {
    compare_focused(old, new, tol, None)
}

/// [`compare`], additionally reporting the movement of every cell whose
/// `id` contains `focus` (e.g. `"pessimistic/sh"` for the 2PL cells
/// run with several metric lanes).
pub fn compare_focused(old: &Json, new: &Json, tol: Tolerances, focus: Option<&str>) -> Comparison {
    let mut out = Comparison::default();
    let empty: Vec<Json> = Vec::new();
    let old_cells = old.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    let new_cells = new.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    let index: BTreeMap<&str, &Json> = old_cells
        .iter()
        .filter_map(|c| c.get("id").and_then(Json::as_str).map(|id| (id, c)))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for cell in new_cells {
        let Some(id) = cell.get("id").and_then(Json::as_str) else {
            continue;
        };
        seen.insert(id);
        let Some(prev) = index.get(id) else {
            out.unmatched.push(format!("new-only cell {id}"));
            continue;
        };
        out.compared += 1;
        let tput = |c: &Json| c.get("throughput_per_sec").and_then(Json::as_f64);
        let p99 = |c: &Json| c.path("metrics.e2e_p99_ns").and_then(Json::as_f64);
        if let Some(f) = focus {
            if id.contains(f) {
                if let (Some(old_t), Some(new_t)) = (tput(prev), tput(cell)) {
                    out.focus.push(format!(
                        "{id}: throughput {old_t:.1}/s -> {new_t:.1}/s ({:+.1}%)",
                        (new_t / old_t.max(f64::MIN_POSITIVE) - 1.0) * 100.0
                    ));
                }
            }
        }
        if let (Some(old_t), Some(new_t)) = (tput(prev), tput(cell)) {
            if old_t > 0.0 && new_t < old_t * tol.throughput {
                out.regressions.push(format!(
                    "{id}: throughput {new_t:.1}/s < {:.0}% of baseline {old_t:.1}/s",
                    tol.throughput * 100.0
                ));
            }
        }
        if let (Some(old_p), Some(new_p)) = (p99(prev), p99(cell)) {
            if old_p > 0.0 && new_p > old_p * tol.p99 {
                out.regressions.push(format!(
                    "{id}: e2e p99 {:.3}ms > {:.1}x baseline {:.3}ms",
                    new_p / 1e6,
                    tol.p99,
                    old_p / 1e6
                ));
            }
        }
    }
    for id in index.keys() {
        if !seen.contains(id) {
            out.unmatched.push(format!("baseline-only cell {id}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_scalars_and_nesting() {
        let doc = r#" {"a": 1, "b": [true, null, -2.5e1, "x\nyA"], "c": {"d": ""}} "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.path("a").unwrap().as_f64(), Some(1.0));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Bool(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_f64(), Some(-25.0));
        assert_eq!(arr[3].as_str(), Some("x\nyA"));
        assert_eq!(v.path("c.d").unwrap().as_str(), Some(""));
        assert!(Json::parse("{\"a\":1} junk").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    /// The schema-drift guard: parse the real engine's emitted metrics
    /// JSON and assert every key the report pipeline depends on exists
    /// with the right type. If `MetricsSnapshot::to_json` drops or
    /// renames a key, this fails before any BENCH file does.
    #[test]
    fn engine_metrics_json_parses_with_required_keys() {
        let out = crate::quant::b10_run(oodb_engine::CcKind::Optimistic, 2, 16);
        let v = Json::parse(&out.metrics.to_json()).expect("engine JSON parses");
        for key in [
            "elapsed_ns",
            "submitted",
            "committed",
            "aborted",
            "retries",
            "lock_blocks",
            "deadlock_victims",
            "shed",
            "deadline_expired",
            "wal_appends",
            "wal_bytes",
            "fsyncs",
            "group_commits",
            "wal_group_p50",
            "wal_group_p99",
            "wal_group_p999",
            "queue_depth",
            "throughput_per_sec",
            "lock_wait_p50_ns",
            "lock_wait_p99_ns",
            "lock_wait_p999_ns",
            "e2e_p50_ns",
            "e2e_p99_ns",
            "e2e_p999_ns",
            "phases.queue.p50_ns",
            "phases.queue.p99_ns",
            "phases.queue.p999_ns",
            "phases.wait.p50_ns",
            "phases.exec.p50_ns",
            "phases.fsync.p50_ns",
            "cross_shard",
        ] {
            assert!(
                v.path(key).and_then(Json::as_f64).is_some(),
                "metrics JSON lost numeric key '{key}'"
            );
        }
        assert!(
            v.get("shards").and_then(Json::as_arr).is_some(),
            "metrics JSON lost 'shards' array"
        );
        assert_eq!(
            v.get("committed").unwrap().as_f64().unwrap() as u64,
            out.metrics.committed
        );
    }

    fn tiny_report(tput: f64, p99_ns: u64) -> String {
        let metrics = format!(
            "{{\"committed\":10,\"e2e_p50_ns\":100,\"e2e_p99_ns\":{p99_ns},\"e2e_p999_ns\":{p99_ns},\
             \"queue_depth\":0,\"wal_appends\":0,\"wal_bytes\":0,\"fsyncs\":0,\"group_commits\":0,\
             \"phases\":{{\"queue\":{{\"p50_ns\":1,\"p99_ns\":2,\"p999_ns\":3}},\
             \"wait\":{{\"p50_ns\":1,\"p99_ns\":2,\"p999_ns\":3}},\
             \"exec\":{{\"p50_ns\":1,\"p99_ns\":2,\"p999_ns\":3}},\
             \"fsync\":{{\"p50_ns\":0,\"p99_ns\":0,\"p999_ns\":0}}}}}}"
        );
        render_report(
            "test",
            "smoke",
            &[CellResult {
                id: "cell-a".into(),
                dims: vec![("cc".into(), "optimistic".into())],
                throughput_per_sec: tput,
                metrics_json: metrics,
            }],
            &[OpenLoopPoint {
                rate_per_sec: 100.0,
                offered: 100,
                admitted: 100,
                shed: 0,
                committed: 100,
                achieved_per_sec: 99.0,
                latency_ns: (1, 2, 3),
            }],
        )
    }

    #[test]
    fn rendered_report_validates() {
        let doc = Json::parse(&tiny_report(1000.0, 5_000_000)).unwrap();
        let errs = validate_report(&doc);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn validate_flags_missing_keys() {
        let doc =
            Json::parse(r#"{"schema":1,"commit":"x","cells":[{"id":"c"}],"openloop":[]}"#).unwrap();
        let errs = validate_report(&doc);
        assert!(errs.iter().any(|e| e.contains("throughput_per_sec")));
        assert!(errs.iter().any(|e| e.contains("phases")));
    }

    #[test]
    fn compare_flags_injected_regression() {
        let old = Json::parse(&tiny_report(1000.0, 1_000_000)).unwrap();
        let tol = Tolerances::default();
        // identical reports: clean
        assert!(compare(&old, &old, tol).ok());
        // throughput collapse: flagged
        let slow = Json::parse(&tiny_report(100.0, 1_000_000)).unwrap();
        let c = compare(&old, &slow, tol);
        assert!(!c.ok());
        assert!(c.regressions[0].contains("throughput"));
        // p99 blowup: flagged
        let laggy = Json::parse(&tiny_report(1000.0, 50_000_000)).unwrap();
        let c = compare(&old, &laggy, tol);
        assert!(!c.ok());
        assert!(c.regressions[0].contains("p99"));
        // improvement is never a regression
        let fast = Json::parse(&tiny_report(5000.0, 100_000)).unwrap();
        assert!(compare(&old, &fast, tol).ok());
    }

    #[test]
    fn compare_focus_reports_movement_inside_tolerance() {
        let old = Json::parse(&tiny_report(1000.0, 1_000_000)).unwrap();
        let faster = Json::parse(&tiny_report(1200.0, 1_000_000)).unwrap();
        // a 1.2x improvement is inside every tolerance, so plain compare
        // says nothing about it...
        let plain = compare(&old, &faster, Tolerances::default());
        assert!(plain.ok() && plain.focus.is_empty());
        // ...but a matching focus substring surfaces it
        let focused = compare_focused(&old, &faster, Tolerances::default(), Some("cell-"));
        assert_eq!(focused.focus.len(), 1);
        assert!(
            focused.focus[0].contains("+20.0%"),
            "movement line: {:?}",
            focused.focus
        );
        // a non-matching focus stays silent
        let miss = compare_focused(&old, &faster, Tolerances::default(), Some("nope"));
        assert!(miss.focus.is_empty());
    }

    #[test]
    fn compare_reports_unmatched_cells() {
        let a = Json::parse(&tiny_report(1000.0, 1_000_000)).unwrap();
        let b = Json::parse(r#"{"schema":1,"commit":"y","cells":[],"openloop":[]}"#).unwrap();
        let c = compare(&a, &b, Tolerances::default());
        assert!(c.ok(), "missing cells warn, not fail");
        assert_eq!(c.compared, 0);
        assert!(c.unmatched.iter().any(|u| u.contains("baseline-only")));
    }
}
