//! In-memory spans around the harness's calls into each layer.
//!
//! The replay is generic over [`Sink`]: with [`Spans`] every call is
//! bracketed by two clock reads and one push; with [`NoSpans`] the same
//! code compiles to nothing, and the difference between the two replays
//! is the tracing overhead.

use crate::json::Json;
use std::time::Instant;

/// One timed call. `parent` indexes the span that was open when this one
/// began; `txn` is the replayed transaction all its spans share.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub txn: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub trait Sink {
    /// False for the sink whose calls compile away; lets the replay skip
    /// bookkeeping that only a traced run reads.
    const ENABLED: bool;
    /// Open a span under the innermost open one; returns its index.
    fn open(&mut self, name: &'static str, txn: u32) -> u32;
    /// Close the innermost open span.
    fn close(&mut self);
}

pub struct NoSpans;

impl Sink for NoSpans {
    const ENABLED: bool = false;
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self) {}
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Span duration minus the part its direct children cover. Children
    /// of one parent never overlap (one thread), so that part is the sum
    /// of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::Str(workload.into())),
            (
                "fields",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "txn"]
                        .map(|f| Json::Str(f.into()))
                        .to_vec(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::Str(s.name.into()),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                                Json::Num(f64::from(s.txn)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Sink for Spans {
    const ENABLED: bool = true;

    fn open(&mut self, name: &'static str, txn: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        // the clock is read last on open and first on close, so the
        // sink's own bookkeeping stays outside the span
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            txn,
        });
        id
    }

    fn close(&mut self) {
        let end_ns = self.now();
        let id = self.open.pop().expect("close without open");
        self.spans[id as usize].end_ns = end_ns;
    }
}

/// Run `f` inside a span.
#[inline(always)]
pub fn span<S: Sink, R>(sink: &mut S, name: &'static str, txn: u32, f: impl FnOnce() -> R) -> R {
    sink.open(name, txn);
    let r = f();
    sink.close();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = Spans {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: vec![
                at("txn", 0, 100, None),
                at("btree.search", 10, 40, Some(0)), // sibling 1
                at("lock.acquire", 50, 70, Some(0)), // sibling 2
                at("storage.pin", 15, 25, Some(1)),  // nested in sibling 1
            ],
        };
        // txn: 100 − (30 + 20); search: 30 − 10; leaves keep their time
        assert_eq!(spans.self_times_ns(), vec![50, 20, 20, 10]);
    }

    #[test]
    fn open_and_close_record_the_parent_chain() {
        let mut s = Spans::new();
        s.open("txn", 7);
        span(&mut s, "a", 7, || ());
        s.open("b", 7);
        span(&mut s, "c", 7, || ());
        s.close();
        s.close();
        let parents: Vec<_> = s.spans.iter().map(|x| (x.name, x.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("txn", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(s.spans.iter().all(|x| x.end_ns >= x.start_ns && x.txn == 7));
        assert!(s.spans[0].end_ns >= s.spans[3].end_ns);
    }
}
