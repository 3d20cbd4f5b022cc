//! The traced run of one workload: replay with spans, replay without,
//! the per-layer micro-loops, and the ledger that adds them up.

use crate::defs::{layer, Metric};
use crate::gen::Spec;
use crate::layers;
use crate::phases::SERIAL_STREAM;
use crate::replay::{replay, OpAux, ReplayReport};
use crate::spans::{NoSpans, Span, Spans};
use crate::stats::median;

/// The hand-stacked certifier is one unsharded `Certifier`, and each of
/// its commits costs time proportional to the history behind it (116 ms
/// at 200 commits): 1500 transactions would take ten minutes. An
/// optimistic replay is therefore cut to `occ_mixed`'s 100 transactions.
/// On `occ_mixed_sh4` the ledger then shows what sharding saves, not what
/// the engine shell costs.
const OCC_REPLAY_MAX: usize = 100;

/// Where span files go: `benchmark/out/`, whatever the working directory.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_spans(spec: &Spec, spans: &Spans) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("trace_{}.json", spec.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_json(spec.name).render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Median duration (ns) of the spans called `name`, and how many.
fn median_ns(spans: &[Span], name: &str) -> (f64, u64) {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    (median(&d), d.len() as u64)
}

/// Per transaction, what its layer calls add up to: the `txn` span
/// minus its self time. Median over transactions, in µs.
fn ledger_sum_us(spans: &Spans) -> (f64, u64) {
    let own = spans.self_times_ns();
    let sums: Vec<f64> = spans
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "txn")
        .map(|(s, own)| (s.dur_ns() - own) as f64 / 1e3)
        .collect();
    (median(&sums), sums.len() as u64)
}

/// `pin_hit_ns` and `append_ns` are the storage and model micro-loop
/// results `btree.self_frac` subtracts.
fn btree_metrics(
    spans: &[Span],
    report: &ReplayReport,
    pin_hit_ns: f64,
    append_ns: f64,
    out: &mut Vec<Metric>,
) {
    for (metric, name) in [
        ("btree.search_ns", "btree.search"),
        ("btree.insert_ns", "btree.insert"),
        ("btree.change_ns", "btree.change"),
        ("btree.delete_ns", "btree.delete"),
    ] {
        let (v, n) = median_ns(spans, name);
        out.push(layer(metric, v, n));
    }
    let aux_of = |name: &str| -> Vec<(&OpAux, f64)> {
        report
            .aux
            .iter()
            .filter(|a| spans[a.span as usize].name == name)
            .map(|a| (a, spans[a.span as usize].dur_ns() as f64))
            .collect()
    };
    let splits: Vec<f64> = aux_of("btree.insert")
        .iter()
        .filter(|(a, _)| a.allocs > 0)
        .map(|(_, d)| *d)
        .collect();
    out.push(layer(
        "btree.insert_split_ns",
        median(&splits),
        splits.len() as u64,
    ));
    let per_key: Vec<f64> = aux_of("btree.range")
        .iter()
        .map(|(a, d)| d / f64::from(a.keys.max(1)))
        .collect();
    out.push(layer(
        "btree.range_ns_per_key",
        median(&per_key),
        per_key.len() as u64,
    ));
    let searches = aux_of("btree.search");
    let n = searches.len().max(1) as f64;
    let mean =
        |f: fn(&OpAux) -> u32| searches.iter().map(|(a, _)| f64::from(f(a))).sum::<f64>() / n;
    let (pages, actions) = (mean(|a| a.pages), mean(|a| a.actions));
    let (search_ns, _) = median_ns(spans, "btree.search");
    // how much of a search the tree itself costs, beyond the page pins
    // and history appends it causes
    let self_frac = if searches.is_empty() {
        0.0
    } else {
        1.0 - (pages * pin_hit_ns + actions * append_ns) / search_ns
    };
    let n = searches.len() as u64;
    out.push(layer("btree.pages_per_search", pages, n));
    out.push(layer("btree.self_frac", self_frac, n));
    out.push(layer("btree.depth", report.depth as f64, 1));
    out.push(layer(
        "btree.pages_per_key",
        report.pages_allocated as f64 / report.keys.max(1) as f64,
        report.keys as u64,
    ));
}

/// "Where each microsecond goes": per span name, calls per transaction,
/// median nanoseconds per call and microseconds per transaction. The
/// `txn` row is the harness's own time between the calls.
fn ledger_rows(spans: &Spans) -> Vec<String> {
    let own = spans.self_times_ns();
    let txns = spans
        .spans
        .iter()
        .filter(|s| s.name == "txn")
        .count()
        .max(1) as f64;
    let mut by_name: Vec<(&str, Vec<f64>)> = Vec::new();
    for (s, own) in spans.spans.iter().zip(&own) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, v)) => v.push(*own as f64),
            None => by_name.push((s.name, vec![*own as f64])),
        }
    }
    by_name
        .iter()
        .map(|(name, own)| {
            format!(
                "ledger {name:<18} calls/txn {:>6.2}  median_ns {:>9.0}  us/txn {:>9.2}",
                own.len() as f64 / txns,
                median(own),
                own.iter().sum::<f64>() / txns / 1e3
            )
        })
        .collect()
}

/// Everything a `--trace 1` run reports except the engine's own
/// numbers, and the ledger table as printable lines.
pub fn layers_child(
    spec: &Spec,
    seed: u64,
    txns: usize,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let txns = if spec.cc == oodb_engine::CcKind::Optimistic {
        txns.min(OCC_REPLAY_MAX)
    } else {
        txns
    };
    let txns = spec.transactions(seed, SERIAL_STREAM, txns);
    // the same code with the spans compiled away, once either side of
    // the traced replay: the first replay of a process runs on a cold
    // heap and is 2-7 % slower, so the faster of the two is the baseline
    let before = replay(spec, &txns, &mut NoSpans)?;
    let mut spans = Spans::new();
    let report = replay(spec, &txns, &mut spans)?;
    let after = replay(spec, &txns, &mut NoSpans)?;
    let plain_s = before.wall_s.min(after.wall_s);
    write_spans(spec, &spans)?;

    let mut out = layers::storage();
    out.extend(layers::model());
    out.extend(layers::lock());
    out.extend(layers::recovery());
    out.extend(layers::core(spec, seed));
    let micro = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let (pin_hit_ns, append_ns) = (micro("storage.pin_hit_ns"), micro("model.append_ns"));
    btree_metrics(&spans.spans, &report, pin_hit_ns, append_ns, &mut out);

    let fetches = (report.hits + report.misses).max(1);
    let ops = report.ops.max(1) as f64;
    out.push(layer(
        "storage.hit_rate",
        report.hits as f64 / fetches as f64,
        fetches,
    ));
    for (name, count) in [
        ("storage.evictions_per_op", report.evictions as f64),
        ("storage.writebacks_per_op", report.writebacks as f64),
        ("model.actions_per_op", report.actions as f64),
    ] {
        out.push(layer(name, count / ops, report.ops as u64));
    }
    let (sum_us, n_txns) = ledger_sum_us(&spans);
    out.push(layer("ledger.sum_us", sum_us, n_txns));
    out.push(layer(
        "trace.overhead_frac",
        (report.wall_s - plain_s) / plain_s,
        spans.spans.len() as u64,
    ));
    Ok((out, ledger_rows(&spans)))
}
