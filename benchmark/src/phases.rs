//! The engine-driven phases of one repetition, each on a fresh engine:
//! setup, loaded (closed loop, fixed count), serial (one transaction in
//! flight, harness clock) and the audited verification prefix. They run
//! inside a child process so peak RSS belongs to one repetition.

use crate::gen::{self, Spec};
use crate::json::Json;
use crate::stats;
use oodb_engine::{DurabilityMode, Engine, EngineConfig, EngineOutput, MetricsSnapshot};
use oodb_sim::EncOp;
use std::time::{Duration, Instant};

/// Stream ids handed to [`Spec::transactions`].
pub const SERIAL_STREAM: u64 = 0;
pub const LOADED_STREAM: u64 = 1;

/// Transactions of the audited verification prefix (the shutdown audit
/// is super-linear: 150 cost well under a second, 1000 cost 11 s).
pub const VERIFY_TXNS: usize = 150;

const SETUP_BUDGET: Duration = Duration::from_millis(300);
const SETUP_MAX: usize = 49;

/// Engine workers, on every workload (`nproc` is 2 here).
const WORKERS: usize = 2;

/// The run shape every workload shares.
pub fn config(spec: &Spec, seed: u64, audit: bool) -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        queue_capacity: 8,
        seed,
        fanout: 8,
        shards: spec.shards,
        audit,
        pool_frames: spec.pool_frames,
        durability: if spec.durable {
            DurabilityMode::Group {
                max_batch: 8,
                max_wait: Duration::from_micros(200),
            }
        } else {
            DurabilityMode::Off
        },
        fsync_latency: if spec.durable {
            Duration::from_micros(50)
        } else {
            Duration::ZERO
        },
        ..EngineConfig::default()
    }
}

/// A started, preloaded engine with what starting it cost.
pub struct Ready {
    pub engine: Engine,
    pub start_s: f64,
    pub setup_s: f64,
}

pub fn setup(spec: &Spec, seed: u64, audit: bool) -> Ready {
    let keys = spec.preload_keys();
    let cfg = config(spec, seed, audit);
    let t0 = Instant::now();
    let engine = Engine::start(cfg, spec.cc);
    let start_s = t0.elapsed().as_secs_f64();
    engine.preload(&keys);
    Ready {
        engine,
        start_s,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

fn finished(m: &MetricsSnapshot) -> u64 {
    m.committed + m.aborted + m.deadline_expired
}

fn failed(m: &MetricsSnapshot) -> u64 {
    m.aborted + m.deadline_expired + m.shed
}

/// `submitted == committed + aborted + deadline_expired`, or a message.
fn accounted(phase: &str, m: &MetricsSnapshot) -> Result<(), String> {
    if m.submitted == finished(m) {
        Ok(())
    } else {
        Err(format!(
            "{phase}: submitted {} != committed {} + aborted {} + expired {}",
            m.submitted, m.committed, m.aborted, m.deadline_expired
        ))
    }
}

/// Resident and peak resident set of this process, in kB.
fn rss_kb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Closed loop: submit all `txns` with backpressure, clock from the
/// first submit until the last one finished. `pin_workers`: one worker
/// per CPU, which the idle-priority spinners of [`crate::awake`] need.
pub fn loaded(
    spec: &Spec,
    seed: u64,
    txns: Vec<Vec<EncOp>>,
    pin_workers: bool,
) -> Result<Json, String> {
    let n = txns.len() as u64;
    let ready = setup(spec, seed, false);
    let pinned = if pin_workers {
        crate::awake::pin_engine_workers(WORKERS)
    } else {
        0
    };
    let engine = &ready.engine;
    let (rss_before, _) = rss_kb();
    // commit-rate degradation: the first quarter against the last
    let (q1, q3) = (n / 4, n - n / 4);
    let mut marks = Vec::with_capacity(2);
    let t0 = Instant::now();
    for (i, ops) in txns.into_iter().enumerate() {
        if i as u64 == q1 || i as u64 == q3 {
            marks.push((t0.elapsed().as_secs_f64(), engine.metrics().committed));
        }
        engine
            .submit_blocking(ops)
            .map_err(|_| "loaded: engine refused a submission")?;
    }
    let metrics = loop {
        let m = engine.metrics();
        if finished(&m) >= n {
            break m;
        }
        std::thread::sleep(Duration::from_micros(20));
    };
    let wall = t0.elapsed().as_secs_f64();
    let (rss_after, hwm) = rss_kb();
    let t_down = Instant::now();
    let out = ready.engine.shutdown();
    let shutdown_s = t_down.elapsed().as_secs_f64();
    let m = out.metrics;
    accounted("loaded", &m)?;

    let degrade = match marks[..] {
        [(t1, c1), (t3, c3)] if c1 > 0 && t1 > 0.0 && wall > t3 => {
            ((metrics.committed - c3) as f64 / (wall - t3)) / (c1 as f64 / t1)
        }
        _ => 0.0,
    };
    let per_commit = |v: u64| v as f64 / m.committed.max(1) as f64;
    let lanes: Vec<f64> = m.shards.iter().map(|l| l.commits as f64).collect();
    let lane_mean = lanes.iter().sum::<f64>() / lanes.len().max(1) as f64;
    Ok(Json::obj([
        ("submitted", Json::Num(m.submitted as f64)),
        ("failed", Json::Num(failed(&m) as f64)),
        ("pinned_workers", Json::Num(pinned as f64)),
        ("commits_per_s", Json::Num(metrics.committed as f64 / wall)),
        ("wall_s", Json::Num(wall)),
        ("peak_rss_mb", Json::Num(hwm / 1024.0)),
        ("setup_s", Json::Num(ready.setup_s)),
        ("engine.start_ms", Json::Num(ready.start_s * 1e3)),
        ("engine.shutdown_ms", Json::Num(shutdown_s * 1e3)),
        ("engine.loaded_e2e_p50_us", Json::Num(us(m.e2e_p50))),
        ("engine.loaded_e2e_p99_us", Json::Num(us(m.e2e_p99))),
        (
            "engine.phase_queue_p50_us",
            Json::Num(us(m.phase_queue.p50)),
        ),
        ("engine.phase_wait_p50_us", Json::Num(us(m.phase_wait.p50))),
        ("engine.phase_exec_p50_us", Json::Num(us(m.phase_exec.p50))),
        (
            "engine.phase_fsync_p50_us",
            Json::Num(us(m.phase_fsync.p50)),
        ),
        ("engine.lock_wait_p99_us", Json::Num(us(m.lock_wait_p99))),
        (
            "engine.retries_per_commit",
            Json::Num(per_commit(m.retries)),
        ),
        (
            "engine.cert_actions_per_commit",
            Json::Num(per_commit(m.cert_actions_inferred)),
        ),
        (
            "engine.cert_reseeds",
            Json::Num(m.cert_incremental_reseeds as f64),
        ),
        ("engine.degrade_ratio", Json::Num(degrade)),
        (
            "engine.wal_bytes_per_commit",
            Json::Num(per_commit(m.wal_bytes)),
        ),
        ("engine.fsyncs_per_commit", Json::Num(per_commit(m.fsyncs))),
        ("engine.wal_group_mean", Json::Num(m.wal_group_mean)),
        (
            "engine.cross_shard_frac",
            Json::Num(per_commit(m.cross_shard)),
        ),
        (
            "engine.shard_imbalance",
            Json::Num(if lane_mean > 0.0 {
                lanes.iter().cloned().fold(0.0, f64::max) / lane_mean
            } else {
                0.0
            }),
        ),
        (
            "model.rss_kb_per_txn",
            Json::Num((rss_after - rss_before).max(0.0) / n as f64),
        ),
    ]))
}

/// One transaction in flight: submit, then spin on `metrics()` until it
/// finished; latency on the harness clock. The final state must equal
/// the `BTreeMap` oracle applying the same operations in order.
pub fn serial(spec: &Spec, seed: u64, txns: Vec<Vec<EncOp>>) -> Result<Json, String> {
    let expect = gen::oracle(&spec.preload_keys(), &txns);
    let ready = setup(spec, seed, false);
    let engine = &ready.engine;
    let mut lat_us = Vec::with_capacity(txns.len());
    let mut submit_ns = Vec::with_capacity(txns.len());
    let mut done = 0u64;
    for ops in txns {
        let t0 = Instant::now();
        engine
            .submit_blocking(ops)
            .map_err(|_| "serial: engine refused a submission")?;
        submit_ns.push(t0.elapsed().as_nanos() as f64);
        done += 1;
        while finished(&engine.metrics()) < done {
            std::hint::spin_loop();
        }
        lat_us.push(us(t0.elapsed()));
    }
    let EngineOutput {
        metrics: m,
        final_state,
        ..
    } = ready.engine.shutdown();
    accounted("serial", &m)?;
    if final_state != expect {
        return Err(format!(
            "serial: final state ({} items) differs from the oracle ({} items)",
            final_state.len(),
            expect.len()
        ));
    }
    let (tail, tail_label) = stats::tail(&lat_us);
    Ok(Json::obj([
        ("submitted", Json::Num(m.submitted as f64)),
        ("failed", Json::Num(failed(&m) as f64)),
        ("txn_p50_us", Json::Num(stats::median(&lat_us))),
        ("engine.txn_tail_us", Json::Num(tail)),
        ("tail_label", Json::Str(tail_label.into())),
        ("samples", Json::Num(lat_us.len() as f64)),
        ("setup_s", Json::Num(ready.setup_s)),
        ("engine.submit_ns", Json::Num(stats::median(&submit_ns))),
    ]))
}

/// Correctness on a short audited prefix of the loaded stream: both
/// oo-serializability verdicts OK, and — when durable — the log recovers
/// to a consistent database equal to the final state.
pub fn verify(spec: &Spec, seed: u64, txns: Vec<Vec<EncOp>>) -> Result<Json, String> {
    let n = txns.len() as u64;
    let ready = setup(spec, seed, true);
    for ops in txns {
        ready
            .engine
            .submit_blocking(ops)
            .map_err(|_| "verify: engine refused a submission")?;
    }
    while finished(&ready.engine.metrics()) < n {
        std::thread::sleep(Duration::from_micros(50));
    }
    let t0 = Instant::now();
    let out = ready.engine.shutdown();
    let audit_ms = t0.elapsed().as_secs_f64() * 1e3;
    accounted("verify", &out.metrics)?;
    let audit = out.audit.as_ref().ok_or("verify: no audit ran")?;
    if let Err(v) = &audit.report.oo_decentralized {
        return Err(format!("verify: oo_decentralized violated: {v:?}"));
    }
    if let Err(v) = &audit.report.oo_global {
        return Err(format!("verify: oo_global violated: {v:?}"));
    }
    let (mut recover_ms, mut per_record) = (0.0, 0.0);
    if spec.durable {
        let wal = out.wal.as_ref().ok_or("verify: durable run left no log")?;
        let t0 = Instant::now();
        let rec = oodb_engine::recover(wal, 8);
        recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        per_record = recover_ms * 1e3 / rec.stats.records.max(1) as f64;
        if !rec.consistent() {
            return Err("verify: recovered execution is not oo-serializable".into());
        }
        if rec.final_state != out.final_state {
            return Err("verify: recovered state differs from the final state".into());
        }
    }
    Ok(Json::obj([
        ("submitted", Json::Num(out.metrics.submitted as f64)),
        ("failed", Json::Num(failed(&out.metrics) as f64)),
        ("engine.audit_ms_150", Json::Num(audit_ms)),
        ("engine.recover_ms", Json::Num(recover_ms)),
        ("engine.recover_us_per_record", Json::Num(per_record)),
    ]))
}

/// More `Engine::start` + `preload` timings on fresh engines, in
/// seconds, for as long as set-up time stays inside [`SETUP_BUDGET`]:
/// `spent` is what the phases' own set-ups already took. A 50 µs set-up
/// gets [`SETUP_MAX`] samples, a 1 s one only the two its phases measure.
pub fn extra_setups(spec: &Spec, seed: u64, spent: f64) -> Vec<f64> {
    let mut spent = Duration::from_secs_f64(spent);
    let mut samples = Vec::new();
    while spent < SETUP_BUDGET && samples.len() < SETUP_MAX {
        let ready = setup(spec, seed, false);
        samples.push(ready.setup_s);
        spent += Duration::from_secs_f64(ready.setup_s);
        ready.engine.shutdown();
    }
    samples
}
