//! Per-layer costs taken from outside: the harness times calls into each
//! crate's public functions. Storage, model, lock and recovery are fixed
//! micro-loops (the same on every workload); core works on the recorded
//! history of the workload's own transactions.

use crate::defs::{layer, Metric};
use crate::gen::Spec;
use crate::stats::median;
use oodb_core::commutativity::ReadWriteSpec;
use oodb_core::extension::extend_virtual_objects;
use oodb_core::ids::TxnIdx;
use oodb_core::incremental::IncrementalFeed;
use oodb_core::schedule::SystemSchedules;
use oodb_core::serializability::{check_system_decentralized, check_system_global};
use oodb_lock::{LockOutcome, OwnerId};
use oodb_model::Recorder;
use oodb_recovery::{frame, scan, EngineOp, EngineRecord, FramedLog};
use oodb_sim::exec::{enc_lock_manager, op_descriptor, ENC_RESOURCE};
use oodb_sim::EncOp;
use oodb_storage::{BufferManager, BufferPool, PageId};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 50;

/// Nanoseconds per call: the median over [`BATCHES`] batches of
/// `per_batch` back-to-back calls, so the clock is read twice per batch
/// and not per call. Returns the value and the calls behind it.
fn per_call_ns(per_batch: usize, mut call: impl FnMut(usize)) -> (f64, u64) {
    let mut i = 0;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                call(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    (median(&batches), (BATCHES * per_batch) as u64)
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `BufferManager::{read_page, write_page, allocate}`, guard drop
/// included. The miss loop uses read_cold's pool (128 frames) over 1024
/// dirty pages visited round-robin, so every fetch evicts and writes back.
pub fn storage() -> Vec<Metric> {
    let hot = BufferManager::new(BufferPool::new(4096, 512));
    let ids: Vec<PageId> = (0..64)
        .map(|_| hot.allocate().expect("pool has room").id())
        .collect();
    let (pin, n_pin) = per_call_ns(2000, |i| {
        black_box(hot.read_page(ids[i % ids.len()]).expect("resident"));
    });
    let (xlatch, n_x) = per_call_ns(2000, |i| {
        black_box(hot.write_page(ids[i % ids.len()]).expect("resident"));
    });
    let (alloc, n_alloc) = per_call_ns(60, |_| {
        black_box(hot.allocate().expect("pool has room"));
    });

    let cold = BufferManager::new(BufferPool::new(128, 512));
    let ids: Vec<PageId> = (0..1024)
        .map(|_| {
            let page = cold.allocate().expect("unpinned frames evict");
            page.write(|p| p.insert(b"payload").map(drop).expect("fresh page has room"));
            page.id()
        })
        .collect();
    let (miss, n_miss) = per_call_ns(200, |i| {
        let page = cold.write_page(ids[i % ids.len()]).expect("allocated");
        page.write(|p| black_box(p.slot_count()));
    });
    vec![
        layer("storage.pin_hit_ns", pin, n_pin),
        layer("storage.xlatch_hit_ns", xlatch, n_x),
        layer("storage.miss_ns", miss, n_miss),
        layer("storage.alloc_ns", alloc, n_alloc),
    ]
}

/// `Recorder::begin_txn` and `TxnCtx::primitive` (as `page_read`, the
/// append every page access of the tree performs).
pub fn model() -> Vec<Metric> {
    let rec = Recorder::new();
    let page = rec.object("Page", Arc::new(ReadWriteSpec));
    let (begin, n_begin) = per_call_ns(400, |_| {
        black_box(rec.begin_txn("T"));
    });
    let mut ctx = rec.begin_txn("appender");
    let (append, n_append) = per_call_ns(2000, |_| {
        black_box(ctx.page_read(page));
    });
    vec![
        layer("model.begin_txn_ns", begin, n_begin),
        layer("model.append_ns", append, n_append),
    ]
}

fn key_of(i: usize) -> String {
    crate::gen::key_name(i)
}

/// `LockManager::{acquire, release_all, find_deadlock}` under the
/// encyclopedia's commutativity specification, shaped like one engine
/// transaction: six grants, then release, with a second owner's six
/// commuting grants in the table.
pub fn lock() -> Vec<Metric> {
    let mut mgr = enc_lock_manager();
    for k in 0..6 {
        let d = op_descriptor(&EncOp::Search(key_of(1000 + k)));
        assert_eq!(
            mgr.acquire(OwnerId(1), &[], ENC_RESOURCE, &d),
            LockOutcome::Granted
        );
    }
    let descriptors: Vec<_> = (0..6)
        .map(|k| op_descriptor(&EncOp::Search(key_of(k))))
        .collect();
    let mut acquire = Vec::new();
    let mut release = Vec::new();
    for round in 0..2000u64 {
        let owner = OwnerId(10 + round);
        let t0 = Instant::now();
        for d in &descriptors {
            black_box(mgr.acquire(owner, &[], ENC_RESOURCE, d));
        }
        acquire.push(t0.elapsed().as_nanos() as f64 / 6.0);
        let t0 = Instant::now();
        mgr.release_all(owner);
        release.push(t0.elapsed().as_nanos() as f64);
    }

    // a held insert(k) against a requested update(k): never commutes
    let mut mgr = enc_lock_manager();
    let held = op_descriptor(&EncOp::Insert(key_of(7)));
    let wanted = op_descriptor(&EncOp::Change(key_of(7)));
    assert_eq!(
        mgr.acquire(OwnerId(1), &[], ENC_RESOURCE, &held),
        LockOutcome::Granted
    );
    let (conflict, n_conflict) = per_call_ns(1000, |_| {
        let got = mgr.acquire(OwnerId(2), &[], ENC_RESOURCE, &wanted);
        debug_assert!(matches!(got, LockOutcome::Blocked { .. }));
        black_box(got);
    });

    // eight owners in a ring: each holds its key and waits for the next
    let mut mgr = enc_lock_manager();
    for o in 0..8u64 {
        let d = op_descriptor(&EncOp::Insert(key_of(o as usize)));
        assert_eq!(
            mgr.acquire(OwnerId(o), &[], ENC_RESOURCE, &d),
            LockOutcome::Granted
        );
    }
    for o in 0..8u64 {
        let d = op_descriptor(&EncOp::Change(key_of(((o + 1) % 8) as usize)));
        assert!(matches!(
            mgr.acquire(OwnerId(o), &[], ENC_RESOURCE, &d),
            LockOutcome::Blocked { .. }
        ));
    }
    let (deadlock, n_deadlock) = per_call_ns(200, |_| {
        black_box(mgr.find_deadlock(|o| o).expect("the ring is a cycle"));
    });
    vec![
        layer(
            "lock.acquire_ns",
            median(&acquire),
            acquire.len() as u64 * 6,
        ),
        layer("lock.acquire_conflict_ns", conflict, n_conflict),
        layer(
            "lock.release_all_ns",
            median(&release),
            release.len() as u64,
        ),
        layer("lock.find_deadlock_us", deadlock / 1e3, n_deadlock),
    ]
}

/// `EngineRecord::{encode, decode}`, `FramedLog::{append, force}` and
/// `framing::scan` over the record a `change` logs.
pub fn recovery() -> Vec<Metric> {
    let record = |i: usize| EngineRecord::Op {
        txn: i as u64,
        redo: EngineOp::Change {
            key: key_of(i % 4096),
            text: format!("changed by {i}"),
        },
        comp: EngineOp::Change {
            key: key_of(i % 4096),
            text: format!("changed by {}", i / 2),
        },
    };
    let records: Vec<EngineRecord> = (0..1000).map(record).collect();
    let payloads: Vec<Vec<u8>> = records.iter().map(EngineRecord::encode).collect();
    let (encode, n_encode) = per_call_ns(1000, |i| {
        black_box(records[i % records.len()].encode());
    });
    let (decode, n_decode) = per_call_ns(1000, |i| {
        black_box(EngineRecord::decode(&payloads[i % payloads.len()]));
    });
    let mut log = FramedLog::new();
    let (append, n_append) = per_call_ns(1000, |i| {
        black_box(log.append(&payloads[i % payloads.len()]));
    });
    let (force, n_force) = per_call_ns(1000, |_| {
        black_box(log.force());
    });
    let image = log.image();
    let t0 = Instant::now();
    let scanned = scan(&image);
    let scan_s = t0.elapsed().as_secs_f64();
    assert!(scanned.torn.is_none() && scanned.valid_len == image.len());
    let framed: usize = payloads.iter().map(|p| frame(p).len()).sum();
    vec![
        layer("recovery.encode_ns", encode, n_encode),
        layer("recovery.append_ns", append, n_append),
        layer("recovery.force_ns", force, n_force),
        layer("recovery.decode_ns", decode, n_decode),
        layer(
            "recovery.bytes_per_op",
            framed as f64 / payloads.len() as f64,
            payloads.len() as u64,
        ),
        layer(
            "recovery.scan_mb_per_s",
            image.len() as f64 / 1e6 / scan_s,
            scanned.payloads.len() as u64,
        ),
    ]
}

/// Transactions whose recorded history the batch checkers run over.
const CORE_PREFIX: usize = 150;
/// `try_commit` is sampled over the ten commits either side of these
/// committed-set sizes.
const H_SMALL: usize = 50;
const H_LARGE: usize = 200;

/// The core checkers over the workload's own history. The transactions
/// run through a fresh stack one at a time, each certified by a
/// `Certifier`, so `try_commit` is timed with a known number of
/// committed transactions behind it. Uses the verification key space:
/// inference is quadratic in the preload transaction.
pub fn core(spec: &Spec, seed: u64) -> Vec<Metric> {
    let small = spec.for_verification();
    let txns = small.transactions(seed, crate::phases::SERIAL_STREAM, H_LARGE + 10);
    let mut stack = crate::replay::Stack::new(&Spec {
        // no locks, no log: only the recorder and the tree feed the history
        cc: oodb_engine::CcKind::Optimistic,
        durable: false,
        ..small
    });
    // Stack::new certified the preload; time each later commit
    let mut commit_us = Vec::with_capacity(txns.len());
    let mut prefix = None;
    for (i, ops) in txns.iter().enumerate() {
        if i == CORE_PREFIX {
            prefix = Some(stack.rec.snapshot());
        }
        let mut timer = CommitTimer::default();
        stack.txn(
            &mut timer,
            format!("J{}", i + 1),
            i + 1,
            ops,
            &mut Vec::new(),
        );
        commit_us.push(timer.commit_ns as f64 / 1e3);
    }
    let window = |h: usize| median(&commit_us[h - 10..h + 10]);
    let (h50, h200) = (window(H_SMALL), window(H_LARGE));

    let (mut ts, history) = prefix.expect("more transactions than the prefix");
    extend_virtual_objects(&mut ts);
    let t0 = Instant::now();
    let ss = SystemSchedules::infer(&ts, &history);
    let infer_ms = ms(t0);
    let t0 = Instant::now();
    let verdicts = (
        check_system_decentralized(&ts, &ss),
        check_system_global(&ts, &ss),
    );
    let check_ms = ms(t0);
    assert!(
        verdicts.0.is_ok() && verdicts.1.is_ok(),
        "a serial history is oo-serializable"
    );
    let scope: HashSet<TxnIdx> = (0..ts.top_level().len() as u32).map(TxnIdx).collect();
    let t0 = Instant::now();
    black_box(SystemSchedules::infer_scoped(&ts, &history, &scope));
    let scoped_ms = ms(t0);
    let mut feed = IncrementalFeed::new();
    let t0 = Instant::now();
    let fed = feed.feed(&ts, &history).fed;
    let feed_ns = t0.elapsed().as_nanos() as f64 / fed.max(1) as f64;
    vec![
        layer("core.infer_ms", infer_ms, history.len() as u64),
        layer("core.infer_scoped_ms", scoped_ms, history.len() as u64),
        layer("core.feed_ns_per_action", feed_ns, fed as u64),
        layer("core.try_commit_us_h50", h50, 20),
        layer("core.try_commit_us_h200", h200, 20),
        layer(
            "core.try_commit_growth",
            if h50 > 0.0 { h200 / h50 } else { 0.0 },
            20,
        ),
        layer("core.check_ms", check_ms, history.len() as u64),
    ]
}

/// A sink that times only the `core.try_commit` span.
#[derive(Default)]
struct CommitTimer {
    started: Option<Instant>,
    commit_ns: u128,
}

impl crate::spans::Sink for CommitTimer {
    const ENABLED: bool = false;

    fn open(&mut self, name: &'static str, _: u32) -> u32 {
        if name == "core.try_commit" {
            self.started = Some(Instant::now());
        }
        0
    }

    fn close(&mut self) {
        if let Some(t0) = self.started.take() {
            self.commit_ns = t0.elapsed().as_nanos();
        }
    }
}
