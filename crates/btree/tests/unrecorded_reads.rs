//! Reads against writers that split, recorded and not.
//!
//! A search reads the tree's inner nodes off their version-validated
//! images, whether its cursor records or not; a cursor of a
//! [`Recorder::disabled`] recorder also reads the item directory without
//! the list lock. Reader threads search preloaded keys, keys the writers
//! have already inserted, and keys nobody ever inserts, while writer
//! threads insert fresh keys at fanout 4 — leaf splits, inner splits and
//! in-place root splits, starting from a root that is still a leaf. Each
//! search and each insert is a transaction of its own. The reads are
//! checked by what they return, and a recorded round's record by the
//! paper's checker: a visit read off an image must sit in the history
//! where the writes it saw and missed put it.

use oodb_btree::{Encyclopedia, EncyclopediaConfig};
use oodb_core::prelude::{analyze, extend_virtual_objects};
use oodb_model::Recorder;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

const WRITERS: usize = 2;
const READERS: usize = 2;
/// Keys each writer inserts per unrecorded round.
const INSERTS: usize = 300;
/// Keys each writer inserts per recorded round: the checker's cost
/// grows roughly with the square of the record, so a recorded round is
/// a third the size (and still grows the tree to depth 4).
const RECORDED_INSERTS: usize = 100;

/// Key `n` of the universe. Preloaded keys are `n ≡ 0 (mod 4)`, writer
/// `w` inserts `n ≡ w + 1`, and `n ≡ 3` is never inserted: every kind
/// sits beside every other, so every split moves keys of each kind.
fn key(n: usize) -> String {
    format!("k{n:05}")
}

fn text(n: usize) -> String {
    format!("text {n}")
}

/// The `i`-th key writer `w` inserts when each inserts `inserts`: a
/// fixed permutation of its residue class, so inserts land all over the
/// tree.
fn written(w: usize, i: usize, inserts: usize) -> usize {
    (i * 37 % inserts) * 4 + w + 1
}

/// One round on `rec`: preload `preload` keys, then let the writers
/// insert `inserts` keys each while the readers search. Returns how many
/// searches the readers made.
fn round(rec: &Recorder, preload: usize, seed: usize, inserts: usize) -> usize {
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..EncyclopediaConfig::default()
        },
    );
    let mut load = rec.begin_txn("Load");
    for i in 0..preload {
        let n = (i * 7 + seed) % preload * 4;
        assert!(enc.insert(&mut load, &key(n), &text(n)).is_some());
    }
    drop(load);
    // how many of its keys each writer has inserted: a reader that sees
    // `i` may search any of the first `i`
    let progress: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
    let writing = AtomicBool::new(true);
    let searches = AtomicUsize::new(0);
    thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (enc, rec, progress) = (&enc, &rec, &progress);
                s.spawn(move || {
                    for i in 0..inserts {
                        let n = written(w, i, inserts);
                        let mut ctx = rec.begin_txn(String::new());
                        assert!(enc.insert(&mut ctx, &key(n), &text(n)).is_some());
                        drop(ctx);
                        progress[w].store(i + 1, Ordering::Release);
                    }
                })
            })
            .collect();
        for r in 0..READERS {
            let (enc, rec, progress, writing, searches) =
                (&enc, &rec, &progress, &writing, &searches);
            s.spawn(move || {
                let search = |n: usize| enc.search(&mut rec.begin_txn(String::new()), &key(n));
                let mut x = (seed * READERS + r) as u64 * 0x9E37_79B9 + 1;
                let mut made = 0;
                loop {
                    // read the flag first: the last pass sees every insert
                    let last = !writing.load(Ordering::Acquire);
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let pick = x as usize;
                    if preload > 0 {
                        let n = pick % preload * 4;
                        assert_eq!(search(n), Some(text(n)), "preloaded {} lost", key(n));
                    }
                    let w = pick % WRITERS;
                    let done = progress[w].load(Ordering::Acquire);
                    if done > 0 {
                        let n = written(w, pick / WRITERS % done, inserts);
                        assert_eq!(search(n), Some(text(n)), "inserted {} lost", key(n));
                    }
                    let n = pick % (inserts * 4) / 4 * 4 + 3;
                    assert_eq!(search(n), None, "{} appeared", key(n));
                    made += 3;
                    if last {
                        break;
                    }
                }
                searches.fetch_add(made, Ordering::Relaxed);
            });
        }
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        // before a writer's panic propagates: readers stop on the flag
        writing.store(false, Ordering::Release);
        for writer in joined {
            writer.expect("writer panicked");
        }
    });
    enc.tree()
        .check_integrity()
        .expect("integrity after the round");
    assert_eq!(enc.list().len(), preload + WRITERS * inserts);
    assert!(enc.tree().depth() >= 4, "the round grew the tree");
    let mut ctx = rec.begin_txn("Check");
    for n in (0..preload)
        .map(|i| i * 4)
        .chain((0..WRITERS).flat_map(|w| (0..inserts).map(move |i| written(w, i, inserts))))
    {
        assert_eq!(enc.search(&mut ctx, &key(n)), Some(text(n)));
    }
    drop(ctx);
    searches.into_inner()
}

/// From a root that is still a leaf (3 keys at fanout 4) and from a
/// grown tree (64 keys), sixteen load orders each.
#[test]
fn unrecorded_searches_see_every_key_through_splits() {
    let mut searches = 0;
    for seed in 0..16 {
        for preload in [3, 64] {
            searches += round(&Recorder::disabled(), preload, seed, INSERTS);
        }
    }
    assert!(searches > 0);
    println!("{searches} unrecorded searches against splitting writers");
}

/// The same rounds, recorded (four load orders each): every key is found
/// as above, and each round's record is complete and oo-serializable.
#[test]
fn recorded_searches_see_every_key_through_splits() {
    let mut searches = 0;
    for seed in 0..4 {
        for preload in [3, 64] {
            let rec = Recorder::new();
            searches += round(&rec, preload, seed, RECORDED_INSERTS);
            let (mut ts, h) = rec.finish();
            h.check_complete(&ts)
                .expect("every recorded primitive executed");
            extend_virtual_objects(&mut ts);
            let verdict = analyze(&ts, &h).oo_decentralized;
            assert!(
                verdict.is_ok(),
                "seed {seed}, preload {preload}: {verdict:?}"
            );
        }
    }
    assert!(searches > 0);
    println!("{searches} recorded searches against splitting writers");
}
