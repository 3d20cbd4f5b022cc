//! Reads that record nothing, against writers that split.
//!
//! A cursor of a [`Recorder::disabled`] recorder reads the tree's inner
//! nodes off their version-validated images and the item directory
//! without the list lock; no audited run takes those paths, so this
//! suite checks them by what the reads return. Reader threads search
//! preloaded keys, keys the writers have already inserted, and keys
//! nobody ever inserts, while writer threads insert fresh keys at fanout
//! 4 — leaf splits, inner splits and in-place root splits, starting from
//! a root that is still a leaf.

use oodb_btree::{Encyclopedia, EncyclopediaConfig};
use oodb_model::Recorder;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

const WRITERS: usize = 2;
const READERS: usize = 2;
/// Keys each writer inserts per round.
const INSERTS: usize = 300;

/// Key `n` of the universe. Preloaded keys are `n ≡ 0 (mod 4)`, writer
/// `w` inserts `n ≡ w + 1`, and `n ≡ 3` is never inserted: every kind
/// sits beside every other, so every split moves keys of each kind.
fn key(n: usize) -> String {
    format!("k{n:05}")
}

fn text(n: usize) -> String {
    format!("text {n}")
}

/// The `i`-th key writer `w` inserts: a fixed permutation of its
/// residue class, so inserts land all over the tree.
fn written(w: usize, i: usize) -> usize {
    (i * 37 % INSERTS) * 4 + w + 1
}

/// One round: preload `preload` keys, then let the writers insert while
/// the readers search. Returns how many searches the readers made.
fn round(preload: usize, seed: usize) -> usize {
    let rec = Recorder::disabled();
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
                    let mut ctx = rec.begin_txn(String::new());
                    for i in 0..INSERTS {
                        let n = written(w, i);
                        assert!(enc.insert(&mut ctx, &key(n), &text(n)).is_some());
                        progress[w].store(i + 1, Ordering::Release);
                    }
                })
            })
            .collect();
        for r in 0..READERS {
            let (enc, rec, progress, writing, searches) =
                (&enc, &rec, &progress, &writing, &searches);
            s.spawn(move || {
                let mut ctx = rec.begin_txn(String::new());
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
                        let found = enc.search(&mut ctx, &key(n));
                        assert_eq!(found, Some(text(n)), "preloaded {} lost", key(n));
                    }
                    let w = pick % WRITERS;
                    let done = progress[w].load(Ordering::Acquire);
                    if done > 0 {
                        let n = written(w, pick / WRITERS % done);
                        let found = enc.search(&mut ctx, &key(n));
                        assert_eq!(found, Some(text(n)), "inserted {} lost", key(n));
                    }
                    let n = pick % (INSERTS * 4) / 4 * 4 + 3;
                    assert_eq!(enc.search(&mut ctx, &key(n)), None, "{} appeared", key(n));
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
    assert_eq!(enc.list().len(), preload + WRITERS * INSERTS);
    assert!(enc.tree().depth() >= 4, "the round grew the tree");
    let mut ctx = rec.begin_txn("Check");
    for n in (0..preload)
        .map(|i| i * 4)
        .chain((0..WRITERS).flat_map(|w| (0..INSERTS).map(move |i| written(w, i))))
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
            searches += round(preload, seed);
        }
    }
    assert!(searches > 0);
    println!("{searches} unrecorded searches against splitting writers");
}
