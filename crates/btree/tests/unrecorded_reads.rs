//! Reads against writers that split or move items, recorded and not.
//!
//! A search reads the tree's inner nodes off their version-validated
//! images and the item list under page latches only, whether its cursor
//! records or not. Reader threads search preloaded keys, keys the
//! writers have already inserted, and keys nobody ever inserts, while
//! writer threads insert fresh keys at fanout 4 — leaf splits, inner
//! splits and in-place root splits, starting from a root that is still a
//! leaf. Each search and each insert is a transaction of its own. The
//! reads are checked by what they return, and a recorded round's record
//! by the paper's checker: a visit read off an image must sit in the
//! history where the writes it saw and missed put it. The change rounds
//! have writers rewrite texts instead, moving items between pages, and
//! check that each recorded read sits between the writes of the version
//! it returned and of the next one.

use oodb_btree::{Encyclopedia, EncyclopediaConfig};
use oodb_core::commutativity::Method;
use oodb_core::prelude::{analyze, extend_virtual_objects};
use oodb_model::Recorder;
use std::collections::HashMap;
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

/// Keys a change round rewrites, and how many versions each has.
const CHANGED_KEYS: usize = 8;
const VERSIONS: usize = 32;
/// The most searches each reader makes in a change round.
const READS: usize = 300;
/// Change rounds. A change that claims its page write after it drops the
/// X latch fails about one round in nine in release, where a round is
/// fast; the checker is slow in debug.
const ROUNDS: usize = if cfg!(debug_assertions) { 4 } else { 24 };

/// Version `v` of key `n`'s text: short when `v` is even and long when
/// it is odd, longer on each of eight odd versions in turn, so that
/// changes keep outgrowing their item pages and moving.
fn version(n: usize, v: usize) -> String {
    let len = if v.is_multiple_of(2) {
        24
    } else {
        150 + 60 * (v / 2 % 8)
    };
    format!("{:.<len$}", format!("{n} v{v} "))
}

/// The version number a [`version`] text carries.
fn version_of(text: &str) -> usize {
    let word = text.split(' ').nth(1).expect("a version word");
    word[1..].parse().expect("a version number")
}

fn encyclopedia(rec: &Recorder) -> Encyclopedia {
    Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..EncyclopediaConfig::default()
        },
    )
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
    let enc = encyclopedia(rec);
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

/// One change round on a recording recorder, seeded by `round`: readers
/// search keys while changers rewrite their texts, one changer per key.
/// A read that returned version `v` must have its item-page visit after
/// change `v`'s write of that page (version 0 is the insert) and before
/// change `v + 1`'s, in history order: in place, a change writes the page
/// it reads; a move writes the page it goes to first and the page it
/// leaves last. Returns how many reads and moves the round made.
fn change_round(round: usize) -> (usize, usize) {
    let rec = Recorder::new();
    let enc = encyclopedia(&rec);
    // transaction number → the (key, version) it wrote
    let mut changes = HashMap::new();
    for n in 0..CHANGED_KEYS {
        let mut ctx = rec.begin_txn(String::new());
        changes.insert(ctx.txn_number(), (n, 0));
        assert!(enc.insert(&mut ctx, &key(n), &version(n, 0)).is_some());
    }
    // transaction number → the (key, version) it read
    let mut reads = HashMap::new();
    let changing = AtomicBool::new(true);
    // the key each changer is changing: readers search it every other time
    let busy: Vec<AtomicUsize> = (0..WRITERS).map(AtomicUsize::new).collect();
    thread::scope(|s| {
        let changers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (enc, rec, busy) = (&enc, &rec, &busy);
                s.spawn(move || {
                    let mut made = Vec::new();
                    for v in 1..VERSIONS {
                        for n in (w..CHANGED_KEYS).step_by(WRITERS) {
                            busy[w].store(n, Ordering::Relaxed);
                            let mut ctx = rec.begin_txn(String::new());
                            made.push((ctx.txn_number(), (n, v)));
                            let old = enc.change(&mut ctx, &key(n), &version(n, v));
                            assert_eq!(old, Some(version(n, v - 1)));
                        }
                    }
                    made
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (enc, rec, changing, busy) = (&enc, &rec, &changing, &busy);
                s.spawn(move || {
                    let mut made = Vec::new();
                    let mut x = (round * READERS + r) as u64 * 0x9E37_79B9 + 1;
                    loop {
                        // read the flag first: the last pass sees every change
                        let last = !changing.load(Ordering::Acquire);
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let n = match made.len() % 2 {
                            0 => busy[x as usize % WRITERS].load(Ordering::Relaxed),
                            _ => x as usize % CHANGED_KEYS,
                        };
                        let mut ctx = rec.begin_txn(String::new());
                        let number = ctx.txn_number();
                        let text = enc.search(&mut ctx, &key(n)).expect("a changed key stays");
                        made.push((number, (n, version_of(&text))));
                        if last || made.len() == READS {
                            break;
                        }
                    }
                    made
                })
            })
            .collect();
        let joined: Vec<_> = changers.into_iter().map(|c| c.join()).collect();
        // before a changer's panic propagates: readers stop on the flag
        changing.store(false, Ordering::Release);
        for changer in joined {
            changes.extend(changer.expect("changer panicked"));
        }
        for reader in readers {
            reads.extend(reader.join().expect("reader panicked"));
        }
    });
    let (mut ts, h) = rec.finish();
    h.check_complete(&ts)
        .expect("every recorded primitive executed");
    let number_of: HashMap<_, _> = (0u32..).zip(ts.top_level()).map(|(i, &a)| (a, i)).collect();
    // each change's page writes, and each read's last visit (its item
    // page), as (page, history position)
    let mut writes: HashMap<(usize, usize), Vec<_>> = HashMap::new();
    let mut visits = HashMap::new();
    for (at, &p) in h.order().iter().enumerate() {
        let number = number_of[&ts.root_of(p)];
        let action = ts.action(p);
        if let Some(&change) = changes.get(&number) {
            if action.descriptor.method == Method::Write {
                writes.entry(change).or_default().push((action.object, at));
            }
        } else {
            visits.insert(number, (action.object, at));
        }
    }
    let write_of = |change, page| {
        let writes: &Vec<_> = &writes[&change];
        writes.iter().find(|&&(o, _)| o == page).map(|&(_, at)| at)
    };
    for (&number, &(n, v)) in &reads {
        let (page, at) = visits[&number];
        let after = write_of((n, v), page).expect("the version read wrote the page read");
        assert!(after < at, "a read of {} v{v} precedes its write", key(n));
        if v + 1 < VERSIONS {
            let before = write_of((n, v + 1), page).expect("the next version wrote it too");
            assert!(
                at < before,
                "a read of {} v{v} follows v{}'s",
                key(n),
                v + 1
            );
        }
    }
    // a change writes one page in place, three when it moves
    let moves = writes
        .iter()
        .filter(|&(&(_, v), writes)| v > 0 && writes.len() > 1)
        .count();
    extend_virtual_objects(&mut ts);
    let verdict = analyze(&ts, &h).oo_decentralized;
    assert!(verdict.is_ok(), "round {round}: {verdict:?}");
    (reads.len(), moves)
}

/// Recorded reads against changes that move items, at fanout 4: each
/// read sits in the history where the version it returned puts it, and
/// each round's record is complete and oo-serializable.
#[test]
fn a_recorded_read_sits_where_its_result_says() {
    let (mut reads, mut moves) = (0, 0);
    for round in 0..ROUNDS {
        let (r, m) = change_round(round);
        reads += r;
        moves += m;
    }
    assert!(moves > 0, "no change moved its item");
    println!("{reads} recorded reads against {moves} moves");
}
