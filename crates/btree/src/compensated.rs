//! Compensation-aware encyclopedia: open nested transactions with
//! semantic undo.
//!
//! Open nesting releases subtransaction effects early, so aborting a
//! top-level transaction must *compensate* — run semantic inverses
//! through the ordinary mutation paths — instead of restoring page
//! before-images (which would clobber other transactions' work that
//! already built on the released state). [`CompensatedEncyclopedia`]
//! wraps [`crate::Encyclopedia`], pushes an [`Inverse`] for every
//! state-changing operation onto the transaction's own undo stack (kept
//! on its [`TxnCtx`]), and on abort executes the stack in reverse order
//! inside a fresh *compensation transaction* — which the concurrency
//! machinery records and serializes like any other.
//!
//! This module is the one owner of an inverse's format: `insert(k)` is
//! undone by `delete(k)`, a change by `update(k, old text)` and a delete
//! by `insert(k, old text)` — the key in the first argument, the text in
//! the second. [`EncWrite::of`] is the one reader of that format, and
//! [`EncWrite::apply`] the one executor of a write with its text spelled
//! out: abort runs inverses through them, and the engine's log, trace
//! and recovery read and replay inverses through them too.
//!
//! An inverse is built from what the operation itself returns (Malta &
//! Martinez): a change hands back the text it overwrote, read under the
//! item page's latch in the same visit as the write. The change records
//! no separate read for it, and loses no dependency by that: under the
//! encyclopedia's conflict relation `update(k)` conflicts with
//! everything `search(k)` does (`oodb-core`'s `spec_oracle` test
//! `every_conflict_of_a_search_is_a_conflict_of_a_write`).

use crate::encyclopedia::Encyclopedia;
use crate::list::ItemId;
use crate::ops::EncOp;
use oodb_core::commutativity::{ActionDescriptor, Args, Method};
use oodb_core::compensation::Inverse;
use oodb_core::value::{key, Value};
use oodb_model::TxnCtx;

/// Encyclopedia with compensation logging and semantic abort.
///
/// Shared across worker threads: the encyclopedia itself is internally
/// latched, and each transaction's inverses live on its own [`TxnCtx`],
/// so logging one takes no shared lock.
pub struct CompensatedEncyclopedia {
    enc: Encyclopedia,
}

/// Outcome of [`CompensatedEncyclopedia::abort`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortReport {
    /// Inverses executed, in execution (reverse-commit) order.
    pub compensated: Vec<Inverse>,
    /// Inverses that could not apply (e.g. the key was deleted by a later
    /// transaction — a semantic conflict the protocol should have
    /// prevented; surfaced for diagnosis instead of silently ignored).
    pub failed: Vec<Inverse>,
}

/// An encyclopedia write with its text spelled out: what an inverse
/// runs, what a log record carries and what recovery replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncWrite<'a> {
    /// Insert `key` with `text`.
    Insert {
        /// The key.
        key: &'a str,
        /// The item text.
        text: &'a str,
    },
    /// Change the item under `key` to `text`.
    Change {
        /// The key.
        key: &'a str,
        /// The new item text.
        text: &'a str,
    },
    /// Delete `key`.
    Delete {
        /// The key.
        key: &'a str,
    },
}

impl<'a> EncWrite<'a> {
    /// The write `inv` undoes with. Panics on an inverse this module did
    /// not build.
    pub fn of(inv: &'a Inverse) -> Self {
        let d = &inv.descriptor;
        let key = d.key().expect("an encyclopedia inverse names its key");
        let text = || {
            d.args
                .get(1)
                .and_then(Value::as_str)
                .expect("an encyclopedia inverse that writes carries its text")
        };
        match d.method {
            Method::Insert => EncWrite::Insert { key, text: text() },
            Method::Update => EncWrite::Change { key, text: text() },
            Method::Delete => EncWrite::Delete { key },
            ref other => panic!("no encyclopedia write undoes with {other}"),
        }
    }

    /// Run the write inside `ctx`; false when it found nothing to write
    /// (the key already present for an insert, absent otherwise).
    pub fn apply(self, enc: &Encyclopedia, ctx: &mut TxnCtx) -> bool {
        match self {
            EncWrite::Insert { key, text } => enc.insert(ctx, key, text).is_some(),
            EncWrite::Change { key, text } => enc.change(ctx, key, text).is_some(),
            EncWrite::Delete { key } => enc.delete(ctx, key),
        }
    }

    /// The operation this write performs, without its text.
    pub fn op(self) -> EncOp {
        match self {
            EncWrite::Insert { key, .. } => EncOp::Insert(key.to_owned()),
            EncWrite::Change { key, .. } => EncOp::Change(key.to_owned()),
            EncWrite::Delete { key } => EncOp::Delete(key.to_owned()),
        }
    }
}

/// The inverse that writes `text` back under `k` by `method`.
fn restore(method: Method, k: &str, text: String) -> Inverse {
    let args: Args = [key(k), Value::Str(text)].into_iter().collect();
    Inverse {
        descriptor: ActionDescriptor::new(method, args),
    }
}

impl CompensatedEncyclopedia {
    /// Wrap an encyclopedia.
    pub fn new(enc: Encyclopedia) -> Self {
        CompensatedEncyclopedia { enc }
    }

    /// The wrapped encyclopedia (read-only access for assertions).
    pub fn inner(&self) -> &Encyclopedia {
        &self.enc
    }

    /// The inverse captured for the transaction's most recent effectful
    /// operation — what the engine's write-ahead logger pairs with the
    /// redo record it appends right after executing the operation.
    pub fn last_inverse<'c>(&self, ctx: &'c TxnCtx) -> Option<&'c Inverse> {
        ctx.inverses().last()
    }

    /// Insert; logs `delete(key)` as the inverse.
    pub fn insert(&self, ctx: &mut TxnCtx, k: &str, text: &str) -> Option<ItemId> {
        let id = self.enc.insert(ctx, k, text)?;
        ctx.push_inverse(Inverse {
            descriptor: ActionDescriptor::keyed(Method::Delete, k),
        });
        Some(id)
    }

    /// Change an item's text; logs an update back to the text the change
    /// replaced.
    pub fn change(&self, ctx: &mut TxnCtx, k: &str, text: &str) -> bool {
        let Some(old) = self.enc.change(ctx, k, text) else {
            return false;
        };
        ctx.push_inverse(restore(Method::Update, k, old));
        true
    }

    /// Delete; logs a re-insert of the removed text.
    pub fn delete(&self, ctx: &mut TxnCtx, k: &str) -> bool {
        // The recorded search stays until scans are extended online
        // (ROADMAP, "Scans record one leaf at a time, then Definition 5
        // online"): without it `engine_smoke`'s optimistic audit, whose
        // leaves split, fails about one debug run in two instead of about
        // one in a hundred.
        let Some(old) = self.enc.search(ctx, k) else {
            return false;
        };
        if !self.enc.delete(ctx, k) {
            return false;
        }
        ctx.push_inverse(restore(Method::Insert, k, old));
        true
    }

    /// Read-only operations need no logging.
    pub fn search(&self, ctx: &mut TxnCtx, k: &str) -> Option<String> {
        self.enc.search(ctx, k)
    }

    /// Sequential read (no logging).
    pub fn read_seq(&self, ctx: &mut TxnCtx) -> Vec<(ItemId, String, String)> {
        self.enc.read_seq(ctx)
    }

    /// Commit: the transaction's effects stand; its inverses go with its
    /// context.
    pub fn commit(&self, ctx: TxnCtx) {
        drop(ctx);
    }

    /// Abort: execute the transaction's undo stack in reverse order
    /// within the supplied *compensation transaction* context (a fresh
    /// top-level transaction, typically named `C(T_n)`), then drop the
    /// original context.
    pub fn abort(&self, mut aborted: TxnCtx, comp_ctx: &mut TxnCtx) -> AbortReport {
        let plan = aborted.take_inverses();
        drop(aborted);
        let mut report = AbortReport {
            compensated: Vec::new(),
            failed: Vec::new(),
        };
        for inv in plan.into_iter().rev() {
            if EncWrite::of(&inv).apply(&self.enc, comp_ctx) {
                report.compensated.push(inv);
            } else {
                report.failed.push(inv);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encyclopedia::EncyclopediaConfig;
    use oodb_core::prelude::{analyze, extend_virtual_objects};
    use oodb_model::Recorder;

    fn setup() -> (CompensatedEncyclopedia, Recorder) {
        let rec = Recorder::new();
        let enc = Encyclopedia::create(
            rec.clone(),
            EncyclopediaConfig {
                fanout: 4,
                ..Default::default()
            },
        );
        (CompensatedEncyclopedia::new(enc), rec)
    }

    /// Snapshot of visible state for before/after comparison.
    fn state(enc: &CompensatedEncyclopedia, rec: &Recorder) -> Vec<(String, String)> {
        let mut ctx = rec.begin_txn("Snapshot");
        let items = enc.read_seq(&mut ctx);
        drop(ctx);
        let mut v: Vec<(String, String)> = items.into_iter().map(|(_, k, t)| (k, t)).collect();
        v.sort();
        v
    }

    #[test]
    fn abort_restores_semantic_state() {
        let (enc, rec) = setup();
        let mut seed = rec.begin_txn("Seed");
        enc.insert(&mut seed, "DBS", "database systems");
        enc.insert(&mut seed, "DBMS", "v1");
        enc.commit(seed);
        let before = state(&enc, &rec);

        // a transaction that inserts, changes, and deletes — then aborts
        let mut t = rec.begin_txn("T");
        enc.insert(&mut t, "OODB", "object-oriented");
        enc.change(&mut t, "DBMS", "v2");
        enc.delete(&mut t, "DBS");
        assert_eq!(t.inverses().len(), 3);
        let mut comp = rec.begin_txn("C(T)");
        let report = enc.abort(t, &mut comp);
        drop(comp);
        assert_eq!(report.compensated.len(), 3);
        assert!(report.failed.is_empty());

        // visible state is exactly the pre-transaction state
        assert_eq!(state(&enc, &rec), before);
    }

    #[test]
    fn each_write_logs_the_write_that_undoes_it() {
        let (enc, rec) = setup();
        let mut t = rec.begin_txn("T");
        enc.insert(&mut t, "K", "v0");
        enc.change(&mut t, "K", "v1");
        enc.delete(&mut t, "K");
        let d = |m: &str, args: Vec<Value>| ActionDescriptor::new(m, args);
        let logged: Vec<&ActionDescriptor> = t.inverses().iter().map(|i| &i.descriptor).collect();
        assert_eq!(
            logged,
            [
                &d("delete", vec![key("K")]),
                &d("update", vec![key("K"), Value::Str("v0".into())]),
                &d("insert", vec![key("K"), Value::Str("v1".into())]),
            ]
        );
        let writes: Vec<EncWrite<'_>> = t.inverses().iter().map(EncWrite::of).collect();
        assert_eq!(
            writes,
            [
                EncWrite::Delete { key: "K" },
                EncWrite::Change {
                    key: "K",
                    text: "v0"
                },
                EncWrite::Insert {
                    key: "K",
                    text: "v1"
                },
            ]
        );
        drop(t);
    }

    #[test]
    fn commit_discards_the_log() {
        let (enc, rec) = setup();
        let mut t = rec.begin_txn("T");
        enc.insert(&mut t, "DBS", "x");
        assert_eq!(t.inverses().len(), 1);
        enc.commit(t);
        // a later abort plan is empty — effects stand
        let mut ctx = rec.begin_txn("Check");
        assert_eq!(enc.search(&mut ctx, "DBS").as_deref(), Some("x"));
        drop(ctx);
    }

    #[test]
    fn reads_are_not_logged() {
        let (enc, rec) = setup();
        let mut seed = rec.begin_txn("Seed");
        enc.insert(&mut seed, "DBS", "x");
        enc.commit(seed);
        let mut t = rec.begin_txn("T");
        enc.search(&mut t, "DBS");
        enc.read_seq(&mut t);
        assert_eq!(t.inverses().len(), 0);
        enc.commit(t);
    }

    #[test]
    fn interleaved_commit_survives_neighbour_abort() {
        // T1 aborts; T2 (commuting: different keys) committed in between.
        // Compensation must not clobber T2's work — the whole point of
        // semantic (rather than before-image) undo.
        let (enc, rec) = setup();
        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        enc.insert(&mut t1, "DBS", "t1 item");
        enc.insert(&mut t2, "DBMS", "t2 item");
        enc.commit(t2);
        let mut comp = rec.begin_txn("C(T1)");
        let report = enc.abort(t1, &mut comp);
        drop(comp);
        assert!(report.failed.is_empty());

        let mut ctx = rec.begin_txn("Check");
        assert_eq!(enc.search(&mut ctx, "DBS"), None, "T1's insert undone");
        assert_eq!(
            enc.search(&mut ctx, "DBMS").as_deref(),
            Some("t2 item"),
            "T2's commit intact"
        );
        drop(ctx);

        // and the whole history — forward work + compensation — is a
        // valid oo-serializable execution
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok(), "{:?}", r.oo_decentralized);
    }

    #[test]
    fn failed_compensation_is_reported() {
        let (enc, rec) = setup();
        let mut t1 = rec.begin_txn("T1");
        enc.insert(&mut t1, "DBS", "x");
        // another transaction deletes T1's key before the abort — a
        // semantic conflict the locking protocol would normally forbid
        let mut rogue = rec.begin_txn("Rogue");
        enc.delete(&mut rogue, "DBS");
        enc.commit(rogue);
        let mut comp = rec.begin_txn("C(T1)");
        let report = enc.abort(t1, &mut comp);
        drop(comp);
        assert_eq!(report.compensated.len(), 0);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].descriptor.method, Method::Delete);
    }

    #[test]
    fn nested_change_chain_unwinds_in_reverse() {
        let (enc, rec) = setup();
        let mut seed = rec.begin_txn("Seed");
        enc.insert(&mut seed, "K", "v0");
        enc.commit(seed);
        let mut t = rec.begin_txn("T");
        enc.change(&mut t, "K", "v1");
        enc.change(&mut t, "K", "v2");
        enc.change(&mut t, "K", "v3");
        let mut comp = rec.begin_txn("C(T)");
        let report = enc.abort(t, &mut comp);
        drop(comp);
        assert_eq!(report.compensated.len(), 3);
        // reverse order: v3->v2, v2->v1, v1->v0
        let restored: Vec<&str> = report
            .compensated
            .iter()
            .map(|i| i.descriptor.args[1].as_str().unwrap())
            .collect();
        assert_eq!(restored, vec!["v2", "v1", "v0"]);
        let mut ctx = rec.begin_txn("Check");
        assert_eq!(enc.search(&mut ctx, "K").as_deref(), Some("v0"));
        drop(ctx);
    }
}
