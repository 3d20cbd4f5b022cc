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
//! An inverse is built from what the operation itself returns (Malta &
//! Martinez): a change hands back the text it overwrote, read under the
//! item page's latch in the same visit as the write. The change records
//! no separate read for it, and loses no dependency by that: under the
//! encyclopedia's conflict relation `update(k)` conflicts with
//! everything `search(k)` does (`oodb-core`'s `spec_oracle` test
//! `every_conflict_of_a_search_is_a_conflict_of_a_write`).

use crate::encyclopedia::Encyclopedia;
use crate::list::ItemId;
use oodb_core::commutativity::{ActionDescriptor, Method};
use oodb_core::compensation::{Inverse, InverseRegistry};
use oodb_core::value::Value;
use oodb_model::TxnCtx;

/// Encyclopedia with compensation logging and semantic abort.
///
/// Shared across worker threads: the encyclopedia itself is internally
/// latched, and each transaction's inverses live on its own [`TxnCtx`],
/// so logging one takes no shared lock.
pub struct CompensatedEncyclopedia {
    enc: Encyclopedia,
    registry: InverseRegistry,
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

impl CompensatedEncyclopedia {
    /// Wrap an encyclopedia.
    pub fn new(enc: Encyclopedia) -> Self {
        CompensatedEncyclopedia {
            enc,
            registry: InverseRegistry::new(),
        }
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

    /// Push the inverse of the effectful `forward` operation, rebuilt
    /// from `saved`, the state it replaced.
    fn log(&self, ctx: &mut TxnCtx, forward: Method, k: &str, saved: Option<Value>) {
        let inverse = self
            .registry
            .invert(&ActionDescriptor::keyed(forward, k), saved)
            .expect("every encyclopedia write is invertible");
        ctx.push_inverse(Inverse::new("Enc", inverse));
    }

    /// Insert; logs `delete(key)` as the inverse.
    pub fn insert(&self, ctx: &mut TxnCtx, k: &str, text: &str) -> Option<ItemId> {
        let id = self.enc.insert(ctx, k, text)?;
        self.log(ctx, Method::Insert, k, None);
        Some(id)
    }

    /// Change an item's text; logs an update back to the text the change
    /// replaced.
    pub fn change(&self, ctx: &mut TxnCtx, k: &str, text: &str) -> bool {
        let Some(old) = self.enc.change(ctx, k, text) else {
            return false;
        };
        self.log(ctx, Method::Update, k, Some(Value::Str(old)));
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
        self.log(ctx, Method::Delete, k, Some(Value::Str(old)));
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
            let d = &inv.descriptor;
            let k = d.key().expect("keyed inverse");
            let text = || d.args.get(1).and_then(Value::as_str).unwrap_or("");
            let ok = match d.method {
                Method::Delete => self.enc.delete(comp_ctx, k),
                Method::Insert => self.enc.insert(comp_ctx, k, text()).is_some(),
                Method::Update => self.enc.change(comp_ctx, k, text()).is_some(),
                ref other => panic!("no executor for inverse method {other}"),
            };
            if ok {
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
