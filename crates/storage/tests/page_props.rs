//! Property-based tests of the slotted page against a vector oracle.

use oodb_storage::{Page, PageError};
use proptest::prelude::*;

/// The page header and one slot entry, in bytes (`page.rs`'s layout).
const HEADER: usize = 6;
const SLOT: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
    Compact,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => prop::collection::vec(any::<u8>(), 0..40).prop_map(Op::Insert),
            2 => (0usize..24).prop_map(Op::Delete),
            2 => ((0usize..24), prop::collection::vec(any::<u8>(), 0..40))
                .prop_map(|(s, d)| Op::Update(s, d)),
            1 => Just(Op::Compact),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The page agrees with a `Vec<Option<Vec<u8>>>` oracle under random
    /// operation sequences, and round-trips through raw bytes.
    #[test]
    fn page_matches_oracle(ops in ops()) {
        let mut page = Page::new(512);
        // oracle[slot] = Some(record) | None (deleted)
        let mut oracle: Vec<Option<Vec<u8>>> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(data) => match page.insert(data) {
                    Ok(slot) => {
                        prop_assert_eq!(slot as usize, oracle.len());
                        oracle.push(Some(data.clone()));
                    }
                    Err(PageError::Full { .. }) => {
                        // full is legitimate; nothing changed
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("insert: {e}"))),
                },
                Op::Delete(slot) => {
                    let expected = oracle.get_mut(*slot);
                    match (page.delete(*slot as u16), expected) {
                        (Ok(()), Some(entry @ Some(_))) => *entry = None,
                        (Err(PageError::Dead(_)), Some(None)) => {}
                        (Err(PageError::BadSlot(_)), None) => {}
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "delete {slot}: {got:?} vs oracle {want:?}"
                            )))
                        }
                    }
                }
                Op::Update(slot, data) => {
                    // the page's room for records: all of it but the header
                    // and the slots, dead ones included
                    let capacity = page.size() - HEADER - oracle.len() * SLOT;
                    let live: usize = oracle.iter().flatten().map(Vec::len).sum();
                    let expected = oracle.get_mut(*slot);
                    match (page.update(*slot as u16, data), expected) {
                        (Ok(()), Some(entry @ Some(_))) => *entry = Some(data.clone()),
                        // full only for a longer record the live ones leave no room for
                        (Err(PageError::Full { .. }), Some(Some(old)))
                            if data.len() > old.len() && live + data.len() > capacity => {}
                        (Err(PageError::Dead(_)), Some(None)) => {}
                        (Err(PageError::BadSlot(_)), None) => {}
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "update {slot}: {got:?} vs oracle {want:?}"
                            )))
                        }
                    }
                }
                Op::Compact => page.compact(),
            }
            // full read-back check after every operation
            for (slot, want) in oracle.iter().enumerate() {
                match (page.read(slot as u16), want) {
                    (Ok(got), Some(want)) => prop_assert_eq!(got, want.as_slice()),
                    (Err(PageError::Dead(_)), None) => {}
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "read {slot}: {got:?} vs oracle {want:?}"
                        )))
                    }
                }
            }
        }
        // byte round-trip preserves everything
        let reloaded = Page::from_bytes(page.as_bytes().to_vec());
        for (slot, want) in oracle.iter().enumerate() {
            match (reloaded.read(slot as u16), want) {
                (Ok(got), Some(want)) => prop_assert_eq!(got, want.as_slice()),
                (Err(PageError::Dead(_)), None) => {}
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "reload read {slot}: {got:?} vs {want:?}"
                    )))
                }
            }
        }
        prop_assert_eq!(
            reloaded.live_records(),
            oracle.iter().filter(|e| e.is_some()).count()
        );
    }

    /// Compaction never loses live data and never shrinks free space.
    #[test]
    fn compaction_preserves_and_reclaims(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..30), 1..10
    )) {
        let mut page = Page::new(512);
        let mut slots = Vec::new();
        for r in &records {
            if let Ok(s) = page.insert(r) {
                slots.push((s, r.clone()));
            }
        }
        // delete every other record
        for (i, (s, _)) in slots.iter().enumerate() {
            if i % 2 == 0 {
                page.delete(*s).unwrap();
            }
        }
        let free_before = page.free_space();
        page.compact();
        prop_assert!(page.free_space() >= free_before);
        for (i, (s, data)) in slots.iter().enumerate() {
            if i % 2 == 1 {
                prop_assert_eq!(page.read(*s).unwrap(), data.as_slice());
            }
        }
    }
}
