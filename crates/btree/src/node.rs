//! B⁺-tree node representation and page serialization.
//!
//! One node occupies one page, stored as the page's record 0. The layout
//! is a compact, manually framed encoding (little-endian):
//!
//! ```text
//! u8  is_leaf
//! u16 entry_count
//! u32 right_link + 1      (0 = none; B-link pointer to right sibling)
//! u32 first_child + 1     (inner nodes only; 0 = none)
//! u16 high_key_len, high_key bytes   (len = u16::MAX ⇒ +∞)
//! entries × { u16 key_len, key bytes, u64 value }
//! ```
//!
//! For inner nodes `value` is a child page id; `first_child` covers keys
//! strictly below the first entry's key and `entries[i].value` covers keys
//! in `[entries[i].key, entries[i+1].key)`. For leaves `value` is an item
//! reference. `high_key` is the B-link high key: every key in this node's
//! responsibility is `< high_key`; a search for `key ≥ high_key` must
//! chase `right_link` (Lehman/Yao, the concurrent search-structure
//! technique the paper cites via its reference 15).

use bytes::{Buf, BufMut};
use oodb_storage::PageId;

/// Maximum key length accepted by the tree (keeps nodes page-sized).
pub const MAX_KEY_LEN: usize = 128;

/// One key/value entry of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// Child page id (inner) or item reference (leaf).
    pub value: u64,
}

/// In-memory form of one B⁺-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Leaf or inner?
    pub is_leaf: bool,
    /// B-link right sibling.
    pub right_link: Option<PageId>,
    /// Child for keys below `entries[0].key` (inner nodes).
    pub first_child: Option<PageId>,
    /// Upper bound (exclusive) of this node's key responsibility;
    /// `None` = +∞ (rightmost node of its level).
    pub high_key: Option<String>,
    /// Sorted entries.
    pub entries: Vec<Entry>,
}

/// What a read-only descent learns from one node about one key
/// ([`Node::probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The key is at or above the node's high key: chase the right link.
    Chase(PageId),
    /// Inner node: descend into this child.
    Child(PageId),
    /// Leaf: the key's value, if present.
    Leaf(Option<u64>),
}

/// Borrowed view of an encoded node: the fixed header parsed, the high
/// key and the entries left in place. Every descent works on this under
/// the page's latch; only the node a writer changes pays for
/// [`Node::decode`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncodedNode<'a> {
    pub(crate) is_leaf: bool,
    pub(crate) right_link: Option<PageId>,
    pub(crate) first_child: Option<PageId>,
    high_key: Option<&'a [u8]>,
    count: usize,
    /// `count` × `{ u16 key_len, key bytes, u64 value }`.
    entries: &'a [u8],
}

fn link(raw: u32) -> Option<PageId> {
    raw.checked_sub(1).map(PageId)
}

impl<'a> EncodedNode<'a> {
    /// Parse the header of [`Node::encode`]'s output.
    #[inline]
    pub(crate) fn parse(mut buf: &'a [u8]) -> Self {
        let is_leaf = buf.get_u8() != 0;
        let count = buf.get_u16_le() as usize;
        let right_link = link(buf.get_u32_le());
        let first_child = link(buf.get_u32_le());
        let hk_len = buf.get_u16_le();
        let high_key = (hk_len != u16::MAX).then(|| {
            let (h, rest) = buf.split_at(hk_len as usize);
            buf = rest;
            h
        });
        EncodedNode {
            is_leaf,
            right_link,
            first_child,
            high_key,
            count,
            entries: buf,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The entries in key order, borrowed from the page, keys as bytes:
    /// nothing validated.
    #[inline]
    fn raw_entries(&self) -> impl Iterator<Item = (&'a [u8], u64)> {
        let mut buf = self.entries;
        (0..self.count).map(move |_| {
            let klen = buf.get_u16_le() as usize;
            let (key, rest) = buf.split_at(klen);
            buf = rest;
            (key, buf.get_u64_le())
        })
    }

    /// The entries in key order, borrowed from the page.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&'a str, u64)> {
        self.raw_entries()
            .map(|(key, value)| (std::str::from_utf8(key).expect("keys are utf-8"), value))
    }

    /// Linear over at most fanout + 1 entries, on key bytes: `str`
    /// orders by bytes, so the comparisons agree with
    /// [`Node::must_chase`], [`Node::child_for`] and [`Node::get`], and
    /// a key is validated only where it becomes a `&str`.
    #[inline]
    pub(crate) fn probe(&self, key: &str) -> Probe {
        let key = key.as_bytes();
        if self.high_key.is_some_and(|h| key >= h) {
            return Probe::Chase(self.right_link.expect("high key implies right link"));
        }
        if self.is_leaf {
            let hit = self
                .raw_entries()
                .take_while(|(k, _)| *k <= key)
                .find(|(k, _)| *k == key);
            return Probe::Leaf(hit.map(|(_, v)| v));
        }
        let child = self
            .raw_entries()
            .take_while(|(k, _)| *k <= key)
            .last()
            .map(|(_, v)| PageId(v as u32))
            .unwrap_or_else(|| self.first_child.expect("inner node has first child"));
        Probe::Child(child)
    }
}

impl Node {
    /// Answer a read-only descent's question about `key` from the encoded
    /// node in place — no `Node`, no `String`s.
    pub fn probe(encoded: &[u8], key: &str) -> Probe {
        EncodedNode::parse(encoded).probe(key)
    }

    /// An empty leaf.
    pub fn leaf() -> Self {
        Node {
            is_leaf: true,
            right_link: None,
            first_child: None,
            high_key: None,
            entries: Vec::new(),
        }
    }

    /// An empty inner node with the given leftmost child.
    pub fn inner(first_child: PageId) -> Self {
        Node {
            is_leaf: false,
            right_link: None,
            first_child: Some(first_child),
            high_key: None,
            entries: Vec::new(),
        }
    }

    /// True iff `key` falls outside this node's responsibility and the
    /// search must chase the right link.
    pub fn must_chase(&self, key: &str) -> bool {
        match &self.high_key {
            Some(h) => key >= h.as_str(),
            None => false,
        }
    }

    /// Position of `key` among the entries: `Ok` = exact hit,
    /// `Err` = insertion point.
    pub fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.key.as_str().cmp(key))
    }

    /// The child page to descend into for `key` (inner nodes).
    pub fn child_for(&self, key: &str) -> PageId {
        debug_assert!(!self.is_leaf);
        match self.position(key) {
            Ok(i) => PageId(self.entries[i].value as u32),
            Err(0) => self.first_child.expect("inner node has first child"),
            Err(i) => PageId(self.entries[i - 1].value as u32),
        }
    }

    /// Insert or overwrite `key → value`; returns `true` if the key was new.
    pub fn upsert(&mut self, key: &str, value: u64) -> bool {
        match self.position(key) {
            Ok(i) => {
                self.entries[i].value = value;
                false
            }
            Err(i) => {
                self.entries.insert(
                    i,
                    Entry {
                        key: key.to_owned(),
                        value,
                    },
                );
                true
            }
        }
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).value),
            Err(_) => None,
        }
    }

    /// Look up `key` exactly.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.position(key).ok().map(|i| self.entries[i].value)
    }

    /// Split off the upper half into a new right node, leaving the lower
    /// half here. Returns `(separator key, right node)`; the right node
    /// inherits this node's `right_link` and `high_key`, and this node's
    /// `high_key` becomes the separator (B-link split).
    ///
    /// For inner nodes the separator entry is *promoted*: its child
    /// becomes the right node's `first_child` and the entry itself leaves
    /// both nodes.
    pub fn split(&mut self) -> (String, Node) {
        debug_assert!(self.entries.len() >= 2, "splitting an underfull node");
        let mid = self.entries.len() / 2;
        let mut upper = self.entries.split_off(mid);
        let (separator, first_child) = if self.is_leaf {
            (upper[0].key.clone(), None)
        } else {
            let sep = upper.remove(0);
            (sep.key, Some(PageId(sep.value as u32)))
        };
        let right = Node {
            is_leaf: self.is_leaf,
            right_link: self.right_link,
            first_child,
            high_key: self.high_key.clone(),
            entries: upper,
        };
        self.high_key = Some(separator.clone());
        (separator, right)
    }

    /// Serialize into record bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.put_u8(self.is_leaf as u8);
        out.put_u16_le(self.entries.len() as u16);
        out.put_u32_le(self.right_link.map(|p| p.0 + 1).unwrap_or(0));
        out.put_u32_le(self.first_child.map(|p| p.0 + 1).unwrap_or(0));
        match &self.high_key {
            Some(h) => {
                out.put_u16_le(h.len() as u16);
                out.put_slice(h.as_bytes());
            }
            None => out.put_u16_le(u16::MAX),
        }
        for e in &self.entries {
            out.put_u16_le(e.key.len() as u16);
            out.put_slice(e.key.as_bytes());
            out.put_u64_le(e.value);
        }
        out
    }

    /// Size of [`Node::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        let hk = self.high_key.as_ref().map(|h| h.len()).unwrap_or(0);
        11 + 2
            + hk
            + self
                .entries
                .iter()
                .map(|e| 2 + e.key.len() + 8)
                .sum::<usize>()
    }

    /// Deserialize from record bytes into an owned, mutable node.
    pub fn decode(buf: &[u8]) -> Node {
        let encoded = EncodedNode::parse(buf);
        Node {
            is_leaf: encoded.is_leaf,
            right_link: encoded.right_link,
            first_child: encoded.first_child,
            high_key: encoded
                .high_key
                .map(|h| String::from_utf8(h.to_vec()).expect("keys are utf-8")),
            entries: encoded
                .entries()
                .map(|(key, value)| Entry {
                    key: key.to_owned(),
                    value,
                })
                .collect(),
        }
    }

    /// Entries are strictly sorted and, if a high key exists, below it.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.entries.windows(2) {
            if w[0].key >= w[1].key {
                return Err(format!("keys out of order: {} >= {}", w[0].key, w[1].key));
            }
        }
        if let Some(h) = &self.high_key {
            if let Some(last) = self.entries.last() {
                if last.key.as_str() >= h.as_str() {
                    return Err(format!("entry {} >= high key {}", last.key, h));
                }
            }
        }
        if !self.is_leaf && self.first_child.is_none() {
            return Err("inner node without first child".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_leaf() -> Node {
        let mut n = Node::leaf();
        n.upsert("DBMS", 2);
        n.upsert("DBS", 1);
        n.upsert("IRS", 3);
        n
    }

    #[test]
    fn upsert_keeps_sorted_and_overwrites() {
        let mut n = sample_leaf();
        let keys: Vec<&str> = n.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["DBMS", "DBS", "IRS"]);
        assert!(!n.upsert("DBS", 9));
        assert_eq!(n.get("DBS"), Some(9));
        assert!(n.upsert("OODB", 4));
        n.check_invariants().unwrap();
    }

    #[test]
    fn remove_and_get() {
        let mut n = sample_leaf();
        assert_eq!(n.remove("DBS"), Some(1));
        assert_eq!(n.remove("DBS"), None);
        assert_eq!(n.get("DBS"), None);
        assert_eq!(n.get("IRS"), Some(3));
    }

    #[test]
    fn encode_decode_roundtrip_leaf() {
        let mut n = sample_leaf();
        n.right_link = Some(PageId(7));
        n.high_key = Some("ZZZ".to_owned());
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.encoded_len());
        assert_eq!(Node::decode(&bytes), n);
    }

    #[test]
    fn encode_decode_roundtrip_inner() {
        let mut n = Node::inner(PageId(0));
        n.upsert("M", 5);
        n.upsert("T", 9);
        let bytes = n.encode();
        assert_eq!(Node::decode(&bytes), n);
    }

    #[test]
    fn encode_page_zero_link_distinct_from_none() {
        let mut n = Node::leaf();
        n.right_link = Some(PageId(0));
        let d = Node::decode(&n.encode());
        assert_eq!(d.right_link, Some(PageId(0)));
        n.right_link = None;
        assert_eq!(Node::decode(&n.encode()).right_link, None);
    }

    #[test]
    fn leaf_split_moves_upper_half() {
        let mut n = Node::leaf();
        for (i, k) in ["A", "B", "C", "D"].iter().enumerate() {
            n.upsert(k, i as u64);
        }
        n.right_link = Some(PageId(9));
        let (sep, right) = n.split();
        assert_eq!(sep, "C");
        assert_eq!(n.entries.len(), 2);
        assert_eq!(right.entries.len(), 2);
        assert_eq!(right.entries[0].key, "C"); // leaf keeps separator in right
        assert_eq!(n.high_key.as_deref(), Some("C"));
        assert_eq!(right.right_link, Some(PageId(9)));
        assert_eq!(right.high_key, None);
        n.check_invariants().unwrap();
        right.check_invariants().unwrap();
    }

    #[test]
    fn inner_split_promotes_separator() {
        let mut n = Node::inner(PageId(0));
        for (i, k) in ["B", "D", "F", "H"].iter().enumerate() {
            n.upsert(k, (i + 1) as u64);
        }
        let (sep, right) = n.split();
        assert_eq!(sep, "F");
        // separator's child becomes right's first_child
        assert_eq!(right.first_child, Some(PageId(3)));
        assert_eq!(n.entries.len(), 2);
        assert_eq!(right.entries.len(), 1);
        assert_eq!(right.entries[0].key, "H");
        n.check_invariants().unwrap();
        right.check_invariants().unwrap();
    }

    #[test]
    fn child_for_descends_correctly() {
        let mut n = Node::inner(PageId(10));
        n.upsert("M", 20);
        n.upsert("T", 30);
        assert_eq!(n.child_for("A"), PageId(10)); // below first key
        assert_eq!(n.child_for("M"), PageId(20)); // exact
        assert_eq!(n.child_for("P"), PageId(20)); // between M and T
        assert_eq!(n.child_for("Z"), PageId(30)); // above last
    }

    #[test]
    fn must_chase_respects_high_key() {
        let mut n = sample_leaf();
        assert!(!n.must_chase("ZZZ")); // no high key: rightmost
        n.high_key = Some("K".to_owned());
        assert!(n.must_chase("K"));
        assert!(n.must_chase("Z"));
        assert!(!n.must_chase("A"));
    }

    #[test]
    fn probe_answers_from_the_encoded_bytes() {
        let mut leaf = sample_leaf();
        leaf.right_link = Some(PageId(7));
        leaf.high_key = Some("K".to_owned());
        let bytes = leaf.encode();
        assert_eq!(Node::probe(&bytes, "DBS"), Probe::Leaf(Some(1)));
        assert_eq!(Node::probe(&bytes, "DBT"), Probe::Leaf(None));
        assert_eq!(Node::probe(&bytes, "A"), Probe::Leaf(None));
        assert_eq!(Node::probe(&bytes, "K"), Probe::Chase(PageId(7)));
        let mut inner = Node::inner(PageId(10));
        inner.upsert("M", 20);
        inner.upsert("T", 30);
        let bytes = inner.encode();
        assert_eq!(Node::probe(&bytes, "A"), Probe::Child(PageId(10)));
        assert_eq!(Node::probe(&bytes, "M"), Probe::Child(PageId(20)));
        assert_eq!(Node::probe(&bytes, "P"), Probe::Child(PageId(20)));
        assert_eq!(Node::probe(&bytes, "Z"), Probe::Child(PageId(30)));
        assert_eq!(
            Node::probe(&Node::leaf().encode(), "A"),
            Probe::Leaf(None),
            "empty node"
        );
    }

    mod probe_props {
        use super::*;
        use proptest::prelude::*;

        /// Key `i` of the domain: ASCII for the lower half, multi-byte
        /// UTF-8 above, so the byte order the probe compares spans one-,
        /// two-, three- and four-byte characters (`ä` < `中` < `😀`
        /// by bytes and by `str`).
        fn k(i: u8) -> String {
            const MARKS: [&str; 4] = ["", "ä", "中", "😀"];
            format!("k{}{i:02}", MARKS[usize::from(i) * MARKS.len() / 46])
        }

        /// A valid leaf or inner node over a small key domain, so probes
        /// land below the first entry, on entries, between them, on the
        /// high key and above it; zero entries included.
        fn nodes() -> impl Strategy<Value = Node> {
            (
                any::<bool>(),
                prop::collection::vec(0u8..40, 0..9),
                prop::option::of(40u8..44),
            )
                .prop_map(|(is_leaf, mut keys, high)| {
                    keys.sort_unstable();
                    keys.dedup();
                    Node {
                        is_leaf,
                        right_link: high.map(|_| PageId(99)),
                        first_child: (!is_leaf).then_some(PageId(50)),
                        high_key: high.map(k),
                        entries: keys
                            .into_iter()
                            .map(|i| Entry {
                                key: k(i),
                                value: 100 + u64::from(i),
                            })
                            .collect(),
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The in-place probe is the decode-based
            /// `must_chase` / `child_for` / `get`, on every key.
            #[test]
            fn probe_equals_the_decoded_node(node in nodes(), probe in 0u8..46) {
                node.check_invariants().map_err(TestCaseError::fail)?;
                let bytes = node.encode();
                let decoded = Node::decode(&bytes);
                prop_assert_eq!(&decoded, &node);
                let key = k(probe);
                let want = if decoded.must_chase(&key) {
                    Probe::Chase(decoded.right_link.expect("high key implies right link"))
                } else if decoded.is_leaf {
                    Probe::Leaf(decoded.get(&key))
                } else {
                    Probe::Child(decoded.child_for(&key))
                };
                prop_assert_eq!(Node::probe(&bytes, &key), want);
            }
        }
    }

    #[test]
    fn invariant_violations_detected() {
        let mut n = sample_leaf();
        n.high_key = Some("A".to_owned());
        assert!(n.check_invariants().is_err());
        let bad_inner = Node {
            is_leaf: false,
            right_link: None,
            first_child: None,
            high_key: None,
            entries: vec![],
        };
        assert!(bad_inner.check_invariants().is_err());
    }
}
