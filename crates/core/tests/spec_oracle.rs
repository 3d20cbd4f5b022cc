//! The built-in commutativity specs against a string-matching oracle.
//!
//! Each production spec decides on operation kinds ([`Method`] variants)
//! and key predicates. The oracle below is the same matrices written the
//! way they were before kinds existed: method names compared as strings,
//! rule tables keyed by name, a range's keys collected into a `Vec`. Every
//! spec must agree with its oracle on every pair drawn from every built-in
//! kind plus one unknown name, in both orders, over key shapes that cover
//! the same key, a different key, a range covering or missing the key,
//! reversed bounds, a keyless call, a keyed call with a payload, three
//! keys and a key after a non-key — and must be symmetric. A property test then draws random keys,
//! short and past the inline capacity, for the key-sensitive specs.

use oodb_core::commutativity::{
    ActionDescriptor, AllCommute, AllConflict, CommutativitySpec, EscrowSpec, MatrixSpec, Method,
    RangeSpec, ReadWriteSpec,
};
use oodb_core::value::{key, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// A spec written over method names.
type Oracle = Box<dyn Fn(&ActionDescriptor, &ActionDescriptor) -> bool>;

fn name(d: &ActionDescriptor) -> &str {
    d.method.as_str()
}

fn read_write_oracle() -> Oracle {
    Box::new(|a, b| name(a) == "read" && name(b) == "read")
}

fn escrow_oracle(bounded: bool) -> Oracle {
    let class = |d: &ActionDescriptor| match name(d) {
        "deposit" => Some(0u8),
        "withdraw" => Some(1),
        "read" | "balance" => Some(2),
        _ => None,
    };
    Box::new(move |a, b| match (class(a), class(b)) {
        (Some(2), Some(2)) => true,
        (Some(2), Some(_)) | (Some(_), Some(2)) => false,
        (Some(1), Some(1)) => !bounded,
        (Some(_), Some(_)) => true,
        _ => false,
    })
}

fn matrix_oracle(pairs: &[(&str, &str)]) -> Oracle {
    let mut commuting: HashSet<(String, String)> = HashSet::new();
    for &(m1, m2) in pairs {
        commuting.insert((m1.to_owned(), m2.to_owned()));
        commuting.insert((m2.to_owned(), m1.to_owned()));
    }
    Box::new(move |a, b| commuting.contains(&(name(a).to_owned(), name(b).to_owned())))
}

fn range_oracle() -> Oracle {
    let readers: Vec<String> = ["search", "rangeScan", "readSeq"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    fn interval(d: &ActionDescriptor) -> Option<(&str, &str)> {
        let ks: Vec<&str> = d.args.iter().filter_map(Value::as_key).collect();
        match ks.as_slice() {
            [k] => Some((k, k)),
            [lo, hi] => Some((lo.min(hi), lo.max(hi))),
            _ => None,
        }
    }
    Box::new(move |a, b| {
        let is_reader = |d: &ActionDescriptor| readers.iter().any(|r| r == name(d));
        if is_reader(a) && is_reader(b) {
            return true;
        }
        match (interval(a), interval(b)) {
            (Some((alo, ahi)), Some((blo, bhi))) => ahi < blo || bhi < alo,
            _ => false,
        }
    })
}

/// Matrices over kinds, each beside the same matrix over names.
fn matrices() -> Vec<(MatrixSpec, Oracle)> {
    let shapes: [&[(&str, &str)]; 3] = [
        &[("read", "read")],
        &[
            ("deposit", "withdraw"),
            ("insert", "search"),
            ("balance", "balance"),
        ],
        &[
            ("search", "search"),
            ("search", "rangeScan"),
            ("rangeScan", "readSeq"),
            ("rearrange", "modifySeq"),
            ("write", "update"),
            ("delete", "delete"),
        ],
    ];
    shapes
        .iter()
        .map(|pairs| {
            let spec = pairs.iter().fold(MatrixSpec::new("m"), |s, &(m1, m2)| {
                s.commuting(Method::from(m1), Method::from(m2))
            });
            (spec, matrix_oracle(pairs))
        })
        .collect()
}

/// Every production spec beside its oracle.
fn specs() -> Vec<(Box<dyn CommutativitySpec>, Oracle)> {
    let mut all: Vec<(Box<dyn CommutativitySpec>, Oracle)> = vec![
        (Box::new(ReadWriteSpec), read_write_oracle()),
        (Box::new(EscrowSpec::unbounded()), escrow_oracle(false)),
        (Box::new(EscrowSpec::bounded()), escrow_oracle(true)),
        (Box::new(RangeSpec::ordered_container("r")), range_oracle()),
        (Box::new(AllCommute), Box::new(|_, _| true)),
        (Box::new(AllConflict), Box::new(|_, _| false)),
    ];
    for (spec, oracle) in matrices() {
        all.push((Box::new(spec), oracle));
    }
    all
}

/// The argument shapes: with `b` as the key of interest, `[a, c]` covers
/// it, `[c, e]` misses it and `[c, a]` is `[a, c]` reversed; `[5, b]` has
/// its key in second place.
fn arg_shapes() -> Vec<Vec<Value>> {
    vec![
        vec![],
        vec![key("b")],
        vec![key("d")],
        vec![key("a"), key("c")],
        vec![key("c"), key("e")],
        vec![key("c"), key("a")],
        vec![key("b"), Value::Str("saved text".into())],
        vec![key("a"), key("b"), key("c")],
        vec![Value::Int(5)],
        vec![Value::Int(5), key("b")],
    ]
}

fn universe() -> Vec<ActionDescriptor> {
    let methods: Vec<Method> = Method::KINDS
        .iter()
        .cloned()
        .chain([Method::from("mystery")])
        .collect();
    methods
        .iter()
        .flat_map(|m| {
            arg_shapes()
                .into_iter()
                .map(move |args| ActionDescriptor::new(m.clone(), args))
        })
        .collect()
}

#[test]
fn every_spec_agrees_with_its_oracle_on_every_pair() {
    let universe = universe();
    assert_eq!(
        universe.len(),
        (Method::KINDS.len() + 1) * arg_shapes().len()
    );
    let mut pairs = 0;
    for (spec, oracle) in specs() {
        for a in &universe {
            for b in &universe {
                let got = spec.commutes(a, b);
                assert_eq!(
                    got,
                    oracle(a, b),
                    "{}: {a} vs {b}: spec says {got}",
                    spec.name()
                );
                assert_eq!(
                    got,
                    spec.commutes(b, a),
                    "{}: {a} vs {b} asymmetric",
                    spec.name()
                );
                pairs += 1;
            }
        }
    }
    assert!(pairs > 10_000, "{pairs} pairs");
}

/// The enumeration reaches every outcome the specs distinguish: a spec
/// that answered one constant would pass a universe too small to tell.
#[test]
fn the_universe_separates_the_specs() {
    let universe = universe();
    for (spec, _) in specs().into_iter().take(4) {
        let verdicts: HashSet<bool> = universe
            .iter()
            .flat_map(|a| universe.iter().map(|b| spec.commutes(a, b)))
            .collect();
        assert_eq!(verdicts.len(), 2, "{} answers one constant", spec.name());
    }
}

/// A change records no read of the text it replaces, and a delete need
/// not either: under the spec of the encyclopedia and the item list,
/// everything that conflicts with `search(k)` conflicts with `update(k)`
/// and with `delete(k)` too, so a write's own action carries every edge
/// the read would have added. Checked for every key the argument shapes
/// name, against every descriptor of the universe.
#[test]
fn every_conflict_of_a_search_is_a_conflict_of_a_write() {
    let universe = universe();
    let spec = RangeSpec::ordered_container("encyclopedia");
    let mut conflicts = 0;
    for k in ["a", "b", "c", "d", "e"] {
        let search = ActionDescriptor::keyed(Method::Search, k);
        for other in universe.iter().filter(|d| !spec.commutes(&search, d)) {
            for write in [Method::Update, Method::Delete] {
                let write = ActionDescriptor::keyed(write, k);
                assert!(
                    !spec.commutes(&write, other),
                    "{other} conflicts with {search} but commutes with {write}"
                );
            }
            conflicts += 1;
        }
    }
    assert!(conflicts > 100, "{conflicts} conflicting descriptors");
}

fn key_text() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(vec!["a", "b", "k0001", "k0002"]).prop_map(str::to_owned),
        (0usize..40, 0u8..3).prop_map(|(n, c)| {
            let ch = char::from(b'a' + c);
            ch.to_string().repeat(n)
        }),
    ]
}

fn descriptor() -> impl Strategy<Value = ActionDescriptor> {
    let method = prop::sample::select(
        Method::KINDS
            .iter()
            .map(|m| m.as_str().to_owned())
            .chain(["mystery".to_owned()])
            .collect::<Vec<_>>(),
    );
    (method, prop::collection::vec(key_text(), 0..4))
        .prop_map(|(m, keys)| ActionDescriptor::new(m, keys.iter().map(key).collect::<Vec<_>>()))
}

proptest! {
    #[test]
    fn random_keys_agree_with_the_oracle(a in descriptor(), b in descriptor()) {
        for (spec, oracle) in specs() {
            let got = spec.commutes(&a, &b);
            prop_assert_eq!(got, oracle(&a, &b), "{}: {} vs {}", spec.name(), &a, &b);
            prop_assert_eq!(got, spec.commutes(&b, &a), "{}: asymmetric", spec.name());
        }
    }
}
