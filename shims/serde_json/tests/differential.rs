//! Differential tests of the one-pass JSON reader against the tree path:
//! for every shape `#[derive(Deserialize)]` emits, reading the JSON text
//! (`from_str`) and reading the serialized tree (`from_value`) must both
//! give back the value that was written. Hand-written cases pin the
//! reader's rules for input the serializer never produces.

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u64,
    delta: i64,
    score: f64,
    flag: bool,
    name: String,
    note: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u32, i16);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Tagged(u8),
    Pair(i32, String),
    Struct { x: u16, label: Option<String> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
enum Key {
    Alpha,
    Beta,
    Gamma,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    named: Named,
    pair: Pair,
    newtype: Newtype,
    unit: Unit,
    shapes: Vec<Shape>,
    maybe_shape: Option<Shape>,
    shared: Arc<str>,
    slice: Arc<[u32]>,
    by_key: BTreeMap<Key, u32>,
    hashed: HashMap<Key, String>,
    by_number: BTreeMap<u32, bool>,
    tuple: (u8, String),
}

/// Both read paths give back `x`.
fn round_trips<T: Serialize + DeserializeOwned + PartialEq + Debug>(x: &T) -> Result<(), String> {
    let text = serde_json::to_string(x).map_err(|e| e.to_string())?;
    let from_text: T = serde_json::from_str(&text).map_err(|e| format!("{e} in {text}"))?;
    let tree = serde_json::to_value(x).map_err(|e| e.to_string())?;
    let from_tree: T = serde_json::from_value(tree).map_err(|e| e.to_string())?;
    prop_assert_eq!(&from_text, &from_tree);
    prop_assert_eq!(&from_text, x);
    let pretty = serde_json::to_string_pretty(x).map_err(|e| e.to_string())?;
    let from_pretty: T = serde_json::from_str(&pretty).map_err(|e| e.to_string())?;
    prop_assert_eq!(&from_pretty, x);
    Ok(())
}

const TEXT: &str = "[a-zA-Z0-9 \"\\\n\t\u{1}/éß€😀]{0,12}";

fn key(i: u8) -> Key {
    [Key::Alpha, Key::Beta, Key::Gamma][usize::from(i % 3)]
}

fn shape(tag: u8, n: i32, text: String) -> Shape {
    match tag % 4 {
        0 => Shape::Empty,
        1 => Shape::Tagged(tag),
        2 => Shape::Pair(n, text),
        _ => Shape::Struct {
            x: n as u16,
            label: (n % 2 == 0).then_some(text),
        },
    }
}

proptest! {
    #[test]
    fn every_derived_shape_reads_back_identically(
        numbers in (any::<u64>(), -1_000_000_000_000i64..1_000_000_000_000, -1.0e12f64..1.0e12, any::<bool>()),
        texts in (TEXT, TEXT, TEXT, proptest::option::of(TEXT)),
        small in (any::<u32>(), -30_000i16..30_000, any::<u8>(), -100_000i32..100_000),
        shapes in proptest::collection::vec((any::<u8>(), -1_000i32..1_000, TEXT), 0..6),
        keyed in proptest::collection::vec((any::<u8>(), any::<u32>(), TEXT), 0..6),
        slice in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        let (id, delta, score, flag) = numbers;
        let (name, newtype, shared, note) = texts;
        let (p0, p1, tag, n) = small;
        let x = Everything {
            named: Named { id, delta, score, flag, name: name.clone(), note },
            pair: Pair(p0, p1),
            newtype: Newtype(newtype),
            unit: Unit,
            shapes: shapes.into_iter().map(|(t, n, s)| shape(t, n, s)).collect(),
            maybe_shape: (tag % 3 != 0).then(|| shape(tag, n, name)),
            shared: Arc::from(shared.as_str()),
            slice: Arc::from(slice),
            by_key: keyed.iter().map(|(k, v, _)| (key(*k), *v)).collect(),
            hashed: keyed.iter().map(|(k, _, s)| (key(*k), s.clone())).collect(),
            by_number: keyed.iter().map(|(_, v, _)| (*v, v % 2 == 0)).collect(),
            tuple: (tag, shared),
        };
        round_trips(&x)?;
        round_trips(&x.shapes)?;
        round_trips(&x.named)?;
        round_trips(&serde_json::to_value(&x).map_err(|e| e.to_string())?)?;
    }
}

/// `from_str` and `from_value` agree on `text`, and give `expected`.
fn reads<T: DeserializeOwned + PartialEq + Debug>(text: &str, expected: T) {
    let from_text: T = serde_json::from_str(text).expect("text reads");
    let tree: Value = serde_json::from_str(text).expect("tree reads");
    let from_tree: T = serde_json::from_value(tree).expect("tree converts");
    assert_eq!(from_text, expected, "from_str of {text}");
    assert_eq!(from_tree, expected, "from_value of {text}");
}

fn rejects<T: DeserializeOwned + Debug>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(v) => panic!("{text} read as {v:?}"),
        Err(e) => e.to_string(),
    }
}

fn named(note: Option<&str>) -> Named {
    Named {
        id: 1,
        delta: -2,
        score: 0.5,
        flag: true,
        name: "n".into(),
        note: note.map(str::to_owned),
    }
}

#[test]
fn unknown_keys_are_skipped_but_syntax_checked() {
    reads(
        r#"{"id":1,"extra":{"deep":[1,{"x":null}],"s":"é"},"delta":-2,"score":0.5,"flag":true,"name":"n","note":null,"zzz":[]}"#,
        named(None),
    );
    let e = rejects::<Named>(
        r#"{"id":1,"extra":[1,,2],"delta":-2,"score":0.5,"flag":true,"name":"n"}"#,
    );
    assert!(e.contains("at offset"), "{e}");
}

#[test]
fn a_duplicate_key_keeps_its_last_value() {
    reads(
        r#"{"id":7,"delta":-2,"score":0.5,"flag":true,"name":"first","note":"a","name":"n","id":1,"note":null}"#,
        named(None),
    );
    reads(r#"{"k":1,"k":2}"#, json!({"k": 2}));
    reads(
        r#"{"Alpha":1,"Beta":2,"Alpha":3}"#,
        BTreeMap::from([(Key::Alpha, 3u32), (Key::Beta, 2)]),
    );
}

#[test]
fn missing_option_fields_read_as_none_and_others_are_errors() {
    reads(
        r#"{"id":1,"delta":-2,"score":0.5,"flag":true,"name":"n"}"#,
        named(None),
    );
    reads(r#"{"Struct":{"x":3}}"#, Shape::Struct { x: 3, label: None });
    let e = rejects::<Named>(r#"{"delta":-2,"score":0.5,"flag":true,"name":"n"}"#);
    assert!(e.contains("expected u64, found null"), "{e}");
    let e = serde_json::from_value::<Named>(json!({"id": 1}))
        .unwrap_err()
        .to_string();
    assert!(e.contains("found null"), "{e}");
}

#[test]
fn unit_variants_accept_the_keyed_spelling() {
    reads(r#""Empty""#, Shape::Empty);
    reads(r#"{"Empty":null}"#, Shape::Empty);
    reads(r#"{"Alpha":null}"#, Key::Alpha);
    reads(r#"{"Tagged":9}"#, Shape::Tagged(9));
    reads(r#"{"Pair":[-4,"p"]}"#, Shape::Pair(-4, "p".into()));
    let e = rejects::<Shape>(r#""Nope""#);
    assert!(e.contains("unknown Shape variant \"Nope\""), "{e}");
    let e = rejects::<Shape>("{}");
    assert!(e.contains("empty object for enum Shape"), "{e}");
    rejects::<Shape>(r#"{"Empty":null,"Tagged":1}"#);
    rejects::<Shape>("3");
}

#[test]
fn escapes_and_surrogate_pairs_decode() {
    reads(
        r#""q\" b\\ s\/ n\n t\t r\r b\b f\f ué € pair😀 raw😀""#,
        "q\" b\\ s/ n\n t\t r\r b\u{8} f\u{c} u\u{e9} \u{20ac} pair\u{1f600} raw\u{1f600}"
            .to_string(),
    );
    reads::<Arc<str>>(r#""aA""#, Arc::from("aA"));
    reads(r#"{"key":"v"}"#, json!({"key": "v"}));
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dA""#,
        r#""\ude00""#,
        r#""\x""#,
        r#""\u12"#,
        r#""open"#,
    ] {
        let e = rejects::<String>(bad);
        assert!(e.contains("at offset"), "{bad}: {e}");
    }
}

#[test]
fn number_rules_are_unchanged() {
    reads(&u64::MAX.to_string(), u64::MAX);
    reads(&i64::MIN.to_string(), i64::MIN);
    reads("-3", -3i32);
    reads("3.0", 3u8);
    reads("1.5e2", 150.0f64);
    reads("-2E-1", -0.2f64);
    reads("1e400", f64::INFINITY);
    reads("12", 12.0f64);
    reads("18446744073709551616", 18_446_744_073_709_551_616.0f64);
    let v: Value =
        serde_json::from_str("[18446744073709551615, -9223372036854775808, 1e2, -0]").unwrap();
    assert_eq!(v[0].as_u64(), Some(u64::MAX));
    assert_eq!(v[1].as_i64(), Some(i64::MIN));
    assert!(v[2].is_number() && v[2].as_f64() == Some(100.0));
    assert_eq!(v[3].as_i64(), Some(0));
    assert!(rejects::<u8>("256").contains("number out of range for u8"));
    assert!(rejects::<u32>("-1").contains("number out of range for u32"));
    assert!(rejects::<u64>("1.5").contains("number out of range for u64"));
    assert!(rejects::<i64>("18446744073709551615").contains("out of range"));
    assert!(rejects::<Value>("-").contains("invalid number at offset"));
}

#[test]
fn trailing_garbage_is_an_error() {
    let e = rejects::<Value>(r#"{"a":1} x"#);
    assert_eq!(e, "trailing characters at offset 8");
    let e = rejects::<Named>(r#"{"id":1,"delta":-2,"score":0.5,"flag":true,"name":"n"}}"#);
    assert!(e.contains("trailing characters"), "{e}");
    assert!(rejects::<u8>("1 2").contains("trailing characters at offset 2"));
    reads(" \n[1, 2]\t\r\n", vec![1u8, 2]);
    for bad in [
        "[1,]",
        "[,1]",
        r#"{"a":1,}"#,
        r#"{"a" 1}"#,
        "[1 2]",
        "nul",
        "",
        "{\"a\":1",
    ] {
        let e = rejects::<Value>(bad);
        assert!(e.contains("at offset"), "{bad:?}: {e}");
    }
}

#[test]
fn type_errors_read_the_same_from_text_and_tree() {
    fn same<T: DeserializeOwned + Debug>(text: &str, expected: &str) {
        let tree: Value = serde_json::from_str(text).expect("tree reads");
        let from_tree = serde_json::from_value::<T>(tree).unwrap_err().to_string();
        assert_eq!(rejects::<T>(text), expected, "from_str of {text}");
        assert_eq!(from_tree, expected, "from_value of {text}");
    }
    same::<Named>(r#"{"id":"one"}"#, "expected u64, found string");
    same::<Vec<bool>>("[true, 0]", "expected bool, found number");
}
