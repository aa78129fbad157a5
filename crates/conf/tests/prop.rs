//! Property tests: YAML and JSON round-trips over generated value trees.

use proptest::prelude::*;
use sdl_conf::{from_json, from_yaml, to_json, to_json_pretty, to_yaml, Value};

/// Strings over a broad printable alphabet, including YAML-hostile content.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}").unwrap()
}

fn arb_key() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_ .:#-]{0,15}").unwrap()
}

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12..1e12f64).prop_map(Value::Float),
        arb_string().prop_map(Value::Str),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Seq),
            proptest::collection::vec((arb_key(), inner), 0..5).prop_map(|entries| {
                // Deduplicate keys: duplicate keys are a parse error by design.
                let mut seen = std::collections::HashSet::new();
                Value::Map(entries.into_iter().filter(|(k, _)| seen.insert(k.clone())).collect())
            }),
        ]
    })
}

proptest! {
    /// Any generated tree survives JSON serialization (compact and pretty).
    #[test]
    fn json_roundtrip(v in arb_value()) {
        prop_assert_eq!(&from_json(&to_json(&v)).unwrap(), &v);
        prop_assert_eq!(&from_json(&to_json_pretty(&v)).unwrap(), &v);
    }

    /// Any generated tree survives YAML serialization.
    #[test]
    fn yaml_roundtrip(v in arb_value()) {
        let text = to_yaml(&v);
        let back = from_yaml(&text).unwrap();
        prop_assert_eq!(&back, &v, "document was:\n{}", text);
    }

    /// The YAML parser never panics on arbitrary printable input.
    #[test]
    fn yaml_parser_total(s in proptest::string::string_regex("[ -~\\n]{0,200}").unwrap()) {
        let _ = from_yaml(&s);
    }

    /// The JSON parser never panics on arbitrary input.
    #[test]
    fn json_parser_total(s in any::<String>()) {
        let _ = from_json(&s);
    }

    /// JSON is a valid interchange for YAML flow values: a JSON document our
    /// writer produces also parses as a YAML scalar line where applicable.
    #[test]
    fn ints_and_floats_keep_type(i in any::<i64>(), f in -1e9..1e9f64) {
        let doc = format!("i: {i}\nf: {f:?}\n");
        let v = from_yaml(&doc).unwrap();
        prop_assert_eq!(v.req("i").unwrap(), &Value::Int(i));
        match v.req("f").unwrap() {
            Value::Float(g) => prop_assert_eq!(*g, f),
            Value::Int(g) => prop_assert_eq!(*g as f64, f),
            other => prop_assert!(false, "unexpected type {:?}", other),
        }
    }
}

use sdl_conf::ValueExt;

/// A linear-time case: its name, its small size n, the document of a given
/// size, and the parser, which reports whether the document parsed.
type GrowthCase = (&'static str, usize, fn(usize) -> String, fn(&str) -> bool);

/// The fastest of 5 parses of `doc`, which must parse.
fn min_parse_time(doc: &str, parse: fn(&str) -> bool) -> std::time::Duration {
    (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            assert!(parse(doc), "document failed to parse");
            started.elapsed()
        })
        .min()
        .unwrap()
}

/// Parsers that face sockets and disk run in linear time: 16× the input
/// takes about 16× as long (a quadratic step, such as comparing each key
/// with every earlier key, takes about 256×). The bound is 64×.
#[test]
fn parse_time_grows_linearly_with_the_input() {
    fn keys(n: usize, entry: fn(usize) -> String, sep: &str) -> String {
        (0..n).map(entry).collect::<Vec<_>>().join(sep)
    }
    let cases: [GrowthCase; 6] = [
        (
            "JSON object",
            2_000,
            |n| format!("{{{}}}", keys(n, |i| format!("\"key{i}\": {i}"), ",\n")),
            |d| from_json(d).is_ok(),
        ),
        (
            "YAML block map",
            2_000,
            |n| keys(n, |i| format!("key{i}: {i}\n"), ""),
            |d| from_yaml(d).is_ok(),
        ),
        (
            "YAML flow map",
            2_000,
            |n| format!("m: {{{}}}\n", keys(n, |i| format!("key{i}: {i}"), ", ")),
            |d| from_yaml(d).is_ok(),
        ),
        (
            "YAML sequence of maps",
            2_000,
            |n| keys(n, |i| format!("- name: m{i}\n  tips: {i}\n"), ""),
            |d| from_yaml(d).is_ok(),
        ),
        (
            "JSON escaped string",
            20_000,
            |n| format!("\"{}\"", "ab\\n\\\"\\\\\\u0041".repeat(n)),
            |d| from_json(d).is_ok(),
        ),
        (
            "YAML escaped string",
            20_000,
            |n| format!("s: \"{}\"\n", "ab\\n\\\"\\\\".repeat(n)),
            |d| from_yaml(d).is_ok(),
        ),
    ];
    for (name, n, document, parse) in cases {
        let small = min_parse_time(&document(n), parse);
        let large = min_parse_time(&document(16 * n), parse);
        let growth = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(
            growth < 64.0,
            "{name}: {n} -> {} took {small:?} -> {large:?} ({growth:.0}x)",
            16 * n
        );
    }
}
