//! The golden-file form of JSON: `taf-wire`'s value type, printed with
//! two-space indentation.
//!
//! Golden baselines must be **byte-identical** across runs for the same-seed
//! determinism gate, which rules out anything whose output depends on map
//! iteration order or library version. Values are `taf_wire`'s
//! [`JsonValue`](taf_wire::JsonValue), whose objects are ordered vectors
//! (emit order == insertion order), and documents are read back through
//! [`taf_wire::json::parse`], which builds the tree with the workspace's one
//! JSON reader. This module owns only the
//! pretty form: numbers print with `f64`'s `Display` (shortest round-trip
//! form), so identical bits in produce identical bytes out.

use std::io::Write as _;
use taf_wire::JsonWriter;

pub use taf_wire::JsonValue as Json;

/// Parses a golden document (or a hand-edited one) through the canonical
/// JSON reader.
pub fn parse(text: &str) -> Result<Json, String> {
    taf_wire::json::parse(text).map_err(|e| e.to_string())
}

/// Golden-file helpers on a JSON value.
pub trait GoldenJson {
    /// Required numeric field, with a path-bearing error.
    fn num_field(&self, key: &str) -> Result<f64, String>;
    /// Required string field, with a path-bearing error.
    fn str_field(&self, key: &str) -> Result<String, String>;
    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical golden-file form.
    fn to_pretty(&self) -> String;
}

impl GoldenJson for Json {
    fn num_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
    }

    fn str_field(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }

    fn to_pretty(&self) -> String {
        let mut out = Vec::new();
        write_pretty(self, &mut out, 0);
        out.push(b'\n');
        String::from_utf8(out).expect("JSON text is UTF-8")
    }
}

fn write_pretty(v: &Json, out: &mut Vec<u8>, indent: usize) {
    match v {
        Json::Null => out.extend_from_slice(b"null"),
        Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Json::Num(n) => {
            // JSON has no NaN/inf; goldens must never contain them.
            assert!(n.is_finite(), "golden metrics must be finite, got {n}");
            write!(out, "{n}").expect("write to Vec cannot fail");
        }
        Json::Str(s) => JsonWriter::new(out).str_val(s),
        Json::Arr(items) if items.is_empty() => out.extend_from_slice(b"[]"),
        Json::Arr(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                newline(out, i > 0, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            newline(out, false, indent);
            out.push(b']');
        }
        Json::Obj(fields) if fields.is_empty() => out.extend_from_slice(b"{}"),
        Json::Obj(fields) => {
            out.push(b'{');
            for (i, (k, v)) in fields.iter().enumerate() {
                newline(out, i > 0, indent + 1);
                JsonWriter::new(out).str_val(k);
                out.extend_from_slice(b": ");
                write_pretty(v, out, indent + 1);
            }
            newline(out, false, indent);
            out.push(b'}');
        }
    }
}

/// An optional separating comma, then a newline and `indent` levels.
fn newline(out: &mut Vec<u8>, comma: bool, indent: usize) {
    if comma {
        out.push(b',');
    }
    out.push(b'\n');
    out.extend(std::iter::repeat(b' ').take(2 * indent));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_object() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("nominal".into())),
            ("seed".into(), Json::Num(42.0)),
            ("rmse".into(), Json::Num(1.25)),
            ("nested".into(), Json::Obj(vec![("ok".into(), Json::Bool(true))])),
            ("list".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("nothing".into(), Json::Null),
        ]);
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
        // Emission is a pure function of the value: byte-identical on repeat.
        assert_eq!(text, parse(&text).unwrap().to_pretty());
    }

    #[test]
    fn float_formatting_is_shortest_round_trip() {
        let v = Json::Num(0.1 + 0.2);
        let text = v.to_pretty();
        assert_eq!(text.trim(), "0.30000000000000004");
        assert_eq!(parse(&text).unwrap().as_num().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = Json::Str("tab\t, quote\", backslash\\, newline\n, λ".into());
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse("\"\\u0041\\u03bb\"").unwrap(), Json::Str("Aλ".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn field_accessors() {
        let v = parse("{\"a\": 1.5, \"b\": \"x\"}").unwrap();
        assert_eq!(v.num_field("a").unwrap(), 1.5);
        assert_eq!(v.str_field("b").unwrap(), "x");
        assert!(v.num_field("missing").is_err());
        assert!(v.num_field("b").is_err());
    }

    #[test]
    fn string_field_errors_name_the_key() {
        let v = parse("{\"a\": 1.5, \"b\": \"x\"}").unwrap();
        assert_eq!(v.str_field("a").unwrap_err(), "missing or non-string field `a`");
        assert_eq!(v.str_field("zz").unwrap_err(), "missing or non-string field `zz`");
        assert_eq!(v.num_field("b").unwrap_err(), "missing or non-numeric field `b`");
    }

    #[test]
    fn pretty_form_indents_two_spaces_per_level() {
        let v = parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        let want =
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    }\n  ],\n  \"c\": \"x\"\n}\n";
        assert_eq!(v.to_pretty(), want);
    }

    #[test]
    fn empty_containers_print_inline() {
        let v = parse(r#"{"a":[],"b":{}}"#).unwrap();
        assert_eq!(v.to_pretty(), "{\n  \"a\": [],\n  \"b\": {}\n}\n");
        assert_eq!(Json::Arr(vec![]).to_pretty(), "[]\n");
        assert_eq!(Json::Obj(vec![]).to_pretty(), "{}\n");
    }

    #[test]
    fn non_finite_numbers_cannot_enter_a_golden() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Arr(vec![Json::Num(1.0), Json::Num(n)]);
            let err = std::panic::catch_unwind(|| doc.to_pretty()).unwrap_err();
            let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert!(msg.contains("golden metrics must be finite"), "{msg}");
        }
    }
}
