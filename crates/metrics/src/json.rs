//! A minimal JSON value and writer — enough for the machine-readable
//! harness summary (`BENCH_mixstudy.json`) and the `repf load` report
//! without an external serialization crate. Shared by the benchmark
//! harness and the serve crate so there is exactly one
//! escaping/formatting implementation.

/// A minimal JSON value.
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (non-finite values render as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// String value from anything displayable.
    pub fn str(s: impl AsRef<str>) -> Json {
        Json::Str(s.as_ref().to_string())
    }

    /// Object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip formatting; force a decimal point
                    // marker only where needed (integers render bare).
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32))
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write `json` to `path` (with a trailing newline), logging the location.
pub fn write_json(path: &str, json: &Json) {
    let body = json.render() + "\n";
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("[time] wrote {path}"),
        Err(e) => eprintln!("[time] could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_and_escapes() {
        let j = Json::obj([
            ("name", Json::str("a\"b\\c\nd")),
            ("n", Json::Num(1.5)),
            ("i", Json::Num(3.0)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Null])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"a\"b\\c\nd","n":1.5,"i":3,"nan":null,"ok":true,"xs":[1,null]}"#
        );
    }

    #[test]
    fn control_chars_get_unicode_escapes() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
