//! The JSON writer. Separators are `", "` and `": "`; integers are
//! written with `Display`, floats in Rust's shortest round-trip `{:?}`
//! form (`5.0`, `1e-7`), so a reader gets every float back bit-exactly.

use std::fmt::Write as _;

/// A value the writer can write: booleans, unsigned integers, `f64`,
/// strings, [`Obj`]s, and `Vec`s of these.
pub trait ToJson {
    /// Append this value's JSON text (line layout) to `out`.
    fn write_json(&self, out: &mut String);
}

/// A JSON object under construction, members in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Obj {
        Obj::default()
    }

    /// This object with `key: value` appended.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl ToJson) -> Obj {
        let mut member = quote(key);
        member.push_str(": ");
        value.write_json(&mut member);
        self.0.push(member);
        self
    }

    /// This object with `key: value` appended if `value` is `Some`.
    #[must_use]
    pub fn with_some(self, key: &str, value: Option<impl ToJson>) -> Obj {
        match value {
            Some(value) => self.with(key, value),
            None => self,
        }
    }

    /// The line layout: the whole object on one line.
    #[must_use]
    pub fn line(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }

    /// The document layout: the line layout, except that each
    /// top-level member sits on its own line, indented two spaces, and
    /// the text ends in a newline.
    #[must_use]
    pub fn document(&self) -> String {
        if self.0.is_empty() {
            return "{}\n".to_owned();
        }
        format!("{{\n  {}\n}}\n", self.0.join(",\n  "))
    }
}

impl ToJson for Obj {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.line());
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(bool, u32, u64, usize);

/// Shortest round-trip form. JSON has no NaN or infinity, so a
/// non-finite float is written as `null`.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push_str(&quote(self));
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        out.push_str(&quote(self));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Quote and escape a string for JSON: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab by name, every
/// other character below U+0020 as `\u00xx`; everything else (U+007F
/// and U+2028 included) is written as is.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Json};

    /// What the writer writes, the reader reads back unchanged:
    /// strings exactly, floats bit-exactly, in both layouts.
    #[test]
    fn writer_output_parses_back_unchanged() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        let mut strings: Vec<String> = ["\"", "\\", "\u{7f}", "\u{2028}", "Δ", "😀", "a\"b\\c\n"]
            .map(str::to_owned)
            .into();
        strings.extend((0..0x20_u8).map(|b| char::from(b).to_string()));
        strings.push(strings.concat());
        let floats = [
            1e-7,
            0.1,
            5.0,
            -0.0,
            1.234_567_890_123_456_8e17,
            f64::MIN_POSITIVE,
        ];
        let obj = Obj::new()
            .with("strings", &strings)
            .with("floats", floats.to_vec())
            .with("nested", Obj::new().with("n", 7_u64).with("b", false));
        let line = obj.line();
        assert!(!line.contains('\n'), "multi-line output: {line}");
        for text in [line, obj.document()] {
            let doc = parse(&text).unwrap();
            let got: Vec<&str> = doc
                .get("strings")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap())
                .collect();
            assert_eq!(got, strings);
            let got = doc.get("floats").and_then(Json::as_arr).unwrap();
            for (x, y) in floats.iter().zip(got) {
                assert_eq!(
                    x.to_bits(),
                    y.as_f64().unwrap().to_bits(),
                    "{x:?} in {text}"
                );
            }
            let nested = doc.get("nested").unwrap();
            assert_eq!(nested.get("n").and_then(Json::as_u64), Some(7));
            assert_eq!(nested.get("b").and_then(Json::as_bool), Some(false));
        }
    }

    #[test]
    fn layouts() {
        let obj = Obj::new()
            .with("a", 1_u64)
            .with(
                "b",
                Obj::new()
                    .with("c", vec![1.5, f64::NAN])
                    .with("e", Vec::<u32>::new()),
            )
            .with_some("d", None::<bool>);
        assert_eq!(obj.line(), r#"{"a": 1, "b": {"c": [1.5, null], "e": []}}"#);
        assert_eq!(
            obj.document(),
            "{\n  \"a\": 1,\n  \"b\": {\"c\": [1.5, null], \"e\": []}\n}\n"
        );
        assert_eq!(Obj::new().line(), "{}");
        assert_eq!(Obj::new().document(), "{}\n");
    }
}
