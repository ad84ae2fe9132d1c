//! Minimal JSON serialisation for experiment artifacts.
//!
//! The workspace builds fully offline, so instead of serde the experiment
//! binaries construct [`Json`] trees explicitly via [`ToJson`] and write
//! them with a small pretty-printer. Output is plain, valid JSON — the
//! artifact files under `results/` keep their existing shape.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (non-finite values print as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each element.
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |out, v, ind| {
                v.write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.iter(), |out, (k, v), ind| {
                write_escaped(out, k);
                out.push_str(": ");
                v.write(out, ind);
            }),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut each: impl FnMut(&mut String, T, usize),
) {
    if items.len() == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    let inner = indent + 2;
    let mut first = true;
    for item in items {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(inner));
        each(out, item, inner);
    }
    out.push('\n');
    out.extend(std::iter::repeat(' ').take(indent));
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&cmr_obs::json_escape(s));
    out.push('"');
}

/// Conversion into a [`Json`] tree — the role serde's `Serialize` played.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|v| v.to_json()).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

num_to_json!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escaping() {
        assert_eq!(Json::Num(1.5).pretty(), "1.5\n");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::Str("a\"b\\c\nd".into()).pretty(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(true.to_json().pretty(), "true\n");
    }

    #[test]
    fn nested_structure_pretty_prints() {
        let j = Json::obj([
            ("name", "x".to_json()),
            ("vals", Json::arr([1usize, 2, 3])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.pretty(),
            "{\n  \"name\": \"x\",\n  \"vals\": [\n    1,\n    2,\n    3\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::arr([10usize, 20]).pretty(), "[\n  10,\n  20\n]\n");
    }
}
