//! Small helpers over the vendored serde shim's `Value` tree, which is
//! all the JSON this harness reads or writes.

use serde::Value;

/// An object with `entries` in the given order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn texts(items: &[&str]) -> Value {
    Value::Seq(items.iter().map(|s| text(s)).collect())
}

/// `v` as one line of JSON.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always serializes")
}
