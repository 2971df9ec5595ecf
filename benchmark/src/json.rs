//! Small helpers over the repo's JSON value tree, for writing result
//! files and reading them back in `compare`.

pub use serde::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn int(v: u64) -> Value {
    Value::UInt(v)
}

/// Member `key` of an object, or an error naming what is missing.
pub fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}")),
        _ => Err(format!("expected an object holding {key:?}")),
    }
}

pub fn entries(v: &Value) -> Result<&[(String, Value)], String> {
    match v {
        Value::Map(entries) => Ok(entries),
        other => Err(format!("expected an object, got {other:?}")),
    }
}

pub fn as_str(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

pub fn as_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

pub fn as_list(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Seq(items) => Ok(items),
        other => Err(format!("expected a list, got {other:?}")),
    }
}

pub fn parse(raw: &str) -> Result<Value, String> {
    serde_json::from_str(raw).map_err(|e| e.to_string())
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a value tree always serializes")
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always serializes")
}
