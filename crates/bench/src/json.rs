//! Hand-rolled JSON emission for experiment logs.
//!
//! The workspace deliberately keeps its dependency set to
//! `rand`/`proptest`, so experiment results are serialised by this
//! small emitter instead of `serde`. Output is fully
//! deterministic: object keys keep insertion order, floats render via
//! Rust's shortest-round-trip `Display`, and nothing environmental
//! (thread count, timestamps, hostnames) is ever written — the same
//! experiment at the same base seed produces byte-identical files
//! regardless of how many worker threads computed it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use beeps_metrics::MetricsRegistry;

use crate::Table;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also emitted for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite (or not: rendered as `null`) floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object whose keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object builder.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends `key: value` to an object, preserving order.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Object`].
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Renders this value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Shortest round-trip form; `4.0` Displays as "4",
                    // so restore the ".0" to keep float-ness visible.
                    let start = out.len();
                    let _ = write!(out, "{v}");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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
}

/// The **deterministic section** of `metrics` as an ordered JSON object:
/// counters, histograms (count/sum/min/max plus the non-empty log₂
/// buckets as `[index, count]` pairs), and the event-log summary with
/// its retained tail.
///
/// Wall-clock timings are deliberately **not** serialised: experiment
/// JSON files promise byte-identity across reruns and thread counts,
/// and wall times are the one part of a registry that cannot keep that
/// promise.
pub fn metrics_json(metrics: &MetricsRegistry) -> Json {
    let mut counters = Json::object();
    for (name, v) in metrics.counters() {
        counters.set(name, v);
    }
    let mut histograms = Json::object();
    for (name, h) in metrics.histograms() {
        let mut obj = Json::object();
        obj.set("count", h.count()).set("sum", h.sum());
        obj.set("min", h.min().map_or(Json::Null, Json::UInt));
        obj.set("max", h.max().map_or(Json::Null, Json::UInt));
        obj.set(
            "buckets",
            Json::Array(
                h.nonzero_buckets()
                    .map(|(idx, count)| Json::Array(vec![Json::UInt(idx as u64), count.into()]))
                    .collect(),
            ),
        );
        histograms.set(name, obj);
    }
    let ev = metrics.events();
    let mut events = Json::object();
    events
        .set("recorded", ev.recorded())
        .set("dropped", ev.dropped())
        .set("capacity", ev.capacity());
    events.set(
        "retained",
        Json::Array(
            ev.iter()
                .map(|e| {
                    let mut obj = Json::object();
                    obj.set("label", e.label.as_str())
                        .set("round", e.round)
                        .set("value", e.value);
                    obj
                })
                .collect(),
        ),
    );
    let mut root = Json::object();
    root.set("counters", counters)
        .set("histograms", histograms)
        .set("events", events);
    root
}

/// Structured log for one experiment run, written to
/// `target/experiments/<id>.json`.
///
/// Fields and tables appear in the JSON in the order they were added.
/// The output intentionally excludes anything scheduling-dependent so
/// that reruns with different `--threads` stay byte-identical.
///
/// # Examples
///
/// ```
/// use beeps_bench::{ExperimentLog, Json};
///
/// let mut log = ExperimentLog::new("doc_demo");
/// log.field("base_seed", 0xBEEFu64).field("trials", 10usize);
/// assert!(log.render().starts_with("{\"experiment\":\"doc_demo\""));
/// ```
#[derive(Debug)]
pub struct ExperimentLog {
    id: String,
    fields: Vec<(String, Json)>,
    tables: Vec<Json>,
    metrics: Option<Json>,
}

impl ExperimentLog {
    /// A new log for the experiment `id` (also the output file stem).
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_owned(),
            fields: Vec::new(),
            tables: Vec::new(),
            metrics: None,
        }
    }

    /// Records a scalar parameter or result.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.fields.push((key.to_owned(), value.into()));
        self
    }

    /// Records a results [`Table`] (name, columns, stringified rows).
    pub fn table(&mut self, table: &Table) -> &mut Self {
        let mut obj = Json::object();
        obj.set("name", table.name());
        obj.set(
            "columns",
            Json::Array(table.headers().iter().map(|h| h.as_str().into()).collect()),
        );
        obj.set(
            "rows",
            Json::Array(
                table
                    .rows()
                    .iter()
                    .map(|row| Json::Array(row.iter().map(|c| c.as_str().into()).collect()))
                    .collect(),
            ),
        );
        self.tables.push(obj);
        self
    }

    /// Records the deterministic section of `metrics` as the log's
    /// `metrics` block (see [`metrics_json`]); a second call replaces
    /// the first.
    pub fn metrics(&mut self, metrics: &MetricsRegistry) -> &mut Self {
        self.metrics = Some(metrics_json(metrics));
        self
    }

    /// Renders the full log as one JSON object.
    pub fn render(&self) -> String {
        let mut root = Json::object();
        root.set("experiment", self.id.as_str());
        if let Json::Object(fields) = &mut root {
            fields.extend(self.fields.iter().cloned());
        }
        root.set("tables", Json::Array(self.tables.clone()));
        if let Some(metrics) = &self.metrics {
            root.set("metrics", metrics.clone());
        }
        root.render()
    }

    /// The directory experiment logs are written to:
    /// `$BEEPS_EXPERIMENTS_DIR` if set, else `target/experiments`.
    pub fn output_dir() -> PathBuf {
        match std::env::var_os("BEEPS_EXPERIMENTS_DIR") {
            Some(dir) => PathBuf::from(dir),
            None => Path::new("target").join("experiments"),
        }
    }

    /// Writes the log to `<output_dir>/<id>.json`, creating the
    /// directory if needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or the
    /// file write.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = Self::output_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// [`ExperimentLog::write`], reporting the outcome on
    /// stdout/stderr instead of returning it — the one-liner the
    /// experiment binaries end with.
    pub fn save(&self) {
        match self.write() {
            Ok(path) => println!("log: {}", path.display()),
            Err(e) => eprintln!("warning: could not write experiment log: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_nesting() {
        let mut obj = Json::object();
        obj.set("b", true)
            .set("u", 7u64)
            .set("i", -3i64)
            .set("f", 2.5)
            .set("whole", 4.0)
            .set("s", "hi\"\\\n")
            .set("a", vec![1u64, 2]);
        assert_eq!(
            obj.render(),
            r#"{"b":true,"u":7,"i":-3,"f":2.5,"whole":4.0,"s":"hi\"\\\n","a":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let mut obj = Json::object();
        obj.set("zebra", 1u64).set("apple", 2u64);
        assert_eq!(obj.render(), r#"{"zebra":1,"apple":2}"#);
    }

    #[test]
    fn log_embeds_tables() {
        let mut t = Table::new("demo", &["n", "x"]);
        t.row(&[&4, &"1.5"]);
        let mut log = ExperimentLog::new("unit");
        log.field("seed", 9u64).table(&t);
        assert_eq!(
            log.render(),
            r#"{"experiment":"unit","seed":9,"tables":[{"name":"demo","columns":["n","x"],"rows":[["4","1.5"]]}]}"#
        );
    }

    #[test]
    fn rendering_is_reproducible() {
        let mut log = ExperimentLog::new("twice");
        log.field("p", 0.25).field("q", 1u64);
        assert_eq!(log.render(), log.render());
    }

    #[test]
    fn metrics_block_serialises_deterministic_section_only() {
        let mut m = MetricsRegistry::new();
        m.inc("sim.rewind.rewinds", 2);
        m.observe("sim.rewind.rounds", 100);
        m.event("sim.rewind.rewind_storm", 100, 2);
        m.time("sim.rewind.simulate", || ()); // wall: must not appear
        let rendered = metrics_json(&m).render();
        assert!(rendered.contains(r#""sim.rewind.rewinds":2"#));
        assert!(rendered.contains(r#""count":1"#));
        assert!(rendered.contains(r#""recorded":1"#));
        assert!(
            !rendered.contains("wall") && !rendered.contains("simulate"),
            "wall timings leaked into JSON: {rendered}"
        );

        let mut log = ExperimentLog::new("unit_metrics");
        log.field("seed", 1u64).metrics(&m);
        assert!(log.render().contains(r#""metrics":{"counters""#));
    }

    #[test]
    fn empty_registry_serialises_to_empty_sections() {
        let rendered = metrics_json(&MetricsRegistry::new()).render();
        assert!(rendered.starts_with(r#"{"counters":{},"histograms":{},"#));
    }
}
