//! The one reader and writer of the `BENCH_<section>.json` files.
//!
//! Every golden-gated `repro` section describes its numbers as a
//! [`BenchReport`]: ordered `"key": value` pairs of JSON scalars, written one
//! per line in a flat object that starts with `section` and `quick`.  The
//! same type parses a committed golden copy back and diffs two reports under
//! two key classes, told apart by the key's suffix:
//!
//! * **timing keys** (`*_micros`, `*_nanos`, `*speedup`) are host
//!   measurements — both sides must merely be positive numbers;
//! * **everything else** (simulated cycles, counts, lifecycle states,
//!   cycle ratios) is deterministic and must match exactly.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

/// One section's benchmark numbers, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// `(key, value)` pairs; each value is the JSON literal as written.
    fields: Vec<(String, String)>,
}

/// A JSON scalar as it appears in a report: integers and booleans as
/// written, floats with three decimals (or [`Value::fixed`]), strings
/// quoted.
#[derive(Debug, Clone)]
pub struct Value(String);

impl Value {
    /// A float with `places` decimals.
    pub fn fixed(v: f64, places: usize) -> Self {
        Value(format!("{v:.places$}"))
    }
}

macro_rules! literal_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value(v.to_string())
            }
        }
    )*};
}
literal_values!(bool, i32, i64, u32, u64, u128, usize);

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::fixed(v, 3)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        assert_plain(s);
        Value(format!("\"{s}\""))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::from(s.as_str())
    }
}

/// Keys and string values are written unescaped, so they must not need
/// escaping.
fn assert_plain(s: &str) {
    assert!(
        !s.contains(['"', '\\', '\n']),
        "bench report text needs escaping: {s:?}"
    );
}

/// Is this key a host-timing measurement (machine-dependent)?
fn is_timing_key(key: &str) -> bool {
    key.ends_with("_micros") || key.ends_with("_nanos") || key.ends_with("speedup")
}

impl BenchReport {
    /// A report for `section`, opened with the `section` and `quick` keys
    /// every benchmark file starts with.
    pub fn new(section: &str, quick: bool) -> Self {
        let mut r = BenchReport { fields: Vec::new() };
        r.push("section", section);
        r.push("quick", quick);
        r
    }

    /// Append one key.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        assert_plain(&key);
        self.fields.push((key, value.into().0));
    }

    /// The JSON literal written for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The section this report belongs to.
    pub fn section(&self) -> &str {
        self.get("section").unwrap_or("").trim_matches('"')
    }

    /// The keys in emission order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Render as the flat scalar JSON object, one key per line.
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let sep = if i + 1 == self.fields.len() { "" } else { "," };
            s.push_str(&format!("  \"{key}\": {value}{sep}\n"));
        }
        s.push_str("}\n");
        s
    }

    /// Write the rendered report atomically (temp file + fsync + rename),
    /// so a crashed run never leaves a half-written benchmark file behind.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Parse the format [`BenchReport::render`] writes.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut fields = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if matches!(line, "" | "{" | "}") {
                continue;
            }
            let entry = line.strip_suffix(',').unwrap_or(line);
            let Some((key, value)) = entry
                .strip_prefix('"')
                .and_then(|rest| rest.split_once("\": "))
            else {
                return Err(format!("unparseable line: `{line}`"));
            };
            fields.push((key.to_string(), value.to_string()));
        }
        if fields.is_empty() {
            return Err("no fields found".to_string());
        }
        Ok(BenchReport { fields })
    }

    /// Diff this (freshly emitted) report against its golden copy: the same
    /// keys in the same order, timing keys positive on both sides, every
    /// other key identical.  Returns the mismatch descriptions (empty =
    /// pass).
    pub fn diff(&self, golden: &BenchReport) -> Vec<String> {
        let golden_map: HashMap<&str, &str> = golden
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let actual_map: HashMap<&str, &str> = self
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let mut errors: Vec<String> = golden
            .keys()
            .filter(|k| !actual_map.contains_key(k))
            .map(|k| format!("missing key `{k}`"))
            .collect();
        for (key, a) in &self.fields {
            let Some(g) = golden_map.get(key.as_str()) else {
                errors.push(format!("unexpected key `{key}`"));
                continue;
            };
            if is_timing_key(key) {
                let positive = |v: &str| v.parse::<f64>().is_ok_and(|v| v > 0.0);
                if !positive(a) || !positive(g) {
                    errors.push(format!(
                        "timing key `{key}` must be a positive number (actual `{a}`, golden `{g}`)"
                    ));
                }
            } else if a != g {
                errors.push(format!("key `{key}`: actual `{a}` != golden `{g}`"));
            }
        }
        if errors.is_empty() {
            if let Some((a, g)) = self.keys().zip(golden.keys()).find(|(a, g)| a != g) {
                errors.push(format!(
                    "key order differs from the golden: `{a}` where the golden has `{g}`"
                ));
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_golden_file_round_trips_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let golden = std::fs::read_to_string(&path).unwrap();
            let report =
                BenchReport::parse(&golden).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(report.render(), golden, "{}", path.display());
            assert!(report.diff(&report).is_empty(), "{}", path.display());
            checked += 1;
        }
        assert!(checked >= 12, "only {checked} golden files found");
    }

    #[test]
    fn diff_flags_deterministic_drift_but_not_timing_drift() {
        let mut r = BenchReport::new("verify_scale", true);
        r.push("cache.first_micros", 556u64);
        r.push("cache.speedup", 29.263);
        r.push("hot_swap.unverified_serves", 0u64);
        r.push("hot_swap.v1_state", "retired");
        let json = r.render();
        let golden = BenchReport::parse(&json).unwrap();
        let diff = |text: String| BenchReport::parse(&text).unwrap().diff(&golden);
        // Timing drift: fine.
        let timing_drift = json.replace(
            "\"cache.first_micros\": 556",
            "\"cache.first_micros\": 999999",
        );
        assert!(diff(timing_drift).is_empty());
        // Deterministic drift: flagged.
        let real_drift = json.replace(
            "\"hot_swap.unverified_serves\": 0",
            "\"hot_swap.unverified_serves\": 1",
        );
        let errors = diff(real_drift);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("unverified_serves"));
        // A zero timing value is also flagged (the measurement didn't run).
        let zeroed = json.replace("\"cache.speedup\": 29.263", "\"cache.speedup\": 0.000");
        let errors = diff(zeroed);
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn diff_flags_missing_extra_and_reordered_keys() {
        let mut golden = BenchReport::new("fig5", true);
        golden.push("a", 1u64);
        golden.push("b", 2u64);
        let mut missing = BenchReport::new("fig5", true);
        missing.push("a", 1u64);
        missing.push("c", 2u64);
        let errors = missing.diff(&golden);
        assert_eq!(errors, ["missing key `b`", "unexpected key `c`"]);
        let mut reordered = BenchReport::new("fig5", true);
        reordered.push("b", 2u64);
        reordered.push("a", 1u64);
        let errors = reordered.diff(&golden);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("order"));
    }

    #[test]
    fn values_render_as_json_scalars() {
        let mut r = BenchReport::new("demo", false);
        r.push("ratio", 104.1336);
        r.push("required", Value::fixed(3.0, 1));
        r.push("label", "11-layer NN");
        assert_eq!(
            r.render(),
            "{\n  \"section\": \"demo\",\n  \"quick\": false,\n  \"ratio\": 104.134,\n  \
             \"required\": 3.0,\n  \"label\": \"11-layer NN\"\n}\n"
        );
        assert_eq!(r.section(), "demo");
        assert_eq!(r.get("ratio"), Some("104.134"));
    }
}
