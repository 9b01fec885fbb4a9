//! The one report format every extension probe emits.
//!
//! A [`Report`] is the bench name, an ordered config list, and named
//! sections of ordered rows of `(key, value)` pairs. [`Report::to_json`] is
//! the only JSON emitter and [`Report::tables`] the only table renderer, so
//! every probe frames, orders and rounds its measurements the same way.
//! The JSON is hand-rolled (the bench crate carries no serde) with a fixed
//! field order and fixed-precision floats, so two runs with the same seed
//! emit byte-identical files — the determinism gate in `scripts/check.sh`
//! diffs exactly this.

use crate::common::BenchConfig;
use crate::figures::Figure;
use std::fmt;
use xlsm_core::report::{f, Table};

/// Decimal places of a measured float in the JSON rows.
const ROW_PRECISION: usize = 3;

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    /// A label, emitted as a JSON string.
    Str(String),
    /// A count.
    Int(u64),
    /// A float and the decimal places it is emitted with.
    Float(f64, usize),
    /// A float list sharing one precision.
    List(Vec<f64>, usize),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v, ROW_PRECISION)
    }
}

impl<const N: usize> From<[f64; N]> for Value {
    fn from(vs: [f64; N]) -> Value {
        Value::List(vs.to_vec(), ROW_PRECISION)
    }
}

impl fmt::Display for Value {
    /// The JSON encoding.
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(out, "\"{s}\""),
            Value::Int(n) => write!(out, "{n}"),
            Value::Float(v, prec) => write!(out, "{v:.prec$}"),
            Value::List(vs, prec) => {
                let items: Vec<String> = vs.iter().map(|v| format!("{v:.prec$}")).collect();
                write!(out, "[{}]", items.join(", "))
            }
        }
    }
}

/// An ordered list of `(key, value)` pairs: one JSON object.
#[derive(Clone, Debug)]
pub(crate) struct Row(pub(crate) Vec<(&'static str, Value)>);

/// Builds a [`Row`] from `"key" => value` pairs, converting each value
/// with [`Value::from`].
macro_rules! row {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::report::Row(vec![$(($key, $crate::report::Value::from($value))),*])
    };
}
pub(crate) use row;

impl Row {
    /// The value stored under `key`.
    ///
    /// # Panics
    ///
    /// If the row has no such key (a probe/table mismatch).
    #[must_use]
    pub(crate) fn get(&self, key: &str) -> &Value {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("row has no field {key:?}"))
    }

    /// The numeric value stored under `key`.
    ///
    /// # Panics
    ///
    /// If the key is missing or holds a string or list.
    #[must_use]
    pub(crate) fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Value::Int(n) => *n as f64,
            Value::Float(v, _) => *v,
            other => panic!("field {key:?} is not a number: {other:?}"),
        }
    }

    /// Replaces the value under an existing `key`, keeping its position.
    ///
    /// # Panics
    ///
    /// If the row has no such key.
    pub(crate) fn set(&mut self, key: &str, value: impl Into<Value>) {
        let slot = self
            .0
            .iter_mut()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("row has no field {key:?}"));
        slot.1 = value.into();
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `num / den`, or 0 when the baseline is empty — the convention for every
/// `*_vs_*` and speedup column.
#[must_use]
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A table projected from one report section: each column is
/// `(header, key, precision)`. Precision applies to floats only; a key of
/// the form `name[i]` selects element `i` of a float list.
#[derive(Clone, Copy, Debug)]
pub struct TableSpec {
    /// TSV file stem (`results/<name>.tsv`).
    pub name: &'static str,
    /// Title printed above the table.
    pub title: &'static str,
    /// Report section the rows come from.
    pub section: &'static str,
    /// `(header, key, precision)` per column.
    pub columns: &'static [(&'static str, &'static str, usize)],
}

/// A probe's full output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Probe name; the JSON's `"bench"` field.
    pub bench: &'static str,
    /// Run configuration, emitted as the `"config"` object.
    config: Row,
    /// Named sections of rows, in emission order.
    sections: Vec<(&'static str, Vec<Row>)>,
}

impl Report {
    /// An empty report whose config carries the key count, value size and
    /// seed every probe shares.
    #[must_use]
    pub(crate) fn new(bench: &'static str, cfg: &BenchConfig) -> Report {
        Report {
            bench,
            config: row! {
                "key_count" => cfg.key_count,
                "value_size" => cfg.value_size,
                "seed" => cfg.seed,
            },
            sections: Vec::new(),
        }
    }

    /// Appends a config entry.
    #[must_use]
    pub(crate) fn with_config(mut self, key: &'static str, value: Value) -> Report {
        self.config.0.push((key, value));
        self
    }

    /// Appends a section.
    #[must_use]
    pub(crate) fn with_section(mut self, name: &'static str, rows: Vec<Row>) -> Report {
        self.sections.push((name, rows));
        self
    }

    /// The rows of section `name`.
    ///
    /// # Panics
    ///
    /// If the report has no such section.
    fn section(&self, name: &str) -> &[Row] {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, rows)| rows.as_slice())
            .unwrap_or_else(|| panic!("{} report has no section {name:?}", self.bench))
    }

    /// Serializes the report as JSON: one line per row.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"bench\": \"{}\",\n  \"config\": {},\n",
            self.bench,
            self.config.to_json()
        );
        for (i, (name, rows)) in self.sections.iter().enumerate() {
            s.push_str(&format!("  \"{name}\": [\n"));
            for (j, row) in rows.iter().enumerate() {
                let comma = if j + 1 == rows.len() { "" } else { "," };
                s.push_str(&format!("    {}{comma}\n", row.to_json()));
            }
            s.push_str(if i + 1 == self.sections.len() {
                "  ]\n"
            } else {
                "  ],\n"
            });
        }
        s.push_str("}\n");
        s
    }

    /// Renders the declared tables (for the `figures` binary and stdout).
    #[must_use]
    pub fn tables(&self, specs: &[TableSpec]) -> Vec<Figure> {
        specs
            .iter()
            .map(|spec| {
                let headers: Vec<&str> = spec.columns.iter().map(|c| c.0).collect();
                let mut table = Table::new(spec.title, &headers);
                for row in self.section(spec.section) {
                    table.row(
                        spec.columns
                            .iter()
                            .map(|&(_, key, prec)| cell(row, key, prec))
                            .collect(),
                    );
                }
                (spec.name.to_owned(), table)
            })
            .collect()
    }
}

/// One table cell: `key` (or `name[i]` for a list element) at `prec`.
fn cell(row: &Row, key: &str, prec: usize) -> String {
    let (name, index) = match key.split_once('[') {
        Some((name, rest)) => {
            let index = rest.trim_end_matches(']').parse::<usize>();
            (name, Some(index.expect("list index")))
        }
        None => (key, None),
    };
    match (row.get(name), index) {
        (Value::Str(s), None) => s.clone(),
        (Value::Int(n), None) => n.to_string(),
        (Value::Float(v, _), None) => f(*v, prec),
        (Value::List(vs, _), Some(i)) => f(vs[i], prec),
        (value, _) => panic!("column {key:?} does not fit {value:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> Report {
        let cfg = BenchConfig {
            key_count: 8,
            value_size: 16,
            duration: Duration::from_millis(1),
            seed: 7,
        };
        Report::new("golden", &cfg)
            .with_config("window_secs", Value::Float(3.2, 1))
            .with_section(
                "points",
                vec![
                    row! {"device" => "sata", "ops" => 3u64, "kops" => 1.5, "cdf" => [0.25, 1.0]},
                    row! {"device" => "xpoint", "ops" => 12usize, "kops" => 2.0 / 3.0, "cdf" => [0.0, 0.5]},
                ],
            )
            .with_section("single", vec![row! {"rate" => "inline".to_owned()}])
    }

    #[test]
    fn json_matches_the_golden_encoding() {
        let expect = "{\n  \"bench\": \"golden\",\n  \
                      \"config\": {\"key_count\": 8, \"value_size\": 16, \"seed\": 7, \"window_secs\": 3.2},\n  \
                      \"points\": [\n    \
                      {\"device\": \"sata\", \"ops\": 3, \"kops\": 1.500, \"cdf\": [0.250, 1.000]},\n    \
                      {\"device\": \"xpoint\", \"ops\": 12, \"kops\": 0.667, \"cdf\": [0.000, 0.500]}\n  \
                      ],\n  \
                      \"single\": [\n    \
                      {\"rate\": \"inline\"}\n  \
                      ]\n}\n";
        assert_eq!(sample().to_json(), expect);
    }

    #[test]
    fn tables_project_declared_columns() {
        const SPEC: TableSpec = TableSpec {
            name: "golden_points",
            title: "Golden",
            section: "points",
            columns: &[
                ("device", "device", 0),
                ("ops", "ops", 0),
                ("kops", "kops", 1),
                ("le_half", "cdf[1]", 2),
            ],
        };
        let tables = sample().tables(&[SPEC]);
        assert_eq!(tables.len(), 1);
        let (name, table) = &tables[0];
        assert_eq!(name, "golden_points");
        assert_eq!(table.headers, ["device", "ops", "kops", "le_half"]);
        assert_eq!(
            table.rows,
            [
                ["sata", "3", "1.5", "1.00"],
                ["xpoint", "12", "0.7", "0.50"]
            ]
        );
    }

    #[test]
    fn set_keeps_the_field_position_and_ratio_guards_zero() {
        let mut r = row! {"a" => 1.0, "speedup" => 1.0, "b" => 2u64};
        r.set("speedup", ratio(r.num("b"), 4.0));
        assert_eq!(r.0[1], ("speedup", Value::Float(0.5, ROW_PRECISION)));
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
