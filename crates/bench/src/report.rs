//! One description of a gated bench report, two renderings.
//!
//! A report module describes its rows once — per column: the document
//! key, the table header, the value and how the table prints it — as a
//! [`Table`] inside a [`Document`].  [`Document::render`] prints that
//! description through [`format_table`]; [`Document::json`] writes the
//! same description as the `ftimm-bench-<name>-v1` document through
//! [`dspsim::minijson::Writer`], so every artifact is something the
//! repo's own reader parses (no booleans, no bare `inf`/`NaN`):
//!
//! ```json
//! {
//!   "schema": "ftimm-bench-<name>-v1",
//!   "rows": [ {"regime": "..", "m": 8192, "seconds": 1.5e-3}, .. ],
//!   "min_speedup": 41.5,
//!   "gates": [ {"name": "..", "measured": 41.5, "threshold": 30.0, "pass": 1} ]
//! }
//! ```
//!
//! `gates` holds one verdict per `--assert-*` flag the run was given
//! (see [`crate::cli::Cli::gate`]), empty when it was given none.

use crate::common::format_table;
use dspsim::minijson::Writer;
use ftimm::GemmShape;

/// How the printed table shows a measurement (the document keeps every
/// digit).
#[derive(Debug, Clone, Copy)]
pub enum Fmt {
    /// `{:.3e}` — how every report prints simulated seconds.
    Sci,
    /// `Fixed(scale, decimals, unit)`: `scale · v` to `decimals` places,
    /// then `unit` — `Fixed(1e6, 2, "us")`, `Fixed(1.0, 1, "x")`.
    Fixed(f64, usize, &'static str),
}

/// One value of a report.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Text, printed and stored as is.
    Text(String),
    /// A count (flags are counts: 0 or 1).
    Count(u64),
    /// A measurement.
    Num(f64, Fmt),
}

impl Cell {
    fn render(&self) -> String {
        match *self {
            Cell::Text(ref s) => s.clone(),
            Cell::Count(n) => n.to_string(),
            Cell::Num(v, Fmt::Sci) => format!("{v:.3e}"),
            Cell::Num(v, Fmt::Fixed(scale, decimals, unit)) => {
                format!("{:.decimals$}{unit}", v * scale)
            }
        }
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Cell::Text(s) => w.str(s),
            Cell::Count(n) => w.u64(*n),
            Cell::Num(v, _) => w.f64(*v),
        };
    }
}

/// One evaluated column.  An empty `key` keeps it out of the document,
/// an empty `header` out of the printed table.
#[derive(Debug)]
struct Column {
    key: &'static str,
    header: &'static str,
    cells: Vec<Cell>,
}

/// A table over `rows`, built one column at a time.
#[derive(Debug)]
pub struct Table<'r, R> {
    key: &'static str,
    title: String,
    rows: &'r [R],
    cols: Vec<Column>,
}

impl<'r, R> Table<'r, R> {
    /// A table stored under `key` in the document and printed under
    /// `title`.
    pub fn new(key: &'static str, title: impl Into<String>, rows: &'r [R]) -> Self {
        Table {
            key,
            title: title.into(),
            rows,
            cols: Vec::new(),
        }
    }

    /// Add a column: its document key, its table header and each row's
    /// value.
    pub fn col(mut self, key: &'static str, header: &'static str, f: impl Fn(&R) -> Cell) -> Self {
        let cells = self.rows.iter().map(f).collect();
        self.cols.push(Column { key, header, cells });
        self
    }

    /// A GEMM shape: `MxNxK` in the table, `m`/`n`/`k` in the document.
    pub fn shape(self, f: impl Fn(&R) -> GemmShape) -> Self {
        self.col("", "MxNxK", |r| Cell::Text(f(r).to_string()))
            .col("m", "", |r| Cell::Count(f(r).m as u64))
            .col("n", "", |r| Cell::Count(f(r).n as u64))
            .col("k", "", |r| Cell::Count(f(r).k as u64))
    }
}

#[derive(Debug)]
enum Part {
    /// Document key, printed title, columns, row count.
    Table(&'static str, String, Vec<Column>, usize),
    Value(&'static str, Cell),
}

/// One recorded CI-gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate name (the `--assert-*` flag without its prefix).
    pub name: &'static str,
    /// The measured quantity.
    pub measured: f64,
    /// The bound it was held to.
    pub threshold: f64,
    /// Whether it held.
    pub pass: bool,
}

/// A whole report: tables and summary values, in the order added.
#[derive(Debug)]
pub struct Document {
    name: &'static str,
    parts: Vec<Part>,
}

impl Document {
    /// An empty `ftimm-bench-<name>-v1` report.
    pub fn new(name: &'static str) -> Self {
        Document {
            name,
            parts: Vec::new(),
        }
    }

    /// Append a table.
    pub fn table<R>(mut self, t: Table<'_, R>) -> Self {
        self.parts
            .push(Part::Table(t.key, t.title, t.cols, t.rows.len()));
        self
    }

    /// Append a summary value, stored under `key` and printed as
    /// `key: value`.
    pub fn value(mut self, key: &'static str, cell: Cell) -> Self {
        self.parts.push(Part::Value(key, cell));
        self
    }

    /// The printable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for part in &self.parts {
            match part {
                Part::Table(_, title, cols, rows) => {
                    let shown: Vec<&Column> =
                        cols.iter().filter(|c| !c.header.is_empty()).collect();
                    let header: Vec<&str> = shown.iter().map(|c| c.header).collect();
                    let body: Vec<Vec<String>> = (0..*rows)
                        .map(|i| shown.iter().map(|c| c.cells[i].render()).collect())
                        .collect();
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    out.push_str(&format_table(title, &header, &body));
                }
                Part::Value(key, cell) => out.push_str(&format!("{key}: {}\n", cell.render())),
            }
        }
        out
    }

    /// The `ftimm-bench-<name>-v1` document, with the verdicts of the
    /// gates this run evaluated.
    pub fn json(&self, gates: &[Gate]) -> String {
        let mut w = Writer::new(2);
        w.begin_obj();
        w.key("schema")
            .str(&format!("ftimm-bench-{}-v1", self.name));
        for part in &self.parts {
            match part {
                Part::Table(key, _, cols, rows) => {
                    let stored: Vec<&Column> = cols.iter().filter(|c| !c.key.is_empty()).collect();
                    w.key(key).begin_arr();
                    for i in 0..*rows {
                        w.begin_obj();
                        for c in &stored {
                            w.key(c.key);
                            c.cells[i].write(&mut w);
                        }
                        w.end_obj();
                    }
                    w.end_arr();
                }
                Part::Value(key, cell) => {
                    w.key(key);
                    cell.write(&mut w);
                }
            }
        }
        w.key("gates").begin_arr();
        for g in gates {
            w.begin_obj();
            w.key("name").str(g.name);
            w.key("measured").f64(g.measured);
            w.key("threshold").f64(g.threshold);
            w.key("pass").u64(g.pass.into());
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

/// Test support for the report modules: parse a document with the
/// repo's own reader and hand back the named table's rows.
#[cfg(test)]
pub(crate) fn parsed(doc: &Document, name: &str) -> dspsim::minijson::Value {
    let v = dspsim::minijson::Parser::new(&doc.json(&[]))
        .parse()
        .unwrap_or_else(|e| panic!("{name} report is not readable: {e}"));
    let schema = v.get("schema").expect("schema").as_str("schema").unwrap();
    assert_eq!(schema, format!("ftimm-bench-{name}-v1"));
    assert!(v
        .get("gates")
        .expect("gates")
        .as_arr("gates")
        .unwrap()
        .is_empty());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::minijson::{Parser, Value};

    struct Row {
        label: &'static str,
        shape: GemmShape,
        ratio: f64,
    }

    fn sample(ratio: f64) -> Document {
        let rows = [
            Row {
                label: "say \"hi\"",
                shape: GemmShape::new(4096, 32, 512),
                ratio,
            },
            Row {
                label: "b",
                shape: GemmShape::new(8, 8, 8),
                ratio: 0.5,
            },
        ];
        Document::new("sample")
            .value("host", Cell::Text("x86".into()))
            .table(
                Table::new("rows", "Sample", &rows)
                    .col("label", "label", |r| Cell::Text(r.label.into()))
                    .shape(|r| r.shape)
                    .col("ratio", "ratio", |r| {
                        Cell::Num(r.ratio, Fmt::Fixed(1.0, 1, "x"))
                    })
                    .col("percent", "", |r| {
                        Cell::Num(r.ratio, Fmt::Fixed(100.0, 0, "%"))
                    }),
            )
            .value("worst", Cell::Num(ratio, Fmt::Sci))
            .value("flag", Cell::Count(1))
    }

    #[test]
    fn one_description_renders_as_table_and_as_document() {
        let doc = sample(2.25);
        let text = doc.render();
        assert!(text.starts_with("host: x86\n\nSample\n"), "{text}");
        let header = text.lines().nth(3).unwrap();
        assert_eq!(
            header.split_whitespace().collect::<Vec<_>>(),
            ["label", "MxNxK", "ratio"]
        );
        assert!(
            text.contains("4096x32x512") && text.contains("2.2x"),
            "{text}"
        );
        assert!(text.ends_with("worst: 2.250e0\nflag: 1\n"), "{text}");

        let v = Parser::new(&doc.json(&[])).parse().unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str("s"),
            Ok("ftimm-bench-sample-v1")
        );
        assert_eq!(v.get("host").unwrap().as_str("s"), Ok("x86"));
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), 2);
        let keys: Vec<&str> = rows[0]
            .as_obj("row")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["label", "m", "n", "k", "ratio", "percent"]);
        assert_eq!(rows[0].get("label").unwrap().as_str("s"), Ok("say \"hi\""));
        assert_eq!(rows[0].get("m").unwrap().as_u64("m"), Ok(4096));
        assert_eq!(rows[0].get("ratio").unwrap().as_f64("r"), Ok(2.25));
        assert_eq!(v.get("flag").unwrap().as_u64("f"), Ok(1));
        assert_eq!(v.get("gates"), Some(&Value::Arr(vec![])));
    }

    #[test]
    fn non_finite_values_and_gates_still_parse() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let gate = Gate {
                name: "ratio",
                measured: bad,
                threshold: 2.0,
                pass: false,
            };
            let v = Parser::new(&sample(bad).json(&[gate])).parse().unwrap();
            let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
            assert_eq!(rows[0].get("ratio").unwrap().as_str("r"), Ok("inf"));
            assert_eq!(
                v.get("worst").unwrap().as_f64_or_inf("w"),
                Ok(f64::INFINITY)
            );
            let gates = v.get("gates").unwrap().as_arr("gates").unwrap();
            assert_eq!(gates[0].get("name").unwrap().as_str("n"), Ok("ratio"));
            assert_eq!(gates[0].get("measured").unwrap().as_str("m"), Ok("inf"));
            assert_eq!(gates[0].get("threshold").unwrap().as_f64("t"), Ok(2.0));
            assert_eq!(gates[0].get("pass").unwrap().as_u64("p"), Ok(0));
        }
    }
}
