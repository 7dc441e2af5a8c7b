//! The one JSON writer behind the `*_report` bins.
//!
//! Every committed `BENCH_*.json` that a report bin writes opens with the
//! same envelope — `bench`, `description`, `regenerate`, `quick`,
//! `hardware_threads` — and then carries the bin's own fields. Values are
//! [`Json`] trees from the service's codec; [`fixed`] keeps a float at the
//! precision its key has always had. The layout puts each top-level field
//! on its own line and each element of a top-level array on its own line.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin <name>_report [--quick] [--out FILE]
//! ```

use std::fmt::Write as _;

use pmc_service::json::{self, Json};

use crate::loadgen::hardware_threads;

/// One report bin's run: its `--quick` / `--out FILE` arguments and the
/// envelope it writes.
pub struct Report {
    /// `--quick`: the CI-sized run.
    pub quick: bool,
    out: String,
    bin: &'static str,
    bench: &'static str,
    description: &'static str,
}

impl Report {
    /// Parses the process arguments of bin `bin`: `--quick` anywhere, and
    /// `--out FILE` (default `default_out`). Other arguments are ignored.
    pub fn from_args(
        bin: &'static str,
        bench: &'static str,
        description: &'static str,
        default_out: &str,
    ) -> Report {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| default_out.into());
        Report {
            quick: args.iter().any(|a| a == "--quick"),
            out,
            bin,
            bench,
            description,
        }
    }

    /// Writes the envelope followed by `fields` to the `--out` path, and
    /// says so on stdout. Panics if the file cannot be written.
    pub fn write(&self, fields: Vec<(&str, Json)>) {
        let envelope = vec![
            ("bench", json::s(self.bench)),
            ("description", json::s(self.description)),
            (
                "regenerate",
                json::s(format!(
                    "cargo run --release -p pmc-bench --bin {}",
                    self.bin
                )),
            ),
            ("quick", Json::Bool(self.quick)),
            ("hardware_threads", json::n(hardware_threads() as u64)),
        ];
        let text = render(&envelope.into_iter().chain(fields).collect::<Vec<_>>());
        std::fs::write(&self.out, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.out));
        println!("wrote {}", self.out);
    }
}

/// `x` with `digits` decimals, or `null` when it is not finite.
pub fn fixed(x: f64, digits: usize) -> Json {
    if x.is_finite() {
        Json::Num(format!("{x:.digits$}"))
    } else {
        Json::Null
    }
}

fn render(fields: &[(&str, Json)]) -> String {
    let mut s = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let _ = write!(s, "  \"{}\": ", json::escape(key));
        match value {
            Json::Arr(items) if !items.is_empty() => {
                s.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 == items.len() { "" } else { "," };
                    let _ = writeln!(s, "    {}{sep}", json::write(item));
                }
                s.push_str("  ]");
            }
            _ => s.push_str(&json::write(value)),
        }
        s.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_parses_back_and_keeps_precision() {
        let text = render(&[
            ("quick", Json::Bool(true)),
            ("ratio", fixed(2.0, 3)),
            ("none", fixed(f64::NAN, 3)),
            (
                "rows",
                json::arr(vec![
                    json::obj(vec![("n", json::n(1))]),
                    json::obj(vec![("n", json::n(2))]),
                ]),
            ),
            ("empty", json::arr(vec![])),
        ]);
        assert_eq!(
            text,
            "{\n  \"quick\": true,\n  \"ratio\": 2.000,\n  \"none\": null,\n  \"rows\": [\n    {\"n\":1},\n    {\"n\":2}\n  ],\n  \"empty\": []\n}\n"
        );
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("ratio"), Some(&Json::Num("2.000".into())));
    }
}
