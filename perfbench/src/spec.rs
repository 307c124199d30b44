//! The benchmark's metric catalogue and result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test parses that file and checks both lists agree.

use std::collections::BTreeMap;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["pipeline_n400", "infer_n3600", "serve_n400"];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload's traced
/// run. A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("snn.train_s", "s"),
    ("snn.train_samples_per_s", "1/s"),
    ("snn.train_spikes", "count"),
    ("engine.label_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.infer_s", "s"),
    ("engine.samples_per_s", "1/s"),
    ("engine.output_spikes", "count"),
    ("engine.lif_updates", "count"),
    ("pool.dispatches", "count"),
    ("pool.busy_peak", "count"),
    ("error.inject_s", "s"),
    ("error.flipped_bits", "count"),
    ("error.ber_ratio", "ratio"),
    ("snn.plane_rebuild_s", "s"),
    ("core.weak_cells_s", "s"),
    ("core.mapping_s", "s"),
    ("core.tiers_s", "s"),
    ("dram.replay_s", "s"),
    ("dram.trace_ops", "count"),
    ("dram.row_hits", "count"),
    ("dram.row_misses", "count"),
    ("energy.pass_mj", "mJ"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.chunk_len_mean", "count"),
    ("serve.gen_late_ms.p99", "ms"),
    ("serve.rejected", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Collected metric values of one run, keyed by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// The machine-read last line of a run: `correct`, `attempted`,
/// `failed` and one `{value, unit}` entry per catalogue metric.
///
/// A metric missing from `values` is an error (the run fails loudly
/// instead of printing a partial result).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut correct = correct;
    let mut entries = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = if value.is_finite() {
            value
        } else {
            // JSON has no infinity: an unmeasurable value fails the run.
            correct = false;
            f64::MAX
        };
        // `{:?}` prints the shortest round-trip decimal: every digit.
        entries.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        entries.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Minimal JSON reader for the test below.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("missing key {key}")),
                _ => panic!("not an object"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
            self.i += 1;
        }
        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        let Json::Str(key) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        fields.push((key, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(fields);
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(items);
                    }
                    loop {
                        items.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b']' {
                            return Json::Arr(items);
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes unsupported");
                        self.i += 1;
                    }
                    self.i += 1;
                    Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
                }
                b't' => {
                    self.i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.i += 5;
                    Json::Bool(false)
                }
                b'n' => {
                    self.i += 4;
                    Json::Null
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&self.s[start..self.i])
                            .unwrap()
                            .parse()
                            .unwrap(),
                    )
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, text.len(), "trailing content");
        v
    }

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    }

    fn ours(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_declared_metric_is_printed() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn every_workload_records_why_it_was_chosen() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").arr();
        let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            let why = w.get("why").str();
            assert!(!why.trim().is_empty() && !why.contains('\n'), "{why:?}");
        }
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut values = Values::new();
        for &(name, _) in END_TO_END {
            values.insert(name, 1.25);
        }
        let line = result_line(true, 3, 0, END_TO_END, &values).unwrap();
        let doc = parse(&line);
        assert_eq!(doc.get("correct"), &Json::Bool(true));
        assert_eq!(doc.get("attempted"), &Json::Num(3.0));
        for &(name, unit) in END_TO_END {
            let m = doc.get("metrics").get(name);
            assert_eq!(m.get("unit").str(), unit);
            assert_eq!(m.get("value"), &Json::Num(1.25));
        }
        values.remove("tail_ms");
        assert!(result_line(true, 3, 0, END_TO_END, &values).is_err());
    }

    #[test]
    fn non_finite_value_fails_the_run() {
        let mut values = Values::new();
        for &(name, _) in END_TO_END {
            values.insert(name, 2.0);
        }
        values.insert("tail_ms", f64::INFINITY);
        let doc = parse(&result_line(true, 1, 0, END_TO_END, &values).unwrap());
        assert_eq!(doc.get("correct"), &Json::Bool(false));
    }
}
