//! The benchmark's own tiny-scale tests: every metric `BENCHMARK.json`
//! names is printed with its unit, every correctness check fires on a
//! deliberately diverged twin, and a traced run writes only into the
//! output directory it is given.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use perfbench::{run, Config, Report, Workload, END_TO_END, PER_LAYER};

/// A minimal JSON value, enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.at], c,
            "expected {} at byte {}",
            c as char, self.at
        );
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.at];
            self.at += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.at];
                    self.at += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.at] {
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(map);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    map.insert(k, self.value());
                    self.ws();
                    self.at += 1;
                    if self.s[self.at - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.at += 1;
                    if self.s[self.at - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.at += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.at += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.at += 4;
                Json::Null
            }
            _ => {
                let start = self.at;
                while self.at < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ascii number");
                Json::Num(text.parse().expect("number"))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    p.value()
}

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn text(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("{other:?} is not a string"),
    }
}

fn items(j: &Json) -> &[Json] {
    match j {
        Json::Arr(v) => v,
        other => panic!("{other:?} is not an array"),
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    items(field(&benchmark_json(), section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// A fresh directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn tiny(workload: Workload, trace: bool, diverge: bool, out_dir: PathBuf) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 0.4,
        trace,
        out_dir,
        tiny: true,
        diverge,
    }
}

fn run_ok(config: &Config) -> Report {
    run(config).unwrap_or_else(|e| panic!("{} failed to run: {e}", config.workload.name()))
}

/// The metrics of a report's result line, as `(name, unit)`.
fn printed(report: &Report) -> Vec<(String, String)> {
    let line = parse(&report.to_json());
    assert!(matches!(field(&line, "correct"), Json::Bool(_)));
    assert!(matches!(field(&line, "attempted"), Json::Num(n) if *n >= 1.0));
    assert!(matches!(field(&line, "failed"), Json::Num(_)));
    match field(&line, "metrics") {
        Json::Obj(m) => m
            .iter()
            .map(|(name, v)| {
                assert!(
                    matches!(field(v, "value"), Json::Num(_)),
                    "{name} has a number"
                );
                (name.clone(), text(field(v, "unit")).to_string())
            })
            .collect(),
        other => panic!("metrics is {other:?}"),
    }
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue_and_workloads() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let names: Vec<String> = items(field(&benchmark_json(), "workloads"))
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let dir = temp_dir("metrics");
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run_ok(&tiny(workload, trace, false, dir.clone()));
            assert!(
                report.check_failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                report.check_failures
            );
            assert_eq!(
                report.failed,
                0,
                "{} had failed operations",
                workload.name()
            );
            assert_eq!(
                sorted(printed(&report)),
                sorted(declared(section)),
                "{} trace={trace}",
                workload.name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_check_fires_on_a_diverged_twin() {
    let dir = temp_dir("diverge");
    let expected: [(Workload, &[&str]); 3] = [
        (Workload::WireServe, &["wire_serve twin check"]),
        (
            Workload::EmbeddedSliding,
            &[
                "embedded_sliding checkpoint check",
                "embedded_sliding oracle check",
            ],
        ),
        (
            Workload::ClusterSliding,
            &["coordinator's sample differs", "message counters differ"],
        ),
    ];
    for (workload, checks) in expected {
        let report = run_ok(&tiny(workload, false, true, dir.clone()));
        for check in checks {
            assert!(
                report.check_failures.iter().any(|f| f.contains(check)),
                "{}: expected {check:?} among {:?}",
                workload.name(),
                report.check_failures
            );
        }
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            out.push(e.path());
        }
    }
    out.sort();
    out
}

#[test]
fn traced_output_goes_to_the_given_dir_never_the_cwd() {
    let cwd = std::env::current_dir().expect("cwd");
    let before = (listing(&cwd), listing(&cwd.join("target/perfbench")));
    let dir = temp_dir("trace");
    let report = run_ok(&tiny(Workload::ClusterSliding, true, false, dir.clone()));
    assert!(report.check_failures.is_empty());
    let spans = std::fs::read_to_string(dir.join("cluster_sliding.spans.csv")).expect("span dump");
    assert!(spans.starts_with("thread,id,parent,req,name,start_ns,end_ns\n"));
    assert!(spans.contains(",cluster.observe,"));
    let waterfall =
        std::fs::read_to_string(dir.join("cluster_sliding.waterfall.txt")).expect("waterfall");
    assert!(waterfall.contains("fused sampler, isolated"));
    let after = (listing(&cwd), listing(&cwd.join("target/perfbench")));
    assert_eq!(before, after, "a run wrote outside its output directory");
    let _ = std::fs::remove_dir_all(&dir);
}
