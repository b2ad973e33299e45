//! Runs every workload of `BENCHMARK.json` at smoke size on two seeds and
//! checks the result lines against the benchmark's contract: every named
//! metric is printed with its unit, the correctness checks pass, nothing
//! fails, and the exact counts repeat for the same seed.

use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer metrics that count work rather than time it, so they must
/// repeat exactly for the same seed and number of operations.
const EXACT: [&str; 7] = [
    "core.work_per_update",
    "core.era_rebuilds",
    "core.phase_rollovers",
    "core.class_transitions",
    "server.bytes_in_per_command",
    "server.bytes_out_per_command",
    "store.wal_bytes_per_update",
];

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.chars().peekable();
        let value = Self::value(&mut chars);
        Self::skip_ws(&mut chars);
        assert!(
            chars.peek().is_none(),
            "trailing text after JSON value in {text:?}"
        );
        value
    }

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }

    fn value(chars: &mut std::iter::Peekable<std::str::Chars>) -> Json {
        Self::skip_ws(chars);
        match chars.peek().copied() {
            Some('{') => {
                chars.next();
                let mut map = BTreeMap::new();
                loop {
                    Self::skip_ws(chars);
                    match chars.next() {
                        Some('}') => break,
                        Some(',') => continue,
                        Some('"') => {
                            let key = Self::string(chars);
                            Self::skip_ws(chars);
                            assert_eq!(chars.next(), Some(':'));
                            map.insert(key, Self::value(chars));
                        }
                        other => panic!("unexpected {other:?} in object"),
                    }
                }
                Json::Obj(map)
            }
            Some('[') => {
                chars.next();
                let mut items = Vec::new();
                loop {
                    Self::skip_ws(chars);
                    match chars.peek() {
                        Some(']') => {
                            chars.next();
                            break;
                        }
                        Some(',') => {
                            chars.next();
                        }
                        _ => items.push(Self::value(chars)),
                    }
                }
                Json::Arr(items)
            }
            Some('"') => {
                chars.next();
                Json::Str(Self::string(chars))
            }
            _ => {
                let mut word = String::new();
                while chars
                    .peek()
                    .is_some_and(|c| c.is_alphanumeric() || "+-.".contains(*c))
                {
                    word.extend(chars.next());
                }
                match word.as_str() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(
                        number
                            .parse()
                            .unwrap_or_else(|_| panic!("bad token {number:?}")),
                    ),
                }
            }
        }
    }

    fn string(chars: &mut std::iter::Peekable<std::str::Chars>) -> String {
        let mut s = String::new();
        loop {
            match chars.next().expect("unterminated string") {
                '"' => return s,
                '\\' => s.extend(chars.next()),
                c => s.push(c),
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn names(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
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

/// Runs one smoke-size run; returns the result line's metrics as
/// `name → (value, unit)`.
fn run(workload: &str, seed: u64, trace: u8) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {stderr}\n{stdout}"
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("result line"));
    let host = Json::parse(lines.next().expect("host line"));
    assert!(host.get("host").get("nproc").num() >= 1.0);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {stderr}"
    );
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(
        result.get("failed").num(),
        0.0,
        "{workload}: failed operations"
    );
    match result.get("metrics") {
        Json::Obj(map) => map
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    (m.get("value").num(), m.get("unit").str().to_string()),
                )
            })
            .collect(),
        other => panic!("metrics is {other:?}"),
    }
}

fn assert_names(workload: &str, got: &BTreeMap<String, (f64, String)>, want: &[(String, String)]) {
    let got: Vec<(String, String)> = got
        .iter()
        .map(|(n, (_, u))| (n.clone(), u.clone()))
        .collect();
    let mut want = want.to_vec();
    want.sort();
    assert_eq!(
        got, want,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_prints_its_metrics_and_repeats_exact_counts() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let spec = Json::parse(&text);
    let (end_to_end, per_layer) = (names(&spec, "end_to_end"), names(&spec, "per_layer"));
    for workload in spec.get("workloads").arr() {
        let workload = workload.get("name").str();
        for seed in [1, 2] {
            let plain = run(workload, seed, 0);
            assert_names(workload, &plain, &end_to_end);
            for (name, (value, _)) in &plain {
                assert!(
                    *value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
            let traced = run(workload, seed, 1);
            assert_names(workload, &traced, &per_layer);
            let again = run(workload, seed, 1);
            for name in EXACT {
                assert_eq!(
                    traced[name].0, again[name].0,
                    "{workload} seed {seed}: {name} differs between two runs"
                );
            }
        }
    }
}
