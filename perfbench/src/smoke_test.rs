//! `--smoke` end to end: every workload, both passes, against the names
//! `BENCHMARK.json` promises.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::{run_one, workload, RunArgs, RunResult};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

fn smoke(name: &str, seed: u64, trace: bool) -> RunResult {
    let args = RunArgs {
        workload: workload::find(name).unwrap_or_else(|| panic!("unknown workload {name}")),
        seed,
        seconds: 0.5,
        trace,
        smoke: true,
    };
    let result = run_one(&root(), &args).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        result.correct,
        "{name} seed {seed} trace {trace}: {} failed",
        result.failed
    );
    assert!(result.attempted >= 1);
    result
}

/// `name → unit` of a list in `BENCHMARK.json`; names are legal and unique.
fn promised(spec: &Json, list: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in spec.get(list).map(Json::as_array).unwrap_or_default() {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .expect("a name")
            .to_string();
        let unit = entry
            .get("unit")
            .and_then(Json::as_str)
            .expect("a unit")
            .to_string();
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "illegal metric name {name}"
        );
        assert!(
            out.insert(name.clone(), unit).is_none(),
            "{name} is listed twice"
        );
    }
    out
}

/// Every promised metric printed exactly once, with the promised unit.
fn assert_prints(result: &RunResult, promised: &BTreeMap<String, String>, what: &str) {
    let mut printed = BTreeMap::new();
    for (name, value, unit) in &result.metrics {
        assert!(value.is_finite(), "{what}: {name} is {value}");
        assert!(
            printed.insert(name.clone(), unit.to_string()).is_none(),
            "{what}: {name} twice"
        );
    }
    assert_eq!(&printed, promised, "{what}");
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, v, _)| *v)
        .expect(name)
}

#[test]
fn smoke_run_prints_what_benchmark_json_promises_and_counts_repeat() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = promised(&spec, "end_to_end");
    let per_layer = promised(&spec, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    let names: Vec<&str> = spec
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, workload::WORKLOADS.map(|w| w.name));

    const COUNTS: [&str; 4] = [
        "compiler.maps",
        "compiler.statements",
        "net.wire.bytes_per_event.b64",
        "net.wire.bytes_per_event.b1",
    ];
    for name in names {
        let (a, b, other_seed) = (
            smoke(name, 5, false),
            smoke(name, 5, false),
            smoke(name, 6, false),
        );
        for run in [&a, &b, &other_seed] {
            assert_prints(run, &end_to_end, name);
        }
        // Same seed, same inputs, same state; another seed, another stream.
        let inputs = |run: &RunResult| run.notes.split(" mismatches").next().map(str::to_string);
        assert_eq!(value(&a, "state_bytes"), value(&b, "state_bytes"), "{name}");
        assert_eq!(inputs(&a), inputs(&b), "{name}");
        assert_ne!(
            inputs(&a),
            inputs(&other_seed),
            "{name}: seed 6 generated seed 5's events"
        );

        let traced = smoke(name, 5, true);
        assert_prints(&traced, &per_layer, name);
        if name.ends_with("_embedded") {
            let again = smoke(name, 5, true);
            for count in COUNTS {
                assert_eq!(
                    value(&traced, count),
                    value(&again, count),
                    "{name}: {count}"
                );
            }
        }
    }
}
