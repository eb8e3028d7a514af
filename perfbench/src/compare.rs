//! `perfbench compare A B`: two result files of `perfbench suite`, metric
//! by metric, judged against the bounds fixed in `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::quartiles;

/// `(workload, metric)` → the untraced runs' values, in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// `better`, `same`, `worse`, or `unresolved` when either side's
/// interquartile range, as a share of its median, is wider than the bound.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let spread = ((a_q3 - a_q1) / a_med).max((b_q3 - b_q1) / b_med);
    let worse_by = if lower_is_better {
        (b_med - a_med) / a_med
    } else {
        (a_med - b_med) / a_med
    };
    if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// Four decimals for small values, none for large ones.
fn short(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.4}")
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: perfbench compare A B".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the root of the checkout): {e}"))?;
    let spec = Json::parse(&spec)?;
    println!("A = {a_path} (base of every ratio), B = {b_path}; median [q1, q3]");
    println!(
        "{:<30} {:<24} {:>32} {:>32} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut none_worse = true;
    for workload in spec
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
    {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        for metric in spec
            .get("end_to_end")
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let key = (workload.to_string(), name.to_string());
            let (Some(a), Some(b)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<30} {name:<24} missing from a file");
                none_worse = false;
                continue;
            };
            let cell = |values: &[f64]| {
                let (q1, med, q3) = quartiles(values);
                format!("{} [{}, {}]", short(med), short(q1), short(q3))
            };
            let outcome = verdict(a, b, lower, bound);
            none_worse &= outcome != "worse";
            println!(
                "{workload:<30} {name:<24} {:>32} {:>32} {:>7.4} {bound:>6}  {outcome}",
                cell(a),
                cell(b),
                quartiles(b).1 / quartiles(a).1,
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        assert_eq!(verdict(&base, &slower, false, 0.1), "better");
        assert_eq!(verdict(&base, &base, true, 0.1), "same");
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &noisy, true, 0.1), "unresolved");
    }
}
