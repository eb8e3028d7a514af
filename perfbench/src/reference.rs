//! The correctness gate: every view's final snapshot against a result
//! computed without the compiler, the statement VM or the map store.
//!
//! Order-book views are re-evaluated once by the `exec` interpreter over
//! the replayed base relations. The SSB views join five relations through
//! the fact table only; the interpreter and both baseline engines enumerate
//! the cross product of the dimensions (minutes at this size), so the two
//! warehouse views are evaluated here by hash joins written out by hand. A
//! test holds that evaluation to the stream-operator engine on a stream
//! small enough for it.

use std::collections::{BTreeMap, HashMap, HashSet};

use dbtoaster::calculus::translate_query;
use dbtoaster::common::{Event, Result, Tuple, Value};
use dbtoaster::exec::{evaluate_query, Database};
use dbtoaster::server::ViewSnapshot;
use dbtoaster::sql::{analyze, parse_query};

use crate::workload::{Family, Inputs};

type Rows = Vec<(Tuple, Vec<Value>)>;

/// Expected rows per view, sorted by group key, in `Inputs::views` order.
pub struct Reference {
    views: Vec<(&'static str, Rows)>,
}

impl Reference {
    pub fn compute(family: Family, inputs: &Inputs) -> Result<Reference> {
        let mut views = Vec::new();
        match family {
            Family::OrderBook => {
                let mut db = Database::new();
                for event in &inputs.events {
                    db.apply(event);
                }
                for &(name, sql) in &inputs.views {
                    let bound = analyze(&parse_query(sql)?, &inputs.catalog)?;
                    let mut rows = evaluate_query(&translate_query(&bound, "Q")?, &db)?;
                    rows.sort();
                    views.push((name, rows));
                }
            }
            Family::Ssb => {
                for &(name, _) in &inputs.views {
                    views.push((name, ssb_rows(name, &inputs.events)));
                }
            }
        }
        Ok(Reference { views })
    }

    /// Number of views whose snapshot differs from the reference: exact on
    /// keys and integers, within 1e-9 relative on floats (a delta-maintained
    /// float sum folds in a different order than a re-evaluation).
    pub fn mismatches(&self, snapshots: &[ViewSnapshot]) -> usize {
        self.views
            .iter()
            .filter(|(name, expected)| {
                let Some(snapshot) = snapshots.iter().find(|s| s.name == *name) else {
                    return true;
                };
                let mut got: Vec<(&Tuple, &Vec<Value>)> =
                    snapshot.rows.iter().map(|r| (&r.key, &r.values)).collect();
                got.sort();
                let same = got.len() == expected.len()
                    && got.iter().zip(expected).all(|((gk, gv), (ek, ev))| {
                        *gk == ek
                            && gv.len() == ev.len()
                            && gv.iter().zip(ev).all(|(g, e)| close(g, e))
                    });
                if !same {
                    eprintln!(
                        "MISMATCH view {name}: got {} rows {:?}, expected {} rows {:?}",
                        got.len(),
                        got.first(),
                        expected.len(),
                        expected.first()
                    );
                }
                !same
            })
            .count()
    }
}

/// `ssb_q41` and `ssb_revenue_by_year` over an insert-only loading stream:
/// rows of `(group key, group columns then the sum)`, sorted by key.
fn ssb_rows(view: &str, events: &[Event]) -> Rows {
    let int = |e: &Event, col: usize| e.tuple[col].as_i64();
    let text = |e: &Event, col: usize| match &e.tuple[col] {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    };
    let of = |relation: &'static str| events.iter().filter(move |e| e.relation == relation);
    let year: HashMap<i64, i64> = of("DATES").map(|e| (int(e, 0), int(e, 1))).collect();
    let mut sums: BTreeMap<Tuple, f64> = BTreeMap::new();
    match view {
        "ssb_revenue_by_year" => {
            for e in of("LINEORDER") {
                if let Some(&y) = year.get(&int(e, 4)) {
                    *sums.entry(Tuple::new(vec![Value::Int(y)])).or_default() +=
                        e.tuple[5].as_f64();
                }
            }
        }
        "ssb_q41" => {
            let american = |relation| -> HashMap<i64, String> {
                of(relation)
                    .filter(|e| text(e, 2) == "AMERICA")
                    .map(|e| (int(e, 0), text(e, 1)))
                    .collect()
            };
            let (customers, suppliers) = (american("CUSTOMER"), american("SUPPLIER"));
            let parts: HashSet<i64> = of("PART")
                .filter(|e| matches!(text(e, 1).as_str(), "MFGR#1" | "MFGR#2"))
                .map(|e| int(e, 0))
                .collect();
            for e in of("LINEORDER") {
                let (Some(nation), Some(&y)) = (customers.get(&int(e, 1)), year.get(&int(e, 4)))
                else {
                    continue;
                };
                if suppliers.contains_key(&int(e, 2)) && parts.contains(&int(e, 3)) {
                    let key = Tuple::new(vec![Value::Int(y), Value::str(nation.as_str())]);
                    *sums.entry(key).or_default() += e.tuple[5].as_f64() - e.tuple[6].as_f64();
                }
            }
        }
        other => panic!("no reference for view {other}"),
    }
    sums.into_iter()
        .map(|(key, sum)| {
            let mut values = key.0.clone();
            values.push(Value::Float(sum));
            (key, values)
        })
        .collect()
}

fn close(got: &Value, expected: &Value) -> bool {
    match (got, expected) {
        (Value::Float(_), _) | (_, Value::Float(_))
            if got.is_numeric() && expected.is_numeric() =>
        {
            let (g, e) = (got.as_f64(), expected.as_f64());
            (g - e).abs() <= 1e-9 * g.abs().max(e.abs())
        }
        _ => got == expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_written_ssb_rows_equal_the_stream_operator_engine() {
        use dbtoaster::baselines::{StandingQueryEngine, StreamEngine};
        // Five suppliers: small enough for the engine's cross products, and
        // over three seeds some supplier is in AMERICA, so Q4.1 has rows.
        let sizes = crate::workload::Sizes {
            ssb_scale: 0.05,
            ..crate::workload::SMOKE
        };
        let mut rows_seen = 0;
        for seed in 1..=3 {
            let inputs = Inputs::generate(Family::Ssb, seed, &sizes);
            for &(name, sql) in &inputs.views {
                let mut engine = StreamEngine::new(sql, &inputs.catalog).unwrap();
                engine.process(&inputs.events).unwrap();
                let mut expected = engine.result();
                expected.sort();
                let got = ssb_rows(name, &inputs.events);
                assert_eq!(got.len(), expected.len(), "{name} seed {seed}");
                for ((gk, gv), (ek, ev)) in got.iter().zip(&expected) {
                    assert_eq!(gk, ek, "{name}");
                    assert!(
                        gv.iter().zip(ev).all(|(g, e)| close(g, e)),
                        "{name}: {gv:?} vs {ev:?}"
                    );
                }
                rows_seen += usize::from(name == "ssb_q41") * got.len();
            }
        }
        assert!(rows_seen > 0, "Q4.1 was empty on every seed");
    }

    #[test]
    fn floats_compare_relatively_and_everything_else_exactly() {
        assert!(close(&Value::Float(1e12), &Value::Float(1e12 + 1e-3)));
        assert!(!close(&Value::Float(1.0), &Value::Float(1.000_001)));
        assert!(close(&Value::Float(3.0), &Value::Int(3)));
        assert!(!close(&Value::Int(3), &Value::Int(4)));
        assert!(close(&Value::str("ASIA"), &Value::str("ASIA")));
    }
}
