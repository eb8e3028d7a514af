//! SSB Q4.1 and revenue-by-year, held exactly to an independent oracle:
//! the compiled views — in a lone `Engine` each and together in one
//! shared-store `ViewServer` — against the stream-operator baseline, over
//! a warehouse load followed by a tail that retracts a random subset of
//! `LINEORDER` and `PART` rows, so the delete triggers of every map in
//! Q4.1's lattice run too. Results are compared after the load and again
//! after the tail: keys and integers exactly, floats to 1e-9 relative (the
//! two sides fold float sums in different orders).
//!
//! The oracle is a fresh `StreamEngine` fed only the rows alive at each
//! checkpoint. Its answer depends on that database alone, and its own
//! delete path joins a `PART` retraction against the full cross product of
//! the other dimensions, which would dominate the test's run time.

use dbtoaster::baselines::{StandingQueryEngine, StreamEngine};
use dbtoaster::compiler::{compile_sql, CompileOptions};
use dbtoaster::prelude::*;
use dbtoaster::workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_Q41, SSB_REVENUE_BY_YEAR,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VIEWS: [(&str, &str); 2] = [
    ("ssb_q41", SSB_Q41),
    ("ssb_revenue_by_year", SSB_REVENUE_BY_YEAR),
];

type Rows = Vec<(Tuple, Vec<Value>)>;

/// A small warehouse load (ten suppliers, so some are in AMERICA and Q4.1
/// has rows), then a shuffled tail deleting about a third of
/// the facts and parts it loaded.
fn load_and_retractions(seed: u64) -> (Vec<Event>, Vec<Event>) {
    let load = transform_to_ssb(&TpchData::generate(&TpchConfig {
        customers: 30,
        suppliers: 10,
        parts: 40,
        orders: 300,
        seed,
        ..TpchConfig::default()
    }))
    .events;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tail: Vec<Event> = load
        .iter()
        .filter(|e| matches!(e.relation.as_str(), "LINEORDER" | "PART") && rng.gen_bool(0.35))
        .map(|e| Event::delete(e.relation.clone(), e.tuple.clone()))
        .collect();
    for i in (1..tail.len()).rev() {
        tail.swap(i, rng.gen_range(0..=i));
    }
    assert!(tail.iter().any(|e| e.relation == "PART"));
    assert!(tail.iter().any(|e| e.relation == "LINEORDER"));
    (load, tail)
}

/// The rows a stream leaves alive, as inserts in first-insert order.
fn surviving(events: &[Event]) -> Vec<Event> {
    let mut alive: Vec<&Event> = Vec::new();
    for event in events {
        match event.kind {
            EventKind::Insert => alive.push(event),
            EventKind::Delete => {
                let at = alive
                    .iter()
                    .position(|e| e.relation == event.relation && e.tuple == event.tuple)
                    .expect("only loaded rows are retracted");
                alive.remove(at);
            }
        }
    }
    alive.into_iter().cloned().collect()
}

/// The oracle's answer for one view over the rows alive after `events`,
/// sorted by key.
fn oracle(sql: &str, catalog: &Catalog, events: &[Event]) -> Rows {
    let mut engine = StreamEngine::new(sql, catalog).unwrap();
    engine.process(&surviving(events)).unwrap();
    let mut rows = engine.result();
    rows.sort();
    rows
}

fn rows(result: Vec<ResultRow>) -> Rows {
    result.into_iter().map(|r| (r.key, r.values)).collect()
}

fn close(got: &Value, expected: &Value) -> bool {
    match (got, expected) {
        (Value::Float(_), _) | (_, Value::Float(_)) => {
            let (g, e) = (got.as_f64(), expected.as_f64());
            (g - e).abs() <= 1e-9 * g.abs().max(e.abs())
        }
        _ => got == expected,
    }
}

fn assert_matches(mut got: Rows, expected: &[(Tuple, Vec<Value>)], what: &str) {
    got.sort();
    assert_eq!(got.len(), expected.len(), "{what}: row count");
    for ((gk, gv), (ek, ev)) in got.iter().zip(expected) {
        assert_eq!(gk, ek, "{what}: group keys");
        assert!(
            gv.len() == ev.len() && gv.iter().zip(ev).all(|(g, e)| close(g, e)),
            "{what}: {gv:?} vs {ev:?}"
        );
    }
}

#[test]
fn ssb_views_match_the_stream_baseline_through_loads_and_retractions() {
    let catalog = ssb_catalog();
    for seed in 1..=3 {
        let (load, tail) = load_and_retractions(seed);
        let mut server = ViewServer::new(&catalog);
        let mut engines: Vec<Engine> = VIEWS
            .iter()
            .map(|(name, sql)| {
                server.register(name, sql).unwrap();
                let program = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
                Engine::new(&program).unwrap()
            })
            .collect();

        let mut applied: Vec<Event> = Vec::new();
        for (phase, events) in [("load", load), ("retractions", tail)] {
            for chunk in events.chunks(256) {
                server.apply_batch(chunk).unwrap();
            }
            for engine in &mut engines {
                engine.process(&events).unwrap();
            }
            applied.extend(events);

            for ((name, sql), engine) in VIEWS.iter().zip(&engines) {
                let expected = oracle(sql, &catalog, &applied);
                let what = |path| format!("{name} {path} after {phase}, seed {seed}");
                assert!(!expected.is_empty(), "{}: vacuous", what("oracle"));
                assert_matches(rows(engine.result()), &expected, &what("engine"));
                assert_matches(
                    rows(server.result(name).unwrap()),
                    &expected,
                    &what("server"),
                );
            }
        }
    }
}
