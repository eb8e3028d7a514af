//! Property-based equivalence: on random update streams, the compiled
//! DBToaster engine, the depth-limited variant, every baseline engine and
//! the brute-force interpreter all report the same standing-query result.
//!
//! This is the workspace's main end-to-end correctness argument: the
//! recursive compiler may only ever change *how fast* the answer is
//! maintained, never the answer itself.

use proptest::prelude::*;

use dbtoaster::baselines::{
    sorted_result, DbtoasterEngine, FirstOrderIvmEngine, NaiveReevalEngine, StandingQueryEngine,
    StreamEngine,
};
use dbtoaster::prelude::*;

fn catalog() -> Catalog {
    Catalog::new()
        .with(Schema::new(
            "R",
            vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
        ))
        .with(Schema::new(
            "S",
            vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
        ))
        .with(Schema::new(
            "T",
            vec![("C", ColumnType::Int), ("D", ColumnType::Int)],
        ))
}

/// A random event on R, S or T with small value domains (so joins and
/// deletions of existing tuples actually happen).
fn arb_event(live: std::rc::Rc<std::cell::RefCell<Vec<Event>>>) -> impl Strategy<Value = Event> {
    (0..3usize, 0..8i64, 0..4i64, any::<bool>(), 0..10usize).prop_map(
        move |(rel, x, y, del, pick)| {
            let relation = ["R", "S", "T"][rel];
            let mut live = live.borrow_mut();
            if del && !live.is_empty() {
                // Delete a previously inserted tuple (events stay meaningful).
                let e = live[pick % live.len()].clone();
                live.retain(|x| x != &e);
                Event::delete(e.relation, e.tuple)
            } else {
                let event = Event::insert(relation, tuple![x, y]);
                live.push(event.clone());
                event
            }
        },
    )
}

fn event_stream(len: usize) -> impl Strategy<Value = Vec<Event>> {
    let live = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    proptest::collection::vec(arb_event(live), 1..len)
}

/// The self-joins compile two equal first-order delta terms per
/// aggregate plus a `w·w` second-order term; with two aggregates, the
/// second result map's statements land in a trigger the first already
/// filled, and depth-limited compilation updates `BASE_R` in that same
/// trigger.
const QUERIES: [&str; 7] = [
    "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C",
    "select count(*) from R, S where R.B = S.B",
    "select B, sum(A), count(*) from R group by B",
    "select sum(A * C) from R, S where R.B = S.B and A > 2",
    "select count(*), sum(r1.A * r2.A) from R r1, R r2 where r1.B = r2.B",
    "select sum(r1.A * r2.A), count(*) from R r1, R r2 where r1.B = r2.B",
    "select sum(r1.A * r2.A) from R r1, R r2 where r1.B = r2.B",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_agree_on_random_streams(events in event_stream(60)) {
        let cat = catalog();
        for sql in QUERIES {
            let mut engines: Vec<Box<dyn StandingQueryEngine>> = vec![
                Box::new(NaiveReevalEngine::new(sql, &cat).unwrap()),
                Box::new(DbtoasterEngine::new(sql, &cat).unwrap()),
                Box::new(DbtoasterEngine::with_depth(sql, &cat, 1).unwrap()),
                Box::new(DbtoasterEngine::with_depth(sql, &cat, 2).unwrap()),
                Box::new(FirstOrderIvmEngine::new(sql, &cat).unwrap()),
                Box::new(StreamEngine::new(sql, &cat).unwrap()),
            ];
            for event in &events {
                for engine in engines.iter_mut() {
                    engine.on_event(event).unwrap();
                }
            }
            let reference = sorted_result(engines[0].result());
            for (i, engine) in engines.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &reference,
                    &sorted_result(engine.result()),
                    "engine {} ({}) diverged from {} on {}",
                    i,
                    engine.name(),
                    engines[0].name(),
                    sql
                );
            }
        }
    }

    #[test]
    fn deleting_everything_returns_to_the_empty_result(inserts in proptest::collection::vec((0..3usize, 0..6i64, 0..4i64), 1..40)) {
        let cat = catalog();
        let sql = "select B, sum(A) from R group by B";
        let mut q = dbtoaster::StandingQuery::compile(sql, &cat).unwrap();
        let events: Vec<Event> = inserts
            .iter()
            .map(|(r, x, y)| Event::insert(["R", "S", "T"][*r], tuple![*x, *y]))
            .collect();
        for e in &events {
            q.on_event(e).unwrap();
        }
        for e in events.iter().rev() {
            q.on_event(&Event::delete(e.relation.clone(), e.tuple.clone())).unwrap();
        }
        prop_assert!(q.result().is_empty(), "result not empty: {:?}", q.result());
    }

    #[test]
    fn insert_delete_pairs_are_a_noop(pairs in proptest::collection::vec((0..8i64, 0..4i64), 1..30)) {
        let cat = catalog();
        let sql = "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C";
        let mut q = dbtoaster::StandingQuery::compile(sql, &cat).unwrap();
        // Load some stable background state.
        q.insert("S", tuple![1i64, 2i64]).unwrap();
        q.insert("T", tuple![2i64, 5i64]).unwrap();
        q.insert("R", tuple![4i64, 1i64]).unwrap();
        let baseline = q.scalar();
        for (a, b) in pairs {
            q.insert("R", tuple![a, b]).unwrap();
            q.delete("R", tuple![a, b]).unwrap();
        }
        prop_assert_eq!(q.scalar(), baseline);
    }
}
