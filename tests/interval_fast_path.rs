//! The ordered-index interval fast path engages on the correlated
//! nested VWAP. Its monotone-guard statement runs in O(log² P) over the
//! book's ordered indexes or falls back to looping the outer map; both
//! give the same answer, so only the engine's counters tell them apart.
//!
//! One `#[test]` per binary: the counters are process-global.

use dbtoaster::calculus::translate_query;
use dbtoaster::compiler::compile_sql;
use dbtoaster::exec::{evaluate_groups, evaluate_query, Database, Env};
use dbtoaster::prelude::*;
use dbtoaster::runtime::ordered_fallback;
use dbtoaster::sql::{analyze, parse_query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VWAP_CORRELATED: &str = "select sum(b1.PRICE * b1.VOLUME) from BOOK b1 \
     where (select sum(b3.VOLUME) from BOOK b3) > \
           4 * (select sum(b2.VOLUME) from BOOK b2 where b2.PRICE > b1.PRICE)";

const PRICE_LEVELS: i64 = 50;
const WARM_ROWS: usize = 1_000;
const STREAM_EVENTS: usize = 2_000;

fn catalog() -> Catalog {
    Catalog::new().with(Schema::new(
        "BOOK",
        vec![("PRICE", ColumnType::Int), ("VOLUME", ColumnType::Int)],
    ))
}

/// A tick-quantized price with a strictly positive volume. The small
/// domain keeps the interpreter's O(rows²) re-evaluation cheap: its
/// database is a multiset of at most 200 distinct rows.
fn random_row(rng: &mut SmallRng) -> Tuple {
    tuple![rng.gen_range(1i64..=PRICE_LEVELS), rng.gen_range(1i64..=4)]
}

#[test]
fn correlated_vwap_runs_on_the_interval_fast_path_without_fallbacks() {
    let catalog = catalog();
    let program = compile_sql(VWAP_CORRELATED, &catalog, &CompileOptions::full()).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x1f7a);

    // Warm start: every flat map evaluated over the prefilled book by
    // the interpreter and bulk-loaded, then the derived maps rebuilt.
    let mut live: Vec<Tuple> = (0..WARM_ROWS).map(|_| random_row(&mut rng)).collect();
    let mut db = Database::new();
    for row in &live {
        db.apply(&Event::insert("BOOK", row.clone()));
    }
    let mut engine = Engine::new(&program).unwrap();
    let derived: Vec<&str> = program
        .triggers
        .iter()
        .flat_map(|t| &t.statements)
        .filter(|s| s.stage > 0)
        .map(|s| s.target.as_str())
        .collect();
    for map in &program.maps {
        if derived.contains(&map.name.as_str()) {
            continue;
        }
        let entries = evaluate_groups(&map.definition, &map.keys, &db, &Env::default()).unwrap();
        engine.load_map(&map.name, entries).unwrap();
    }
    engine.rebuild_derived().unwrap();

    // The planner must have given some trigger an interval plan.
    let interval_statements = engine
        .exec_program()
        .triggers
        .iter()
        .map(|(_, t)| t.statements.iter().filter(|s| s.interval.is_some()).count())
        .max()
        .unwrap_or(0);
    assert!(interval_statements > 0, "no statement got an interval plan");

    // Mixed stream: fresh inserts and deletes of live rows, so every
    // inner sum stays non-negative.
    let probes_before = ordered_fallback::probes();
    let fallbacks_before = ordered_fallback::counts();
    for i in 0..STREAM_EVENTS {
        let event = if i % 3 == 2 {
            let at = rng.gen_range(0..live.len());
            Event::delete("BOOK", live.swap_remove(at))
        } else {
            let row = random_row(&mut rng);
            live.push(row.clone());
            Event::insert("BOOK", row)
        };
        db.apply(&event);
        engine.on_event(&event).unwrap();
    }

    let probes = ordered_fallback::probes() - probes_before;
    assert!(probes > 0, "the interval fast path answered no probe");
    // A binary search over at most PRICE_LEVELS outer keys takes
    // ⌈log₂ 50⌉ = 6 probes, plus slack for the invariant assignments;
    // the loop it replaces would take PRICE_LEVELS per statement.
    let budget = STREAM_EVENTS * interval_statements * 8;
    assert!(
        probes as usize <= budget,
        "{probes} range probes over {STREAM_EVENTS} events exceed the \
         O(log P) budget of {budget}: the statements ran as loops"
    );
    assert_eq!(
        ordered_fallback::counts(),
        fallbacks_before,
        "a fallback fired; reasons by position: {:?}",
        ordered_fallback::REASONS
    );

    let qc = translate_query(
        &analyze(&parse_query(VWAP_CORRELATED).unwrap(), &catalog).unwrap(),
        "Q",
    )
    .unwrap();
    let want = evaluate_query(&qc, &db).unwrap();
    let got: Vec<_> = engine
        .result()
        .into_iter()
        .map(|r| (r.key, r.values))
        .collect();
    assert_eq!(got, want, "result diverged from the interpreter");
}
