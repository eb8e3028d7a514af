//! E1 — golden test for the paper's Figure 2.
//!
//! The recursive compilation of `select sum(A*D) from R, S, T where
//! R.B=S.B and S.C=T.C` must produce exactly the structure of the
//! paper's Figure 2 / Section 3 listing: the result map `q`, the
//! auxiliary maps `qD[b]`, `qA[b]`, `qD[c]`, `qA[c]`, the shared count
//! map `q1[b,c]`, and the handler statements that update them.

use dbtoaster::compiler::StatementKind;
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

const SQL: &str = "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C";

#[test]
fn figure2_map_inventory_matches_the_paper() {
    let q = dbtoaster::StandingQuery::compile(SQL, &catalog()).unwrap();
    let program = q.program();

    // Six maps in total, as in the paper (q, qD[b], qA[b], qD[c], qA[c],
    // q1[b,c]) — sharing means no more are created.
    assert_eq!(program.maps.len(), 6, "{}", program.pretty());

    // One scalar result map.
    let scalar_maps: Vec<_> = program.maps.iter().filter(|m| m.keys.is_empty()).collect();
    assert_eq!(scalar_maps.len(), 1);
    assert_eq!(scalar_maps[0].name, "Q");

    // Four single-key maps (qA[b], qD[b], qA[c], qD[c]).
    assert_eq!(program.maps.iter().filter(|m| m.keys.len() == 1).count(), 4);

    // One two-key count map over S only (q1[b, c]).
    let q1: Vec<_> = program.maps.iter().filter(|m| m.keys.len() == 2).collect();
    assert_eq!(q1.len(), 1);
    assert_eq!(
        q1[0].definition.relations().into_iter().collect::<Vec<_>>(),
        vec!["S"]
    );

    // Map definitions partition by the relations they summarize:
    // one map over {S, T}, one over {R, S}, one over {R}, one over {T}.
    let rel_sets: Vec<String> = program
        .maps
        .iter()
        .map(|m| {
            m.definition
                .relations()
                .into_iter()
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert!(rel_sets.contains(&"S,T".to_string()));
    assert!(rel_sets.contains(&"R,S".to_string()));
    assert!(rel_sets.contains(&"R".to_string()));
    assert!(rel_sets.contains(&"T".to_string()));
}

#[test]
fn figure2_handlers_have_the_papers_statement_structure() {
    let q = dbtoaster::StandingQuery::compile(SQL, &catalog()).unwrap();
    let program = q.program();

    // Three handlers, one per relation, each taking the event's weight
    // `w` after the tuple: the paper's insert handlers at `w = 1`.
    assert_eq!(program.triggers.len(), 3);
    for t in &program.triggers {
        assert_eq!(t.args.last().map(String::as_str), Some("w"), "{t}");
    }

    // on_R: q += w * a * qD[b]; qA[b] += w * a; foreach c: qA[c] += w * a * q1[b,c]
    let on_r = program.trigger("R").unwrap();
    assert_eq!(on_r.statements.len(), 3, "{on_r}");
    assert!(on_r.statements.iter().any(|s| s.target == "Q"));
    // The q update uses exactly one map lookup (no joins, no scans).
    let q_stmt = on_r.statements.iter().find(|s| s.target == "Q").unwrap();
    assert_eq!(q_stmt.update.map_refs().len(), 1);
    assert!(!q_stmt.update.has_relations());

    // on_S eliminates the join entirely: q += w * qA[b] * qD[c].
    let on_s = program.trigger("S").unwrap();
    let q_stmt = on_s.statements.iter().find(|s| s.target == "Q").unwrap();
    assert_eq!(q_stmt.update.map_refs().len(), 2, "{q_stmt}");
    assert!(!q_stmt.update.has_relations());
    // ... and maintains q1[b, c] += w.
    assert_eq!(on_s.statements.len(), 4, "{on_s}");

    // Every statement is an incremental update scaled by the weight
    // (a delete is the insert's delta with the opposite sign).
    for s in program.triggers.iter().flat_map(|t| &t.statements) {
        assert_eq!(s.kind, StatementKind::Update);
        assert!(s.update.all_vars().contains("w"), "{s}");
    }

    // Total statements: 3 (R) + 4 (S) + 3 (T).
    assert_eq!(program.statement_count(), 10);
}

#[test]
fn figure2_generated_source_mirrors_the_papers_listing() {
    let q = dbtoaster::StandingQuery::compile(SQL, &catalog()).unwrap();
    let src = q.generated_source();
    for handler in ["fn on_R(", "fn on_S(", "fn on_T("] {
        assert!(src.contains(handler), "missing handler {handler}");
    }
    assert!(!src.contains("on_insert") && !src.contains("on_delete"));
    // The result update is straight-line code over map entries.
    assert!(src.contains(".entry(vec![]).or_insert(0.0) +="));
}

#[test]
fn figure2_runtime_matches_a_brute_force_oracle() {
    use dbtoaster::calculus::translate_query;
    use dbtoaster::exec::{evaluate_query, Database};
    use dbtoaster::sql::{analyze, parse_query};

    let cat = catalog();
    let mut q = dbtoaster::StandingQuery::compile(SQL, &cat).unwrap();
    let qc = translate_query(&analyze(&parse_query(SQL).unwrap(), &cat).unwrap(), "Q").unwrap();
    let mut db = Database::new();

    let events = vec![
        Event::insert("S", tuple![1i64, 10i64]),
        Event::insert("R", tuple![5i64, 1i64]),
        Event::insert("T", tuple![10i64, 7i64]),
        Event::insert("R", tuple![2i64, 1i64]),
        Event::delete("R", tuple![5i64, 1i64]),
        Event::insert("T", tuple![10i64, 3i64]),
        Event::insert("S", tuple![2i64, 10i64]),
        Event::delete("T", tuple![10i64, 7i64]),
    ];
    for e in events {
        q.on_event(&e).unwrap();
        db.apply(&e);
        let oracle = evaluate_query(&qc, &db).unwrap()[0].1[0].clone();
        assert_eq!(q.scalar(), oracle, "diverged after {e:?}");
    }
}
