//! Reproduction of the paper's Figure 2: the recursive compilation of
//! `select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C`.
//!
//! Prints the maps and the event handlers produced by recursive
//! compilation, followed by the generated Rust handlers (the analog of the
//! C++ listing in Section 3). The paper lists insert handlers only; each
//! handler here serves inserts and deletes of its relation, taking the
//! event's weight `w` (`+1` insert, `−1` delete) as its last argument, so
//! the paper's `on_insert_R(a, b)` is `on_R(r_a, r_b, w)` at `w = 1`.
//!
//! ```text
//! cargo run --example figure2
//! ```

use dbtoaster::prelude::*;

fn main() {
    let catalog = Catalog::new()
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
        ));
    let sql = "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C";
    let query = dbtoaster::StandingQuery::compile(sql, &catalog).expect("compiles");
    let program = query.program();

    println!("== Figure 2: maps created by recursive compilation ==");
    for map in &program.maps {
        println!(
            "  {:<10} [{}] := {}",
            map.name,
            map.keys.join(", "),
            map.definition
        );
    }

    println!("\n== Figure 2: event handlers, one per relation (delta statements) ==");
    for trigger in &program.triggers {
        println!("{trigger}");
    }

    println!("== generated Rust source (paper: generated C++) ==\n");
    println!("{}", query.generated_source());

    println!(
        "statements: {}, calculus code size: {}",
        program.statement_count(),
        program.code_size()
    );
}
