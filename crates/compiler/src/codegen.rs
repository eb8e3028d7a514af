//! Source-code generation.
//!
//! The paper's compiler emits C++ event-handler functions that are then
//! compiled to native code. This reproduction executes trigger programs
//! through a flattened statement VM (see the runtime crate), but the
//! code-generation step itself is reproduced here: [`generate_rust`]
//! renders a [`TriggerProgram`] as a self-contained Rust module with one
//! handler function per relation and one `HashMap` per maintained map —
//! structurally the same artifact as the paper's Section 3 listing, whose
//! insert handlers are ours with the weight fixed at `+1`: `on_R(r_a,
//! r_b, w)` serves inserts (`w = 1`) and deletes (`w = -1`). The emitted text is
//! used by the profiling experiment (E5) to report generated-code size
//! and generation time, and by the `figure2` example to show the
//! generated handlers.

use std::fmt::Write as _;

use dbtoaster_calculus::{CalcExpr, ValExpr};

use crate::program::{StatementKind, TriggerProgram};

/// Render the trigger program as Rust source text.
pub fn generate_rust(program: &TriggerProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "//! Generated by the DBToaster compiler — do not edit."
    );
    if let Some(sql) = &program.sql {
        let _ = writeln!(out, "//! query: {}", sql.replace('\n', " "));
    }
    let _ = writeln!(out, "use std::collections::HashMap;\n");
    let _ = writeln!(out, "#[derive(Default)]\npub struct State {{");
    for m in &program.maps {
        let _ = writeln!(
            out,
            "    /// {}[{}] := {}",
            m.name,
            m.keys.join(", "),
            m.definition
        );
        if !m.ordered_keys.is_empty() {
            let keys: Vec<&str> = m
                .ordered_keys
                .iter()
                .filter_map(|&p| m.keys.get(p).map(|k| k.as_str()))
                .collect();
            let _ = writeln!(
                out,
                "    /// ordered index on [{}] (O(log n) range sums)",
                keys.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "    pub {}: HashMap<Vec<f64>, f64>,",
            m.name.to_ascii_lowercase()
        );
    }
    let _ = writeln!(out, "}}\n");
    let _ = writeln!(out, "impl State {{");
    for t in &program.triggers {
        let params: Vec<String> = t.args.iter().map(|a| format!("{a}: f64")).collect();
        let _ = writeln!(
            out,
            "    pub fn {}(&mut self, {}) {{",
            t.handler_name(),
            params.join(", ")
        );
        for s in &t.statements {
            match s.kind {
                StatementKind::Update => {
                    let _ = writeln!(
                        out,
                        "        // {}[{}] += {}",
                        s.target,
                        s.target_keys.join(", "),
                        s.update
                    );
                    emit_update(&mut out, s);
                }
                StatementKind::Replace => {
                    let _ = writeln!(
                        out,
                        "        // {}[{}] := {}  (recompute from materialized inputs)",
                        s.target,
                        s.target_keys.join(", "),
                        s.update
                    );
                    let _ = writeln!(
                        out,
                        "        self.{}.clear();",
                        s.target.to_ascii_lowercase()
                    );
                    let _ = writeln!(
                        out,
                        "        self.recompute_{}();",
                        s.target.to_ascii_lowercase()
                    );
                }
            }
        }
        let _ = writeln!(out, "    }}\n");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Emit the body of an `Update` statement. Statements whose free
/// variables are fully bound by the trigger arguments become straight-line
/// code; statements with loop variables iterate over the slice of the map
/// that binds them (the paper's `foreach` form).
fn emit_update(out: &mut String, s: &crate::program::Statement) {
    let unbound: Vec<&String> = s
        .target_keys
        .iter()
        .filter(|k| !s.update.all_vars().contains(*k) || k.starts_with("__"))
        .collect();
    let key_expr = if s.target_keys.is_empty() {
        "vec![]".to_string()
    } else {
        format!("vec![{}]", s.target_keys.join(", "))
    };
    if unbound.is_empty() {
        let _ = writeln!(
            out,
            "        *self.{}.entry({}).or_insert(0.0) += {};",
            s.target.to_ascii_lowercase(),
            key_expr,
            scalar_of(&s.update)
        );
    } else {
        let _ = writeln!(
            out,
            "        for (key, val) in self.iterate_slice(/* {} */) {{",
            s.update
        );
        let _ = writeln!(
            out,
            "            *self.{}.entry(key).or_insert(0.0) += val * {};",
            s.target.to_ascii_lowercase(),
            scalar_of(&s.update)
        );
        let _ = writeln!(out, "        }}");
    }
}

/// A best-effort scalar rendering of a calculus expression as a Rust
/// expression over trigger arguments and map lookups. The rendering is
/// documentation-grade (the executable path is the runtime VM), so
/// constructs that need loops are rendered as helper-method calls.
fn scalar_of(expr: &CalcExpr) -> String {
    match expr {
        CalcExpr::Val(v) => val_of(v),
        CalcExpr::Cmp { op, left, right } => {
            format!(
                "(({} {} {}) as i64 as f64)",
                val_of(left),
                rust_cmp(*op),
                val_of(right)
            )
        }
        CalcExpr::MapRef { name, keys } => format!(
            "self.{}.get(&vec![{}]).copied().unwrap_or(0.0)",
            name.to_ascii_lowercase(),
            keys.join(", ")
        ),
        CalcExpr::Rel { name, vars } => {
            format!(
                "self.base_{}.get(&vec![{}]).copied().unwrap_or(0.0)",
                name.to_ascii_lowercase(),
                vars.join(", ")
            )
        }
        CalcExpr::Prod(fs) => {
            let parts: Vec<String> = fs.iter().map(scalar_of).collect();
            format!("({})", parts.join(" * "))
        }
        CalcExpr::Sum(ts) => {
            let parts: Vec<String> = ts.iter().map(scalar_of).collect();
            format!("({})", parts.join(" + "))
        }
        CalcExpr::Neg(e) => format!("-({})", scalar_of(e)),
        CalcExpr::AggSum { .. } | CalcExpr::Lift { .. } | CalcExpr::Exists(_) => {
            format!("self.evaluate(/* {expr} */)")
        }
    }
}

fn val_of(v: &ValExpr) -> String {
    match v {
        ValExpr::Const(c) => format!("{}f64", c.as_f64()),
        ValExpr::Var(x) => x.clone(),
        ValExpr::Add(es) => {
            format!(
                "({})",
                es.iter().map(val_of).collect::<Vec<_>>().join(" + ")
            )
        }
        ValExpr::Mul(es) => {
            format!(
                "({})",
                es.iter().map(val_of).collect::<Vec<_>>().join(" * ")
            )
        }
        ValExpr::Neg(e) => format!("-({})", val_of(e)),
        ValExpr::Div(a, b) => format!("({} / {})", val_of(a), val_of(b)),
    }
}

fn rust_cmp(op: dbtoaster_calculus::CmpOp) -> &'static str {
    use dbtoaster_calculus::CmpOp::*;
    match op {
        Eq => "==",
        NotEq => "!=",
        Lt => "<",
        LtEq => "<=",
        Gt => ">",
        GtEq => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_sql, CompileOptions};
    use dbtoaster_common::{Catalog, ColumnType, Schema};

    fn rst_catalog() -> Catalog {
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

    #[test]
    fn generated_source_contains_one_weighted_handler_per_relation() {
        let p = compile_sql(
            "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
            &rst_catalog(),
            &CompileOptions::full(),
        )
        .unwrap();
        let src = generate_rust(&p);
        for handler in [
            "fn on_R(&mut self, r_a: f64, r_b: f64, w: f64)",
            "fn on_S(&mut self, s_b: f64, s_c: f64, w: f64)",
            "fn on_T(&mut self, t_c: f64, t_d: f64, w: f64)",
        ] {
            assert!(src.contains(handler), "missing {handler}");
        }
        assert_eq!(src.matches("pub fn on_").count(), 3);
        assert!(src.contains("pub struct State"));
        assert!(
            src.contains("pub q:"),
            "result map declaration missing:\n{src}"
        );
        // Balanced braces — a cheap well-formedness check.
        assert_eq!(src.matches('{').count(), src.matches('}').count());
    }

    #[test]
    fn straight_line_updates_reference_map_lookups() {
        let p = compile_sql(
            "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
            &rst_catalog(),
            &CompileOptions::full(),
        )
        .unwrap();
        let src = generate_rust(&p);
        // q += a * qD[b] becomes an entry().or_insert() update with a map
        // lookup on the right-hand side.
        assert!(src.contains(".entry(vec![]).or_insert(0.0) +="));
        assert!(src.contains(".get(&vec!["));
    }
}
