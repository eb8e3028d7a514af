//! Lowering calculus trigger programs to a slot-based executable form.
//!
//! The paper's compiler emits C++ and relies on the C++ compiler for
//! native code; here the equivalent step resolves every symbolic artifact
//! at compile time so that event processing touches no strings, no plan
//! trees and no interpretation of the query shape:
//!
//! * map names become integer ids,
//! * variables become slots of a flat environment vector,
//! * `foreach` statements become [`LoopStep`]s over pre-registered
//!   secondary-index slices,
//! * comparisons become guard [`Scalar`]s, and arithmetic becomes a small
//!   expression tree over slots and constants,
//! * statements whose aggregations survive (depth-limited compilation,
//!   nested-aggregate re-evaluation) are *flattened*: the statement's
//!   per-binding `+=` performs the summation, so no separate aggregation
//!   machinery runs at event time.

use std::collections::BTreeSet;

use dbtoaster_calculus::{CalcExpr, CmpOp, ResultColumn, ValExpr, Var};
use dbtoaster_common::{Error, FxHashMap, Result, Value};
use dbtoaster_compiler::{Stage, Statement, StatementKind, TriggerProgram};

/// Scalar expressions over environment slots.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Const(Value),
    Slot(usize),
    Add(Vec<Scalar>),
    Mul(Vec<Scalar>),
    Neg(Box<Scalar>),
    Div(Box<Scalar>, Box<Scalar>),
    /// 1 if the comparison holds, else 0.
    Cmp {
        op: CmpOp,
        left: Box<Scalar>,
        right: Box<Scalar>,
    },
    /// Point lookup into a map with fully-computable keys.
    Lookup {
        map: usize,
        keys: Vec<Scalar>,
    },
    /// Sum of a nested block (used for `Lift` bodies).
    Aggregate(Box<Block>),
    /// 1 if the nested block sums to a non-zero value (used for EXISTS).
    Exists(Box<Block>),
    /// `Σ value` over one map's entries whose `ordered_pos` key satisfies
    /// `key ⟨op⟩ bound` (with every other key position equality-bound by
    /// `eq_values`). The O(log P) lowering of an inequality-sliced
    /// aggregation loop — `sum(VOLUME) where PRICE > p` as an ordered
    /// index probe instead of a full-domain scan. Falls back to a scan
    /// when the map has no usable ordered index.
    RangeSum {
        map: usize,
        /// Equality-bound key positions (ascending; every position
        /// except `ordered_pos`) and the scalars producing their values.
        eq_positions: Vec<usize>,
        eq_values: Vec<Scalar>,
        /// The key position ranged over.
        ordered_pos: usize,
        op: CmpOp,
        bound: Box<Scalar>,
    },
}

/// One loop over a map slice: the positions in `bound` are fixed to the
/// given scalars, the positions in `bind` receive the matching key
/// components, and `value_slot` receives the stored value.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStep {
    pub map: usize,
    /// Sorted key positions that are bound, with the scalars producing
    /// their values (order matches `positions`).
    pub bound_positions: Vec<usize>,
    pub bound_values: Vec<Scalar>,
    /// (key position, destination slot) for the unbound components.
    pub bind: Vec<(usize, usize)>,
    /// Slot receiving the map value of the current entry.
    pub value_slot: usize,
}

/// A slot assignment inside a block.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Destination environment slot.
    pub slot: usize,
    pub value: Scalar,
    /// Loop level at which the assignment's inputs are all bound and the
    /// assignment must run — *before* any deeper loop evaluates its
    /// bound-key scalars (which may read this slot). `None` means the
    /// innermost level. Statement-level blocks resolve every `None`
    /// through [`schedule_assigns`], which hoists `Lift` assignments to
    /// the outermost level their inputs allow — an uncorrelated nested
    /// aggregate is then evaluated once per statement instead of once
    /// per loop binding.
    pub level: Option<usize>,
}

/// A block: nested loops, slot assignments, guards and a value.
/// Its aggregate value is the sum over all loop bindings that pass the
/// guards of the block's value expression.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub loops: Vec<LoopStep>,
    pub assigns: Vec<Assign>,
    pub guards: Vec<Scalar>,
    pub value: Option<Scalar>,
}

/// The whole-statement fast path for the correlated-inequality bracket
/// shape: a scalar-target statement that loops an *ordered* outer map,
/// probes a range aggregate of an inner map correlated through the loop
/// key, and gates emission on a guard *monotone* in that key. Instead of
/// evaluating the guard once per outer entry (O(P) probes of O(log P)
/// each per statement — O(P log P)), the executor binary-searches the
/// guard's flip boundary over the outer index's sorted keys (O(log P)
/// probes) and answers with one interval sum — O(log² P) per statement.
///
/// Detection is purely structural; the executor re-checks the runtime
/// preconditions (ordered indexes present, inner values non-negative so
/// the probe really is monotone) every event and falls back to the loop
/// when they fail, so the plan is an optimization hint, never a
/// semantics change.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalPlan {
    /// The outer loop's map (arity 1, fully unbound loop).
    pub outer_map: usize,
    /// Slot receiving the outer key / the outer value.
    pub key_slot: usize,
    pub value_slot: usize,
    /// Slot assigned the inner range aggregate, and its defining scalar
    /// (a `Scalar::RangeSum` whose bound is `Slot(key_slot)`).
    pub probe_slot: usize,
    pub probe: Scalar,
    /// The inner map the probe ranges over (for precondition checks).
    pub inner_map: usize,
    pub inner_ordered_pos: usize,
    /// Index of the monotone guard within `block.guards`.
    pub pivot_guard: usize,
    /// True when the guard flips false→true as the outer key increases.
    pub rising: bool,
}

/// One executable statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStatement {
    pub target: usize,
    /// Clear the target before applying (Replace statements).
    pub clear_target: bool,
    /// Execution stage within the event (`dbtoaster_compiler::Stage`):
    /// `-1` for hierarchy retract statements (pre-event inputs), `0` for
    /// delta updates, `+1` for hierarchy rebuild and legacy `Replace`
    /// statements (post-event inputs). Statements of a trigger are
    /// stage-sorted; multi-view execution runs each stage across all
    /// views before the next.
    pub stage: Stage,
    /// Target key expressions (one per key position).
    pub keys: Vec<Scalar>,
    pub block: Block,
    /// Number of environment slots the statement needs.
    pub slots: usize,
    /// Human-readable form, for the statement profiler's report.
    pub rendered: String,
    /// O(log² P) execution plan when the statement matches the
    /// monotone-guard interval shape; `block` remains the fallback.
    pub interval: Option<IntervalPlan>,
    /// Factors of the event weight `w` taken out of `block.value`; each
    /// update is multiplied by `w^weight_power` when that is not 1.
    pub weight_power: u32,
}

/// A compiled trigger: all statements for events on one relation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledTrigger {
    pub relation: String,
    /// Number of tuple columns an event must carry. The tuple fills the
    /// first `event_args` environment slots and the event's weight (`+1`
    /// insert, `−1` delete) the slot after them.
    pub event_args: usize,
    pub statements: Vec<ExecStatement>,
}

/// How one output column of the result is produced from the maps.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultColumnSpec {
    /// The i-th component of the group key.
    Group {
        name: String,
        index: usize,
    },
    Sum {
        name: String,
        map: usize,
    },
    Avg {
        name: String,
        sum: usize,
        count: usize,
    },
    Extremum {
        name: String,
        map: usize,
        is_min: bool,
    },
}

/// Result-assembly description.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSpec {
    pub group_arity: usize,
    pub columns: Vec<ResultColumnSpec>,
    /// Maps that enumerate the group keys (first suitable map is used).
    pub driver_maps: Vec<usize>,
}

/// The fully lowered program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecProgram {
    pub map_names: Vec<String>,
    pub map_arities: Vec<usize>,
    /// Secondary-index patterns required per map.
    pub patterns: Vec<Vec<Vec<usize>>>,
    /// Ordered-index key positions required per map (range-aggregation
    /// probes, monotone-guard interval plans).
    pub ordered: Vec<Vec<usize>>,
    /// One trigger per relation, in the compiled program's order.
    pub triggers: Vec<CompiledTrigger>,
    pub result: ResultSpec,
    /// Names of base relations that have at least one trigger.
    pub relations: Vec<String>,
    /// Precomputed map-name → id lookup (hot on registration and
    /// snapshot paths). Authoritative when non-empty; an empty index
    /// falls back to a scan of `map_names`.
    pub map_index: FxHashMap<String, usize>,
    /// Precomputed relation → trigger lookup into `triggers` (hot on the
    /// per-event dispatch path).
    pub trigger_index: FxHashMap<String, usize>,
}

impl ExecProgram {
    /// Map id by name.
    pub fn map_id(&self, name: &str) -> Option<usize> {
        if self.map_index.is_empty() {
            self.map_names.iter().position(|n| n == name)
        } else {
            self.map_index.get(name).copied()
        }
    }

    /// The compiled trigger for events on `relation`, if any.
    pub fn trigger(&self, relation: &str) -> Option<&CompiledTrigger> {
        self.trigger_indexed(relation).map(|(_, t)| t)
    }

    /// The compiled trigger for events on `relation` together with its
    /// index into `triggers`. The index is a stable program-wide trigger
    /// identity: rebinding map ids ([`ExecProgram::with_remapped_maps`])
    /// preserves trigger order, so profilers and counters can key on
    /// `(trigger index, statement index)` across both forms.
    pub fn trigger_indexed(&self, relation: &str) -> Option<(usize, &CompiledTrigger)> {
        let i = if self.trigger_index.is_empty() {
            self.triggers.iter().position(|t| t.relation == relation)?
        } else {
            *self.trigger_index.get(relation)?
        };
        Some((i, &self.triggers[i]))
    }

    /// Rebuild both lookup indexes from the current `map_names` and
    /// `triggers` (lowering calls this; manual edits may re-call it).
    pub fn rebuild_indexes(&mut self) {
        self.map_index = self
            .map_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        self.trigger_index = trigger_index(&self.triggers);
    }

    /// Rebind every map id through `slot_of` (local id → store slot),
    /// producing a program whose statements address maps in a space of
    /// `slot_count` shared-store slots. `map_names`, `map_arities` and
    /// `patterns` become sparse (entries only at this view's slots); the
    /// rebuilt `map_index` maps this view's names to store slots.
    pub fn with_remapped_maps(&self, slot_of: &[usize], slot_count: usize) -> ExecProgram {
        assert_eq!(slot_of.len(), self.map_names.len(), "binding arity");
        let mut map_names = vec![String::new(); slot_count];
        let mut map_arities = vec![0usize; slot_count];
        let mut patterns = vec![Vec::new(); slot_count];
        let mut ordered = vec![Vec::new(); slot_count];
        for (local, &slot) in slot_of.iter().enumerate() {
            map_names[slot] = self.map_names[local].clone();
            map_arities[slot] = self.map_arities[local];
            patterns[slot] = self.patterns[local].clone();
            ordered[slot] = self.ordered[local].clone();
        }
        let mut out = ExecProgram {
            map_names,
            map_arities,
            patterns,
            ordered,
            triggers: self
                .triggers
                .iter()
                .map(|t| CompiledTrigger {
                    relation: t.relation.clone(),
                    event_args: t.event_args,
                    statements: t
                        .statements
                        .iter()
                        .map(|s| remap_statement(s, slot_of))
                        .collect(),
                })
                .collect(),
            result: ResultSpec {
                group_arity: self.result.group_arity,
                columns: self
                    .result
                    .columns
                    .iter()
                    .map(|c| match c {
                        ResultColumnSpec::Group { name, index } => ResultColumnSpec::Group {
                            name: name.clone(),
                            index: *index,
                        },
                        ResultColumnSpec::Sum { name, map } => ResultColumnSpec::Sum {
                            name: name.clone(),
                            map: slot_of[*map],
                        },
                        ResultColumnSpec::Avg { name, sum, count } => ResultColumnSpec::Avg {
                            name: name.clone(),
                            sum: slot_of[*sum],
                            count: slot_of[*count],
                        },
                        ResultColumnSpec::Extremum { name, map, is_min } => {
                            ResultColumnSpec::Extremum {
                                name: name.clone(),
                                map: slot_of[*map],
                                is_min: *is_min,
                            }
                        }
                    })
                    .collect(),
                driver_maps: self
                    .result
                    .driver_maps
                    .iter()
                    .map(|&m| slot_of[m])
                    .collect(),
            },
            relations: self.relations.clone(),
            map_index: slot_of
                .iter()
                .enumerate()
                .map(|(local, &slot)| (self.map_names[local].clone(), slot))
                .collect(),
            trigger_index: FxHashMap::default(),
        };
        // Trigger order is unchanged by rebinding; rebuild the index
        // rather than trusting the source program had one.
        out.trigger_index = trigger_index(&out.triggers);
        out
    }
}

/// Relation → position in `triggers`.
fn trigger_index(triggers: &[CompiledTrigger]) -> FxHashMap<String, usize> {
    triggers
        .iter()
        .enumerate()
        .map(|(i, t)| (t.relation.clone(), i))
        .collect()
}

// ---------------------------------------------------------------------
// map-id rebinding (shared-store slot translation)
// ---------------------------------------------------------------------

fn remap_statement(stmt: &ExecStatement, slot_of: &[usize]) -> ExecStatement {
    ExecStatement {
        target: slot_of[stmt.target],
        clear_target: stmt.clear_target,
        stage: stmt.stage,
        keys: stmt.keys.iter().map(|k| remap_scalar(k, slot_of)).collect(),
        block: remap_block(&stmt.block, slot_of),
        slots: stmt.slots,
        rendered: stmt.rendered.clone(),
        weight_power: stmt.weight_power,
        interval: stmt.interval.as_ref().map(|p| IntervalPlan {
            outer_map: slot_of[p.outer_map],
            key_slot: p.key_slot,
            value_slot: p.value_slot,
            probe_slot: p.probe_slot,
            probe: remap_scalar(&p.probe, slot_of),
            inner_map: slot_of[p.inner_map],
            inner_ordered_pos: p.inner_ordered_pos,
            pivot_guard: p.pivot_guard,
            rising: p.rising,
        }),
    }
}

fn remap_block(block: &Block, slot_of: &[usize]) -> Block {
    Block {
        loops: block
            .loops
            .iter()
            .map(|l| LoopStep {
                map: slot_of[l.map],
                bound_positions: l.bound_positions.clone(),
                bound_values: l
                    .bound_values
                    .iter()
                    .map(|s| remap_scalar(s, slot_of))
                    .collect(),
                bind: l.bind.clone(),
                value_slot: l.value_slot,
            })
            .collect(),
        assigns: block
            .assigns
            .iter()
            .map(|a| Assign {
                slot: a.slot,
                value: remap_scalar(&a.value, slot_of),
                level: a.level,
            })
            .collect(),
        guards: block
            .guards
            .iter()
            .map(|g| remap_scalar(g, slot_of))
            .collect(),
        value: block.value.as_ref().map(|v| remap_scalar(v, slot_of)),
    }
}

fn remap_scalar(scalar: &Scalar, slot_of: &[usize]) -> Scalar {
    match scalar {
        Scalar::Const(c) => Scalar::Const(c.clone()),
        Scalar::Slot(i) => Scalar::Slot(*i),
        Scalar::Add(es) => Scalar::Add(es.iter().map(|e| remap_scalar(e, slot_of)).collect()),
        Scalar::Mul(es) => Scalar::Mul(es.iter().map(|e| remap_scalar(e, slot_of)).collect()),
        Scalar::Neg(e) => Scalar::Neg(Box::new(remap_scalar(e, slot_of))),
        Scalar::Div(a, b) => Scalar::Div(
            Box::new(remap_scalar(a, slot_of)),
            Box::new(remap_scalar(b, slot_of)),
        ),
        Scalar::Cmp { op, left, right } => Scalar::Cmp {
            op: *op,
            left: Box::new(remap_scalar(left, slot_of)),
            right: Box::new(remap_scalar(right, slot_of)),
        },
        Scalar::Lookup { map, keys } => Scalar::Lookup {
            map: slot_of[*map],
            keys: keys.iter().map(|k| remap_scalar(k, slot_of)).collect(),
        },
        Scalar::Aggregate(block) => Scalar::Aggregate(Box::new(remap_block(block, slot_of))),
        Scalar::Exists(block) => Scalar::Exists(Box::new(remap_block(block, slot_of))),
        Scalar::RangeSum {
            map,
            eq_positions,
            eq_values,
            ordered_pos,
            op,
            bound,
        } => Scalar::RangeSum {
            map: slot_of[*map],
            eq_positions: eq_positions.clone(),
            eq_values: eq_values.iter().map(|s| remap_scalar(s, slot_of)).collect(),
            ordered_pos: *ordered_pos,
            op: *op,
            bound: Box::new(remap_scalar(bound, slot_of)),
        },
    }
}

/// Lower a calculus trigger program.
pub fn lower_program(program: &TriggerProgram) -> Result<ExecProgram> {
    let map_names: Vec<String> = program.maps.iter().map(|m| m.name.clone()).collect();
    let map_arities: Vec<usize> = program.maps.iter().map(|m| m.keys.len()).collect();
    let mut exec = ExecProgram {
        patterns: vec![Vec::new(); map_names.len()],
        ordered: vec![Vec::new(); map_names.len()],
        map_names,
        map_arities,
        ..Default::default()
    };
    // Declarative ordered-index requests from the compiler (hierarchy
    // children whose surrounding comparison binds an ordered key); the
    // range-aggregation rewrite below adds its own requirements on top.
    for (id, decl) in program.maps.iter().enumerate() {
        for &pos in &decl.ordered_keys {
            if pos < decl.keys.len() && !exec.ordered[id].contains(&pos) {
                exec.ordered[id].push(pos);
            }
        }
    }
    // Statement lowering resolves map names constantly; index them now
    // (the trigger index is completed by the final rebuild below).
    exec.rebuild_indexes();

    for trigger in &program.triggers {
        let mut compiled = CompiledTrigger {
            relation: trigger.relation.clone(),
            // Every argument but the trailing weight is a tuple column.
            event_args: trigger.args.len() - 1,
            statements: Vec::new(),
        };
        for statement in &trigger.statements {
            let lowered = lower_statement(statement, &trigger.args, &mut exec)?;
            compiled.statements.extend(lowered);
        }
        if !exec.relations.contains(&trigger.relation) {
            exec.relations.push(trigger.relation.clone());
        }
        exec.triggers.push(compiled);
    }

    exec.result = lower_result(program, &exec)?;
    exec.rebuild_indexes();
    Ok(exec)
}

fn lower_result(program: &TriggerProgram, exec: &ExecProgram) -> Result<ResultSpec> {
    let group_arity = program.query.group_vars.len();
    let mut columns = Vec::new();
    let mut driver_maps = Vec::new();
    let map_id = |name: &str| {
        exec.map_id(name)
            .ok_or_else(|| Error::Compile(format!("result references unknown map {name}")))
    };
    for col in &program.query.columns {
        match col {
            ResultColumn::Group { name, var } => {
                let index = program
                    .query
                    .group_vars
                    .iter()
                    .position(|g| g == var)
                    .ok_or_else(|| Error::Compile(format!("group column {var} not in keys")))?;
                columns.push(ResultColumnSpec::Group {
                    name: name.clone(),
                    index,
                });
            }
            ResultColumn::Sum { name, map } => {
                let id = map_id(map)?;
                driver_maps.push(id);
                columns.push(ResultColumnSpec::Sum {
                    name: name.clone(),
                    map: id,
                });
            }
            ResultColumn::Avg {
                name,
                sum_map,
                count_map,
            } => {
                let sum = map_id(sum_map)?;
                let count = map_id(count_map)?;
                driver_maps.push(count);
                columns.push(ResultColumnSpec::Avg {
                    name: name.clone(),
                    sum,
                    count,
                });
            }
            ResultColumn::Extremum { name, map, is_min } => {
                let id = map_id(map)?;
                columns.push(ResultColumnSpec::Extremum {
                    name: name.clone(),
                    map: id,
                    is_min: *is_min,
                });
            }
        }
    }
    Ok(ResultSpec {
        group_arity,
        columns,
        driver_maps,
    })
}

// ---------------------------------------------------------------------
// statement lowering
// ---------------------------------------------------------------------

struct Lowerer<'a> {
    exec: &'a mut ExecProgram,
    slots: Vec<Var>,
    bound: Vec<bool>,
    /// Number of leading slots holding the trigger arguments (available
    /// at loop level 0).
    args: usize,
}

impl<'a> Lowerer<'a> {
    fn slot_of(&mut self, var: &str) -> usize {
        match self.slots.iter().position(|v| v == var) {
            Some(i) => i,
            None => {
                self.slots.push(var.to_string());
                self.bound.push(false);
                self.slots.len() - 1
            }
        }
    }

    fn is_bound(&mut self, var: &str) -> bool {
        let s = self.slot_of(var);
        self.bound[s]
    }

    fn map_id(&self, name: &str) -> Result<usize> {
        self.exec
            .map_id(name)
            .ok_or_else(|| Error::Compile(format!("statement references unknown map {name}")))
    }
}

fn lower_statement(
    statement: &Statement,
    args: &[Var],
    exec: &mut ExecProgram,
) -> Result<Vec<ExecStatement>> {
    let target = exec
        .map_id(&statement.target)
        .ok_or_else(|| Error::Compile(format!("unknown target map {}", statement.target)))?;

    // A Replace statement's RHS is the map definition; unwrap the top
    // AggSum (its group is the target key list) and split a top-level sum
    // into independent addends.
    let (terms, clear_target) = match statement.kind {
        StatementKind::Update => (vec![statement.update.clone()], false),
        StatementKind::Replace => {
            let body = match &statement.update {
                CalcExpr::AggSum { body, .. } => (**body).clone(),
                other => other.clone(),
            };
            let terms = match body {
                CalcExpr::Sum(ts) => ts,
                other => vec![other],
            };
            (terms, true)
        }
    };

    let mut out = Vec::new();
    for (i, term) in terms.iter().enumerate() {
        let mut lowerer = Lowerer {
            exec,
            slots: Vec::new(),
            bound: Vec::new(),
            args: args.len(),
        };
        for a in args {
            let s = lowerer.slot_of(a);
            lowerer.bound[s] = true;
        }
        let (mut block, key_scalars) =
            build_block(&mut lowerer, term, &statement.target_keys, true)?;
        // The weight, the last trigger argument, has the last argument slot.
        let weight_power = hoist_weight(&mut block, args.len() - 1);
        let interval = plan_interval(&block, &key_scalars);
        if let Some(plan) = &interval {
            // The fast path also ranges over the *outer* map; make sure
            // its ordered index exists.
            let ord = &mut lowerer.exec.ordered[plan.outer_map];
            if !ord.contains(&0) {
                ord.push(0);
            }
        }
        out.push(ExecStatement {
            target,
            clear_target: clear_target && i == 0,
            stage: statement.stage,
            keys: key_scalars,
            block,
            slots: lowerer.slots.len(),
            rendered: statement.to_string(),
            interval,
            weight_power,
        });
    }
    Ok(out)
}

/// Take every factor `Slot(weight_slot)` out of a statement block's
/// top-level value product and return how many were taken.
fn hoist_weight(block: &mut Block, weight_slot: usize) -> u32 {
    let mut factors = match block.value.take() {
        Some(Scalar::Mul(factors)) => factors,
        value => value.into_iter().collect(),
    };
    let before = factors.len();
    factors.retain(|f| *f != Scalar::Slot(weight_slot));
    let taken = (before - factors.len()) as u32;
    block.value = Some(match factors.len() {
        0 => Scalar::Const(Value::ONE),
        1 => factors.pop().expect("one factor"),
        _ => Scalar::Mul(factors),
    });
    taken
}

/// Sign of `d(inner range sum)/d(outer key)` for an inner comparison
/// operator, valid when the inner map's values are all non-negative
/// (checked at runtime): a `key > bound` range shrinks as the bound
/// grows, a `key < bound` range grows.
fn range_direction(op: CmpOp) -> Option<i64> {
    match op {
        CmpOp::Gt | CmpOp::GtEq => Some(-1),
        CmpOp::Lt | CmpOp::LtEq => Some(1),
        CmpOp::Eq | CmpOp::NotEq => None,
    }
}

/// True when `scalar` is `Slot(slot)` scaled by positive constants only
/// — the shape whose comparison direction in `slot` is known statically.
fn positive_linear_in(scalar: &Scalar, slot: usize) -> bool {
    match scalar {
        Scalar::Slot(i) => *i == slot,
        Scalar::Mul(fs) => {
            let mut hits = 0usize;
            for f in fs {
                match f {
                    Scalar::Slot(i) if *i == slot => hits += 1,
                    Scalar::Const(Value::Int(c)) if *c > 0 => {}
                    Scalar::Const(Value::Float(c)) if *c > 0.0 => {}
                    _ => return false,
                }
            }
            hits == 1
        }
        _ => false,
    }
}

fn reads(scalar: &Scalar) -> BTreeSet<usize> {
    let mut r = BTreeSet::new();
    scalar_read_slots(scalar, &mut r);
    r
}

/// Detect the monotone-guard interval shape (see [`IntervalPlan`]):
/// scalar target; a single unbounded loop over an arity-1 map; exactly
/// one assignment probing a [`Scalar::RangeSum`] of the inner map at the
/// loop key, all other assignments loop-invariant; exactly one guard
/// reading that probe, linear in it with positive coefficient; the
/// emitted value the loop's map value times loop-invariant factors.
fn plan_interval(block: &Block, keys: &[Scalar]) -> Option<IntervalPlan> {
    if !keys.is_empty() || block.loops.len() != 1 {
        return None;
    }
    let lp = &block.loops[0];
    if !lp.bound_positions.is_empty() || lp.bind.len() != 1 || lp.bind[0].0 != 0 {
        return None;
    }
    let (_, key_slot) = lp.bind[0];
    let value_slot = lp.value_slot;
    let loop_local = |r: &BTreeSet<usize>| r.contains(&key_slot) || r.contains(&value_slot);

    // Emitted value: the loop's map value, times loop-invariant factors
    // (constants, trigger args, level-0 slots) — so the interval's sum
    // distributes over it exactly in the integer ring.
    match block.value.as_ref()? {
        Scalar::Slot(s) if *s == value_slot => {}
        Scalar::Mul(fs) => {
            let mut hits = 0usize;
            for f in fs {
                if matches!(f, Scalar::Slot(s) if *s == value_slot) {
                    hits += 1;
                } else if loop_local(&reads(f)) {
                    return None;
                }
            }
            if hits != 1 {
                return None;
            }
        }
        _ => return None,
    }

    // Exactly one probe assignment: a RangeSum bound to the loop key.
    // Everything else must be loop-invariant and independent of the probe.
    let mut probe: Option<(usize, &Scalar, usize, usize, i64)> = None;
    for a in &block.assigns {
        if let Scalar::RangeSum {
            map,
            eq_values,
            ordered_pos,
            op,
            bound,
            ..
        } = &a.value
        {
            let correlated = **bound == Scalar::Slot(key_slot);
            if correlated && probe.is_none() {
                if eq_values.iter().any(|s| loop_local(&reads(s))) {
                    return None;
                }
                let direction = range_direction(*op)?;
                probe = Some((a.slot, &a.value, *map, *ordered_pos, direction));
                continue;
            }
        }
        if loop_local(&reads(&a.value)) {
            return None;
        }
    }
    let (probe_slot, probe_scalar, inner_map, inner_ordered_pos, probe_direction) = probe?;
    // Nothing but the pivot guard may read the probe slot.
    for a in &block.assigns {
        if a.slot != probe_slot && reads(&a.value).contains(&probe_slot) {
            return None;
        }
    }
    if let Some(v) = &block.value {
        if reads(v).contains(&probe_slot) {
            return None;
        }
    }

    // Exactly one guard reads the probe or the key — the pivot. Each of
    // its comparison sides must have a statically known direction in the
    // outer key: positive-linear in the key itself (+1), positive-linear
    // in the probe (the inner range's direction, e.g. −1 for a
    // `inner > key` range that shrinks as the key grows), or
    // loop-invariant (0). A side rising and a side falling (or constant)
    // makes the guard's truth monotone along the sorted keys.
    let side_direction = |side: &Scalar| -> Option<i64> {
        if positive_linear_in(side, key_slot) {
            return Some(1);
        }
        if positive_linear_in(side, probe_slot) {
            return Some(probe_direction);
        }
        let r = reads(side);
        if loop_local(&r) || r.contains(&probe_slot) {
            return None;
        }
        Some(0)
    };
    let mut pivot: Option<(usize, bool)> = None;
    for (gi, g) in block.guards.iter().enumerate() {
        let r = reads(g);
        if !r.contains(&probe_slot) && !loop_local(&r) {
            continue; // loop-invariant guard: evaluated once up front
        }
        if pivot.is_some() {
            return None;
        }
        let Scalar::Cmp { op, left, right } = g else {
            return None;
        };
        let (dl, dr) = (side_direction(left)?, side_direction(right)?);
        if dl == dr {
            // Both sides move the same way (or the guard is degenerate):
            // `left - right` is not monotone in the key.
            return None;
        }
        let rising = match op {
            CmpOp::Gt | CmpOp::GtEq => dl > dr,
            CmpOp::Lt | CmpOp::LtEq => dr > dl,
            CmpOp::Eq | CmpOp::NotEq => return None,
        };
        pivot = Some((gi, rising));
    }
    let (pivot_guard, rising) = pivot?;

    Some(IntervalPlan {
        outer_map: lp.map,
        key_slot,
        value_slot,
        probe_slot,
        probe: probe_scalar.clone(),
        inner_map,
        inner_ordered_pos,
        pivot_guard,
        rising,
    })
}

/// Flatten a calculus product term into atomic factors, folding signs.
fn flatten_factors(expr: &CalcExpr, sign: i64, out: &mut Vec<(i64, CalcExpr)>) {
    match expr {
        CalcExpr::Prod(fs) => {
            // The sign applies once to the whole product; distribute it to
            // the first pushed factor by pushing a constant if needed.
            if sign < 0 {
                out.push((1, CalcExpr::constant(-1)));
            }
            for f in fs {
                flatten_factors(f, 1, out);
            }
        }
        CalcExpr::Neg(e) => flatten_factors(e, -sign, out),
        other => out.push((sign, other.clone())),
    }
}

/// Build a block for one product term. When `for_statement` is true, the
/// `target_keys` must all end up computable and nested aggregations are
/// flattened into the block's loops (the per-binding `+=` performs the
/// summation); when false (nested Lift/Exists bodies) the block is
/// evaluated as a scalar sum.
fn build_block(
    lowerer: &mut Lowerer<'_>,
    term: &CalcExpr,
    target_keys: &[Var],
    for_statement: bool,
) -> Result<(Block, Vec<Scalar>)> {
    let mut raw = Vec::new();
    flatten_factors(term, 1, &mut raw);

    // Flatten AggSum factors: their bodies' factors join this block.
    let mut factors: Vec<CalcExpr> = Vec::new();
    let mut queue: Vec<CalcExpr> = raw
        .into_iter()
        .map(|(sign, f)| {
            if sign < 0 {
                CalcExpr::product(vec![CalcExpr::constant(-1), f])
            } else {
                f
            }
        })
        .collect();
    while let Some(f) = queue.pop() {
        match f {
            CalcExpr::AggSum { body, .. } => {
                let mut inner = Vec::new();
                flatten_factors(&body, 1, &mut inner);
                for (sign, g) in inner {
                    if sign < 0 {
                        queue.push(CalcExpr::constant(-1));
                    }
                    queue.push(g);
                }
            }
            CalcExpr::Prod(fs) => queue.extend(fs),
            other => factors.push(other),
        }
    }

    let mut block = Block::default();
    let mut value_factors: Vec<Scalar> = Vec::new();
    let mut pending_cmps: Vec<(CmpOp, ValExpr, ValExpr)> = Vec::new();
    let mut pending_maps: Vec<(String, Vec<Var>)> = Vec::new();

    // Variables a nested body shares with the rest of the statement —
    // correlation parameters, target keys — are *outer-driven*: the
    // enclosing block binds them (by loop or assignment) and the nested
    // block only reads them from the environment at evaluation time.
    // They must be pinned while lowering the body, or the nested block
    // would claim an unbound correlation variable for one of its own
    // loops (hijacking, say, `M[broker]` inside the subquery to
    // enumerate brokers that the outer loop is supposed to drive).
    let factor_sets: Vec<BTreeSet<Var>> = factors.iter().map(|f| f.all_vars()).collect();
    let outer_pins = |i: usize, body: &CalcExpr| -> BTreeSet<Var> {
        let body_vars = body.all_vars();
        let mut pins: BTreeSet<Var> = BTreeSet::new();
        for (j, vars) in factor_sets.iter().enumerate() {
            if j != i {
                pins.extend(body_vars.intersection(vars).cloned());
            }
        }
        for k in target_keys {
            if body_vars.contains(k) {
                pins.insert(k.clone());
            }
        }
        pins
    };

    for (i, f) in factors.into_iter().enumerate() {
        match f {
            CalcExpr::Val(v) => value_factors.push(lower_val_deferred(&v)),
            CalcExpr::Cmp { op, left, right } => pending_cmps.push((op, left, right)),
            CalcExpr::MapRef { name, keys } => pending_maps.push((name, keys)),
            CalcExpr::Lift { var, body } => {
                let mut pins = outer_pins(i, &body);
                pins.remove(&var);
                let inner = with_pinned(lowerer, &pins, |l| build_nested_scalar(l, &body))?;
                let slot = lowerer.slot_of(&var);
                lowerer.bound[slot] = true;
                block.assigns.push(Assign {
                    slot,
                    value: inner,
                    level: None,
                });
            }
            CalcExpr::Exists(body) => {
                let pins = outer_pins(i, &body);
                let inner = with_pinned(lowerer, &pins, |l| build_nested_block(l, &body))?;
                value_factors.push(Scalar::Exists(Box::new(inner)));
            }
            CalcExpr::Rel { name, .. } => {
                return Err(Error::Compile(format!(
                    "statement still references base relation {name}; compile it first"
                )))
            }
            CalcExpr::Sum(ts) => {
                // A residual sum factor (e.g. an OR predicate): evaluate it
                // as a nested scalar.
                let sum = CalcExpr::Sum(ts);
                let pins = outer_pins(i, &sum);
                let inner = with_pinned(lowerer, &pins, |l| build_nested_scalar(l, &sum))?;
                value_factors.push(inner);
            }
            CalcExpr::Prod(_) | CalcExpr::AggSum { .. } | CalcExpr::Neg(_) => unreachable!(),
        }
    }

    // Fixpoint: resolve equality assignments and choose loops.
    loop {
        let mut progress = false;

        // Equalities that bind an unbound variable to a computable value.
        let mut i = 0;
        while i < pending_cmps.len() {
            let (op, l, r) = &pending_cmps[i];
            if *op == CmpOp::Eq {
                let assignment = match (l, r) {
                    (ValExpr::Var(x), rhs) if !lowerer.is_bound(x) && val_ready(lowerer, rhs) => {
                        Some((x.clone(), rhs.clone()))
                    }
                    (lhs, ValExpr::Var(y)) if !lowerer.is_bound(y) && val_ready(lowerer, lhs) => {
                        Some((y.clone(), lhs.clone()))
                    }
                    _ => None,
                };
                if let Some((var, rhs)) = assignment {
                    let scalar = lower_val(lowerer, &rhs)?;
                    let slot = lowerer.slot_of(&var);
                    lowerer.bound[slot] = true;
                    // The RHS is computable from what is bound *now* —
                    // trigger args, earlier assignments and the loops
                    // pushed so far — so the assignment runs at the
                    // current loop depth, before any later loop
                    // evaluates bound keys that may read this slot.
                    block.assigns.push(Assign {
                        slot,
                        value: scalar,
                        level: Some(block.loops.len()),
                    });
                    pending_cmps.remove(i);
                    progress = true;
                    continue;
                }
            }
            i += 1;
        }

        // Map references that are fully bound become lookups.
        let mut i = 0;
        while i < pending_maps.len() {
            let (_, keys) = &pending_maps[i];
            if keys.iter().all(|k| lowerer.is_bound(k)) {
                let (name, keys) = pending_maps.remove(i);
                let map = lowerer.map_id(&name)?;
                let key_scalars = keys
                    .iter()
                    .map(|k| Scalar::Slot(lowerer.slot_of(k)))
                    .collect();
                value_factors.push(Scalar::Lookup {
                    map,
                    keys: key_scalars,
                });
                progress = true;
                continue;
            }
            i += 1;
        }

        if pending_maps.is_empty() && pending_cmps.iter().all(|_| true) && !progress {
            // Pick a loop: the pending map reference with the most bound
            // keys (most selective slice).
            if pending_maps.is_empty() {
                break;
            }
        }
        if progress {
            continue;
        }
        if pending_maps.is_empty() {
            break;
        }
        let (best_idx, _) = pending_maps
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, keys))| keys.iter().filter(|k| lowerer.is_bound(k)).count())
            .expect("pending_maps is non-empty");
        let (name, keys) = pending_maps.remove(best_idx);
        let map = lowerer.map_id(&name)?;

        let mut bound_positions = Vec::new();
        let mut bound_values = Vec::new();
        let mut bind = Vec::new();
        for (pos, key) in keys.iter().enumerate() {
            if lowerer.is_bound(key) || bind.iter().any(|(_, s)| *s == lowerer.slot_of(key)) {
                bound_positions.push(pos);
                bound_values.push(Scalar::Slot(lowerer.slot_of(key)));
            } else {
                let slot = lowerer.slot_of(key);
                bind.push((pos, slot));
            }
        }
        // Register the index pattern this loop needs.
        if !bound_positions.is_empty() && bound_positions.len() < keys.len() {
            let pats = &mut lowerer.exec.patterns[map];
            if !pats.contains(&bound_positions) {
                pats.push(bound_positions.clone());
            }
        }
        let value_slot = {
            lowerer.slots.push(format!("__val{}", lowerer.slots.len()));
            lowerer.bound.push(true);
            lowerer.slots.len() - 1
        };
        for (_, slot) in &bind {
            lowerer.bound[*slot] = true;
        }
        value_factors.push(Scalar::Slot(value_slot));
        block.loops.push(LoopStep {
            map,
            bound_positions,
            bound_values,
            bind,
            value_slot,
        });
    }

    // Whatever comparisons remain are guards; they must now be evaluable.
    for (op, l, r) in pending_cmps {
        let left = lower_val(lowerer, &l)?;
        let right = lower_val(lowerer, &r)?;
        block.guards.push(Scalar::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        });
    }

    // Resolve the deferred value factors (variables must be bound now).
    let value_factors = value_factors
        .into_iter()
        .map(|s| resolve_deferred(lowerer, s))
        .collect::<Result<Vec<_>>>()?;

    block.value = Some(match value_factors.len() {
        0 => Scalar::Const(Value::ONE),
        1 => value_factors.into_iter().next().unwrap(),
        _ => Scalar::Mul(value_factors),
    });

    // Target keys.
    let mut key_scalars = Vec::new();
    if for_statement {
        for k in target_keys {
            if !lowerer.is_bound(k) {
                return Err(Error::Compile(format!(
                    "target key {k} is not bound by trigger arguments, equalities or loops \
                     in statement"
                )));
            }
            key_scalars.push(Scalar::Slot(lowerer.slot_of(k)));
        }
        schedule_assigns(&mut block, lowerer.args, lowerer.slots.len());
    }

    Ok((block, key_scalars))
}

/// Resolve the loop level of every `level: None` assignment (`Lift`
/// bindings) in a statement-level block to the outermost level at which
/// all of its inputs are available, and order same-level assignments so
/// readers run after writers.
///
/// Without this, `Lift` bodies are recomputed per complete loop binding
/// — an uncorrelated scalar subquery inside a statement that loops over
/// a map of N entries would be re-aggregated N times. With it, each
/// nested aggregate is evaluated exactly once per level of the loop nest
/// that actually feeds it (once per statement when uncorrelated).
fn schedule_assigns(block: &mut Block, arg_slots: usize, slot_count: usize) {
    let innermost = block.loops.len();
    // Level at which each slot becomes available: trigger arguments at
    // level 0, loop-bound slots after their loop, assigned slots at the
    // level of their assignment.
    let mut avail: Vec<usize> = vec![usize::MAX; slot_count];
    for slot in avail.iter_mut().take(arg_slots) {
        *slot = 0;
    }
    for (i, l) in block.loops.iter().enumerate() {
        for (_, slot) in &l.bind {
            avail[*slot] = i + 1;
        }
        avail[l.value_slot] = i + 1;
    }
    let reads: Vec<BTreeSet<usize>> = block
        .assigns
        .iter()
        .map(|a| {
            let mut r = BTreeSet::new();
            scalar_read_slots(&a.value, &mut r);
            r
        })
        .collect();
    let mut levels: Vec<Option<usize>> = block.assigns.iter().map(|a| a.level).collect();
    for a in &block.assigns {
        if let Some(l) = a.level {
            avail[a.slot] = avail[a.slot].min(l);
        }
    }
    // Fixpoint: dependencies between assignments may appear in any list
    // order.
    loop {
        let mut changed = false;
        for (i, a) in block.assigns.iter().enumerate() {
            if a.level.is_some() {
                continue;
            }
            let level = reads[i]
                .iter()
                .map(|&s| avail.get(s).copied().unwrap_or(usize::MAX))
                .max()
                .unwrap_or(0);
            if level == usize::MAX {
                continue; // an input's level is not known yet
            }
            let level = level.min(innermost);
            if levels[i] != Some(level) {
                levels[i] = Some(level);
                changed = true;
            }
            if avail[a.slot] > level {
                avail[a.slot] = level;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (a, level) in block.assigns.iter_mut().zip(&levels) {
        a.level = Some(level.unwrap_or(innermost).min(innermost));
    }
    // Order: ascending level; within a level, writers before readers
    // (run_block executes same-level assignments in list order). The
    // dependency graph between assignments is acyclic by construction —
    // every assignment's inputs are bound earlier — but fall back to the
    // existing order defensively if a cycle were ever to appear.
    let n = block.assigns.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let mut progressed = false;
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let ready = (0..n).all(|j| {
                placed[j]
                    || j == i
                    || block.assigns[j].level > block.assigns[i].level
                    || (block.assigns[j].level == block.assigns[i].level
                        && !reads[i].contains(&block.assigns[j].slot))
            });
            if ready {
                order.push(i);
                placed[i] = true;
                progressed = true;
            }
        }
        if !progressed {
            for (i, slot) in placed.iter_mut().enumerate() {
                if !*slot {
                    order.push(i);
                    *slot = true;
                }
            }
        }
    }
    let reordered: Vec<Assign> = order.iter().map(|&i| block.assigns[i].clone()).collect();
    block.assigns = reordered;
}

/// Slots a scalar reads, including the *free* slots of nested
/// `Aggregate` / `Exists` blocks (reads minus the slots the nested block
/// binds itself).
fn scalar_read_slots(scalar: &Scalar, out: &mut BTreeSet<usize>) {
    match scalar {
        Scalar::Const(_) => {}
        Scalar::Slot(i) => {
            out.insert(*i);
        }
        Scalar::Add(es) | Scalar::Mul(es) => {
            for e in es {
                scalar_read_slots(e, out);
            }
        }
        Scalar::Neg(e) => scalar_read_slots(e, out),
        Scalar::Div(a, b) => {
            scalar_read_slots(a, out);
            scalar_read_slots(b, out);
        }
        Scalar::Cmp { left, right, .. } => {
            scalar_read_slots(left, out);
            scalar_read_slots(right, out);
        }
        Scalar::Lookup { keys, .. } => {
            for k in keys {
                scalar_read_slots(k, out);
            }
        }
        Scalar::Aggregate(block) | Scalar::Exists(block) => block_free_slots(block, out),
        Scalar::RangeSum {
            eq_values, bound, ..
        } => {
            for s in eq_values {
                scalar_read_slots(s, out);
            }
            scalar_read_slots(bound, out);
        }
    }
}

/// The free slots of a nested block: everything it reads minus
/// everything it binds (loop bindings, loop value slots, assignments).
fn block_free_slots(block: &Block, out: &mut BTreeSet<usize>) {
    let mut reads = BTreeSet::new();
    for l in &block.loops {
        for s in &l.bound_values {
            scalar_read_slots(s, &mut reads);
        }
    }
    for a in &block.assigns {
        scalar_read_slots(&a.value, &mut reads);
    }
    for g in &block.guards {
        scalar_read_slots(g, &mut reads);
    }
    if let Some(v) = &block.value {
        scalar_read_slots(v, &mut reads);
    }
    let mut bound = BTreeSet::new();
    for l in &block.loops {
        bound.insert(l.value_slot);
        for (_, slot) in &l.bind {
            bound.insert(*slot);
        }
    }
    for a in &block.assigns {
        bound.insert(a.slot);
    }
    out.extend(reads.difference(&bound));
}

/// Run `f` with the given variables temporarily marked bound, restoring
/// the flags of the ones this call marked afterwards. Used to pin
/// outer-driven variables (correlation parameters, target keys) while a
/// nested `Lift`/`Exists` body is lowered: the nested block then treats
/// them as environment inputs instead of binding them with its own
/// loops, and the enclosing block remains responsible for binding them.
fn with_pinned<R>(
    lowerer: &mut Lowerer<'_>,
    pins: &BTreeSet<Var>,
    f: impl FnOnce(&mut Lowerer<'_>) -> Result<R>,
) -> Result<R> {
    let mut newly: Vec<usize> = Vec::new();
    for var in pins {
        let slot = lowerer.slot_of(var);
        if !lowerer.bound[slot] {
            lowerer.bound[slot] = true;
            newly.push(slot);
        }
    }
    let result = f(lowerer);
    for slot in newly {
        lowerer.bound[slot] = false;
    }
    result
}

/// Build a nested block (for Lift / Exists bodies) sharing the enclosing
/// statement's slot space.
fn build_nested_block(lowerer: &mut Lowerer<'_>, body: &CalcExpr) -> Result<Block> {
    // Bodies may be sums of products; evaluate each addend as its own
    // sub-block and sum them through an Aggregate of a synthetic block per
    // addend. For the common single-term case this is a single block.
    let (block, _) = build_block(lowerer, body, &[], false)?;
    Ok(block)
}

/// Build a nested scalar for a Lift body.
fn build_nested_scalar(lowerer: &mut Lowerer<'_>, body: &CalcExpr) -> Result<Scalar> {
    match body {
        CalcExpr::Sum(ts) => {
            let mut parts = Vec::new();
            for t in ts {
                parts.push(build_nested_scalar(lowerer, t)?);
            }
            Ok(Scalar::Add(parts))
        }
        CalcExpr::Val(v) => lower_val(lowerer, v),
        other => {
            let block = build_nested_block(lowerer, other)?;
            if let Some(range) = lower_range_sum(lowerer, &block) {
                return Ok(range);
            }
            Ok(Scalar::Aggregate(Box::new(block)))
        }
    }
}

/// Rewrite an aggregation block of the inequality-sliced shape — one
/// loop whose single unbound key is constrained only by one comparison
/// against a loop-invariant bound, summing the map value itself — into a
/// [`Scalar::RangeSum`] probe of the map's ordered index: O(log P)
/// instead of O(P) per evaluation. Registers the index requirement on
/// the map. Any block that doesn't match keeps its loop.
fn lower_range_sum(lowerer: &mut Lowerer<'_>, block: &Block) -> Option<Scalar> {
    if block.loops.len() != 1 || !block.assigns.is_empty() || block.guards.len() != 1 {
        return None;
    }
    let lp = &block.loops[0];
    if lp.bind.len() != 1 {
        return None;
    }
    let (ordered_pos, key_slot) = lp.bind[0];
    if block.value != Some(Scalar::Slot(lp.value_slot)) {
        return None;
    }
    let Scalar::Cmp { op, left, right } = &block.guards[0] else {
        return None;
    };
    let (op, bound) = if **left == Scalar::Slot(key_slot) {
        (*op, right.as_ref())
    } else if **right == Scalar::Slot(key_slot) {
        (op.flip(), left.as_ref())
    } else {
        return None;
    };
    // The bound must be loop-invariant (an outer correlation parameter,
    // trigger argument or constant — not this loop's own bindings).
    let bound_reads = reads(bound);
    if bound_reads.contains(&key_slot) || bound_reads.contains(&lp.value_slot) {
        return None;
    }
    // The ordered index groups by *every* non-ordered position, in
    // ascending order; the loop's bound positions must be exactly that
    // complement (sorted here, values carried along) or the probe would
    // aggregate a different slice than the loop did.
    let mut eq: Vec<(usize, Scalar)> = lp
        .bound_positions
        .iter()
        .copied()
        .zip(lp.bound_values.iter().cloned())
        .collect();
    eq.sort_by_key(|(p, _)| *p);
    let arity = lowerer.exec.map_arities[lp.map];
    let complement: Vec<usize> = (0..arity).filter(|&p| p != ordered_pos).collect();
    if eq.iter().map(|(p, _)| *p).ne(complement.iter().copied()) {
        return None;
    }
    let (eq_positions, eq_values): (Vec<usize>, Vec<Scalar>) = eq.into_iter().unzip();
    let ord = &mut lowerer.exec.ordered[lp.map];
    if !ord.contains(&ordered_pos) {
        ord.push(ordered_pos);
    }
    Some(Scalar::RangeSum {
        map: lp.map,
        eq_positions,
        eq_values,
        ordered_pos,
        op,
        bound: Box::new(bound.clone()),
    })
}

/// Lower a value expression whose variables may not be bound yet; slots
/// are allocated and verified during `resolve_deferred`.
fn lower_val_deferred(v: &ValExpr) -> Scalar {
    match v {
        ValExpr::Const(c) => Scalar::Const(c.clone()),
        ValExpr::Var(x) => Scalar::Lookup {
            map: usize::MAX,
            keys: vec![Scalar::Const(Value::Str(x.clone()))],
        },
        ValExpr::Add(es) => Scalar::Add(es.iter().map(lower_val_deferred).collect()),
        ValExpr::Mul(es) => Scalar::Mul(es.iter().map(lower_val_deferred).collect()),
        ValExpr::Neg(e) => Scalar::Neg(Box::new(lower_val_deferred(e))),
        ValExpr::Div(a, b) => Scalar::Div(
            Box::new(lower_val_deferred(a)),
            Box::new(lower_val_deferred(b)),
        ),
    }
}

/// Replace the deferred variable markers produced by `lower_val_deferred`
/// with real slots (now that loops have bound them).
fn resolve_deferred(lowerer: &mut Lowerer<'_>, s: Scalar) -> Result<Scalar> {
    Ok(match s {
        Scalar::Lookup { map, keys } if map == usize::MAX => {
            let var = match &keys[0] {
                Scalar::Const(Value::Str(name)) => name.clone(),
                _ => return Err(Error::Compile("malformed deferred variable".into())),
            };
            Scalar::Slot(lowerer.slot_of(&var))
        }
        Scalar::Add(es) => Scalar::Add(
            es.into_iter()
                .map(|e| resolve_deferred(lowerer, e))
                .collect::<Result<_>>()?,
        ),
        Scalar::Mul(es) => Scalar::Mul(
            es.into_iter()
                .map(|e| resolve_deferred(lowerer, e))
                .collect::<Result<_>>()?,
        ),
        Scalar::Neg(e) => Scalar::Neg(Box::new(resolve_deferred(lowerer, *e)?)),
        Scalar::Div(a, b) => Scalar::Div(
            Box::new(resolve_deferred(lowerer, *a)?),
            Box::new(resolve_deferred(lowerer, *b)?),
        ),
        other => other,
    })
}

fn val_ready(lowerer: &mut Lowerer<'_>, v: &ValExpr) -> bool {
    let mut vars = Vec::new();
    v.collect_vars(&mut vars);
    vars.iter().all(|x| lowerer.is_bound(x))
}

fn lower_val(lowerer: &mut Lowerer<'_>, v: &ValExpr) -> Result<Scalar> {
    Ok(match v {
        ValExpr::Const(c) => Scalar::Const(c.clone()),
        ValExpr::Var(x) => Scalar::Slot(lowerer.slot_of(x)),
        ValExpr::Add(es) => Scalar::Add(
            es.iter()
                .map(|e| lower_val(lowerer, e))
                .collect::<Result<_>>()?,
        ),
        ValExpr::Mul(es) => Scalar::Mul(
            es.iter()
                .map(|e| lower_val(lowerer, e))
                .collect::<Result<_>>()?,
        ),
        ValExpr::Neg(e) => Scalar::Neg(Box::new(lower_val(lowerer, e)?)),
        ValExpr::Div(a, b) => Scalar::Div(
            Box::new(lower_val(lowerer, a)?),
            Box::new(lower_val(lowerer, b)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{Catalog, ColumnType, Schema};
    use dbtoaster_compiler::{compile_sql, CompileOptions};

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
    fn figure2_program_lowers_with_loops_and_lookups() {
        let p = compile_sql(
            "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
            &rst_catalog(),
            &CompileOptions::full(),
        )
        .unwrap();
        let exec = lower_program(&p).unwrap();
        assert_eq!(exec.map_names.len(), 6);
        // Every relation has one compiled trigger.
        assert_eq!(exec.triggers.len(), 3);
        // The R trigger: q update is straight-line (no loops), the
        // qA[c] update loops over the q1 slice (the paper's foreach).
        let on_r = exec.trigger("R").unwrap();
        assert!(on_r.statements.iter().any(|s| s.block.loops.is_empty()));
        assert!(on_r.statements.iter().any(|s| !s.block.loops.is_empty()));
        // The foreach loop registered a secondary-index pattern on q1.
        let q1 = exec
            .map_names
            .iter()
            .position(|n| n.starts_with("M5"))
            .unwrap();
        assert!(!exec.patterns[q1].is_empty());
    }

    #[test]
    fn first_order_programs_lower_to_loops_over_base_maps() {
        let p = compile_sql(
            "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
            &rst_catalog(),
            &CompileOptions::first_order(),
        )
        .unwrap();
        let exec = lower_program(&p).unwrap();
        let on_r = exec.trigger("R").unwrap();
        let q_stmt = &on_r.statements[0];
        // Evaluating the residual join needs at least one loop.
        assert!(!q_stmt.block.loops.is_empty());
    }

    #[test]
    fn group_by_statement_keys_come_from_trigger_args() {
        let p = compile_sql(
            "select B, sum(A) from R group by B",
            &rst_catalog(),
            &CompileOptions::full(),
        )
        .unwrap();
        let exec = lower_program(&p).unwrap();
        let on_r = exec.trigger("R").unwrap();
        assert_eq!(on_r.statements.len(), 1);
        assert_eq!(on_r.statements[0].keys.len(), 1);
        assert!(on_r.statements[0].block.loops.is_empty());
        // `Q[r_b] += w * r_a`: the weight (slot 2, after the two columns)
        // is hoisted out of the per-binding value.
        assert_eq!(on_r.statements[0].weight_power, 1);
        assert_eq!(on_r.statements[0].block.value, Some(Scalar::Slot(0)));
    }

    #[test]
    fn result_spec_references_result_maps() {
        let p = compile_sql(
            "select B, sum(A), avg(A) from R group by B",
            &rst_catalog(),
            &CompileOptions::full(),
        )
        .unwrap();
        let exec = lower_program(&p).unwrap();
        assert_eq!(exec.result.group_arity, 1);
        assert_eq!(exec.result.columns.len(), 3);
        assert!(matches!(
            exec.result.columns[0],
            ResultColumnSpec::Group { .. }
        ));
        assert!(matches!(
            exec.result.columns[2],
            ResultColumnSpec::Avg { .. }
        ));
    }
}
