//! The query engine: applies update-stream events to the maintained maps
//! and serves the standing-query result.
//!
//! An [`Engine`] is the *embedded mode* of the paper's runtime: it lives
//! in the application's address space, processes one [`Event`] at a time
//! through pre-compiled trigger statements, and exposes
//!
//! * [`Engine::result`] — the standing query's current answer,
//! * [`Engine::map_snapshot`] / [`Engine::lookup`] — the read-only
//!   interface to internal maps for ad-hoc client-side queries,
//! * [`Engine::profile`] — per-trigger and per-map statistics (tuple
//!   counts, processing time, entry counts, approximate bytes), backing
//!   the paper's profiling/visualization experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dbtoaster_common::{Error, Event, Result, Tuple, Value};
use dbtoaster_compiler::{handler_name, TriggerProgram};
use dbtoaster_telemetry::{TraceRecorder, TraceSpan, LAYER_STATEMENT};

use crate::lower::{lower_program, Block, ExecProgram, ResultColumnSpec, Scalar};
use crate::storage::{MapRead, MapStorage, MapWrite};

/// One row of the standing-query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Group-by key (empty for scalar queries).
    pub key: Tuple,
    /// Output values in `SELECT` order (including echoed group columns).
    pub values: Vec<Value>,
}

/// Per-trigger and per-map statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub events_processed: u64,
    pub per_trigger: Vec<(String, u64, Duration)>,
    /// (map name, live entries, approximate bytes).
    pub per_map: Vec<(String, usize, usize)>,
    pub total_bytes: usize,
    /// Number of compiled statements and total compiled "code size"
    /// (calculus nodes), mirroring the paper's generated-code statistics.
    pub statement_count: usize,
    pub code_size: usize,
    /// Wall-clock time spent compiling and lowering the query.
    pub compile_time: Duration,
    /// Per-statement self-profile (empty unless
    /// [`Engine::enable_profiling`] is on).
    pub statements: Vec<StmtProfileEntry>,
    /// Process-wide successful ordered-index range probes.
    pub ordered_probes: u64,
    /// Process-wide ordered-path fallbacks as `(reason, count)`.
    pub ordered_fallbacks: Vec<(String, u64)>,
}

/// The embedded-mode query engine.
pub struct Engine {
    program: TriggerProgram,
    exec: ExecProgram,
    maps: Vec<MapStorage>,
    events_processed: u64,
    /// (events, time) per trigger, indexed like `exec.triggers`.
    trigger_stats: Vec<(u64, Duration)>,
    compile_time: Duration,
    profile: Option<StmtProfile>,
    /// Statement-evaluation buffers, reused across every event this
    /// engine processes (not just within one batch) so the per-event
    /// path pays no allocation either.
    scratch: EventScratch,
}

impl Engine {
    /// Build an engine from a compiled trigger program (lowers it and
    /// allocates all maps and secondary indexes).
    pub fn new(program: &TriggerProgram) -> Result<Engine> {
        let started = Instant::now();
        let exec = lower_program(program)?;
        let mut maps: Vec<MapStorage> = exec
            .map_arities
            .iter()
            .map(|&a| MapStorage::new(a))
            .collect();
        for (map, patterns) in exec.patterns.iter().enumerate() {
            for p in patterns {
                maps[map].register_pattern(p);
            }
        }
        for (map, positions) in exec.ordered.iter().enumerate() {
            for &p in positions {
                maps[map].register_ordered(p);
            }
        }
        Ok(Engine {
            program: program.clone(),
            trigger_stats: vec![(0, Duration::ZERO); exec.triggers.len()],
            exec,
            maps,
            events_processed: 0,
            compile_time: started.elapsed(),
            profile: None,
            scratch: EventScratch::default(),
        })
    }

    /// The lowered program (for inspection and tests).
    pub fn exec_program(&self) -> &ExecProgram {
        &self.exec
    }

    /// The calculus-level program this engine runs.
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// Enable or disable the per-statement self-profiler: cumulative
    /// nanoseconds and run counts per `(trigger, stage, statement)`,
    /// reported through [`Engine::profile`]. Costs two clock reads per
    /// statement while on; turning it off discards the collected stats.
    pub fn enable_profiling(&mut self, on: bool) {
        self.profile = on.then(|| StmtProfile::for_program(&self.exec));
    }

    /// Process a single update-stream event.
    pub fn on_event(&mut self, event: &Event) -> Result<()> {
        let started = Instant::now();
        // Relations unknown to the query run no trigger (the paper's
        // runtime registers handlers only for referenced streams).
        let trigger = self.apply_event(event)?;
        self.events_processed += 1;
        if let Some(t) = trigger {
            let stat = &mut self.trigger_stats[t];
            stat.0 += 1;
            stat.1 += started.elapsed();
        }
        Ok(())
    }

    /// Process a whole batch of events through the triggers, paying the
    /// per-event overheads once per batch instead of once per event — the
    /// engine half of the view server's batched ingestion path. Two costs
    /// are amortized: clock reads (two per batch instead of two per
    /// event) and the statement-evaluation scratch buffers (the slot
    /// environment and update staging vector are reused across every
    /// event of the batch instead of being allocated per statement).
    /// Statement application and event order are identical to calling
    /// [`Engine::on_event`] in a loop; only profiling granularity differs:
    /// per-trigger *counts* stay exact, but the measured time is
    /// attributed to the batch's first trigger rather than split per
    /// trigger.
    ///
    /// Returns the number of events absorbed (the whole batch, unless an
    /// arity error aborts mid-batch).
    pub fn process_batch<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a Event>,
    ) -> Result<usize> {
        let started = Instant::now();
        // The trigger charged with the batch's time.
        let mut timed = None;
        let mut absorbed = 0usize;
        // Stop at a bad event, keeping the counts of the events before it.
        let outcome = events.into_iter().try_for_each(|event| {
            if let Some(t) = self.apply_event(event)? {
                self.trigger_stats[t].0 += 1;
                timed.get_or_insert(t);
            }
            self.events_processed += 1;
            absorbed += 1;
            Ok(())
        });
        if let Some(t) = timed {
            self.trigger_stats[t].1 += started.elapsed();
        }
        outcome.map(|()| absorbed)
    }

    /// Run the trigger for one event, without touching counters or the
    /// clock. Returns the index of the trigger that ran, `None` when no
    /// trigger references the relation. The engine's own scratch provides
    /// the statement-evaluation buffers, so neither the per-event nor the
    /// batched path allocates.
    fn apply_event(&mut self, event: &Event) -> Result<Option<usize>> {
        let hooks = StmtHooks {
            profile: self.profile.as_ref(),
            spans: None,
        };
        apply_event_statements(
            &self.exec,
            self.maps.as_mut_slice(),
            event,
            &mut self.scratch,
            StatementPhase::All,
            None,
            hooks,
        )
    }

    /// Process every event of a stream, in order.
    pub fn process<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) -> Result<()> {
        for e in events {
            self.on_event(e)?;
        }
        Ok(())
    }

    /// The current standing-query result, sorted by group key for
    /// deterministic output.
    pub fn result(&self) -> Vec<ResultRow> {
        assemble_result(&self.exec, self.maps.as_slice())
    }

    /// Output column names in `SELECT` order.
    pub fn column_names(&self) -> Vec<String> {
        result_column_names(&self.exec)
    }

    /// Convenience accessor for scalar single-aggregate queries.
    pub fn scalar_result(&self) -> Value {
        self.result()
            .first()
            .and_then(|r| r.values.first().cloned())
            .unwrap_or(Value::ZERO)
    }

    /// Read-only snapshot of one internal map (the ad-hoc query
    /// interface).
    pub fn map_snapshot(&self, name: &str) -> Option<Vec<(Tuple, Value)>> {
        let id = self.exec.map_id(name)?;
        let mut entries: Vec<(Tuple, Value)> = self.maps[id]
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Some(entries)
    }

    /// Point lookup into an internal map.
    pub fn lookup(&self, map: &str, key: &Tuple) -> Option<Value> {
        let id = self.exec.map_id(map)?;
        Some(self.maps[id].get(key))
    }

    /// Bulk-load entries into one internal map (secondary indexes are
    /// maintained). This is the warm-start path for archived state: a
    /// server restarting against a snapshot loads its base/child maps
    /// directly instead of replaying the archive through the triggers,
    /// then calls [`Engine::rebuild_derived`] to re-establish the
    /// recomputed maps. Entries add to whatever is already stored.
    pub fn load_map(
        &mut self,
        name: &str,
        entries: impl IntoIterator<Item = (Tuple, Value)>,
    ) -> Result<()> {
        let id = self
            .exec
            .map_id(name)
            .ok_or_else(|| Error::Runtime(format!("unknown map {name}")))?;
        for (key, value) in entries {
            self.maps[id].add(key, value);
        }
        Ok(())
    }

    /// Empty every internal map, keeping the registered secondary
    /// indexes (equality slices, ordered positions). Turns a built
    /// engine into a reusable oracle: the shadow auditor seeds one
    /// engine per view once, then per audited event resets it, loads
    /// the captured pre-event snapshot via [`Engine::load_map`], and
    /// replays the event — no re-lowering per audit.
    pub fn reset_maps(&mut self) {
        for m in &mut self.maps {
            m.clear();
        }
    }

    /// Re-establish every derived map that is maintained by post-stage
    /// statements — hierarchy-bracket targets (`Q += F(children)`) and
    /// legacy `Replace` targets — from the currently loaded inputs. Each
    /// target's statements are run once, from a single trigger (the
    /// bracket is identical in every relation's trigger). Completes a
    /// warm start: load the flat maps with [`Engine::load_map`], then
    /// call this to make the nested results consistent.
    pub fn rebuild_derived(&mut self) -> Result<()> {
        let mut done: Vec<usize> = Vec::new();
        for trigger in &self.exec.triggers {
            let pending: Vec<&crate::lower::ExecStatement> = trigger
                .statements
                .iter()
                .filter(|s| s.stage > 0 && !done.contains(&s.target))
                .collect();
            if pending.is_empty() {
                continue;
            }
            // The bracket statements reference no trigger arguments (a
            // full recomputation from materialized inputs), so a zeroed
            // environment is a valid context.
            let EventScratch { env, updates } = &mut self.scratch;
            for stmt in &pending {
                env.clear();
                run_statement(stmt, self.maps.as_mut_slice(), env, updates, 1);
            }
            for stmt in pending {
                if !done.contains(&stmt.target) {
                    done.push(stmt.target);
                }
            }
        }
        Ok(())
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Approximate total memory held by all maps, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.maps.iter().map(MapStorage::approx_bytes).sum()
    }

    /// Build the profiling report (experiment E5).
    pub fn profile(&self) -> ProfileReport {
        let mut per_trigger: Vec<(String, u64, Duration)> = self
            .exec
            .triggers
            .iter()
            .zip(&self.trigger_stats)
            .filter(|(_, (count, _))| *count > 0)
            .map(|(t, &(count, time))| (handler_name(&t.relation), count, time))
            .collect();
        per_trigger.sort();
        let per_map: Vec<(String, usize, usize)> = self
            .exec
            .map_names
            .iter()
            .zip(&self.maps)
            .map(|(name, m)| (name.clone(), m.len(), m.approx_bytes()))
            .collect();
        ProfileReport {
            events_processed: self.events_processed,
            per_trigger,
            total_bytes: per_map.iter().map(|(_, _, b)| b).sum(),
            per_map,
            statement_count: self.program.statement_count(),
            code_size: self.program.code_size(),
            compile_time: self.compile_time,
            statements: self
                .profile
                .as_ref()
                .map(|p| p.entries(&self.exec))
                .unwrap_or_default(),
            ordered_probes: ordered_fallback::probes(),
            ordered_fallbacks: ordered_fallback::REASONS
                .iter()
                .zip(ordered_fallback::counts())
                .map(|(r, c)| (r.to_string(), c))
                .collect(),
        }
    }

    /// Alias for [`Engine::profile`] — the per-statement profiling
    /// plane's report (statements populated when
    /// [`Engine::enable_profiling`] is on).
    pub fn profile_report(&self) -> ProfileReport {
        self.profile()
    }
}

/// Reusable statement-evaluation buffers: the slot environment and the
/// staging vector for computed `(key, delta)` updates. One event's worth
/// of state — reused across a whole batch by `process_batch` and by the
/// view server's shared-store ingestion path.
#[derive(Default)]
pub struct EventScratch {
    env: Vec<Value>,
    updates: Vec<(Tuple, Value)>,
}

/// Which statements of a trigger to run.
///
/// Embedded engines run [`StatementPhase::All`]: the compiler already
/// sorts each trigger's statements by execution stage (hierarchy
/// retracts at `-1`, delta updates at `0`, hierarchy rebuilds and legacy
/// `Replace` re-evaluations at `+1`). The shared-store server runs the
/// stages *across views*: for each event, every view's statements of the
/// lowest stage run first, then the next stage, and so on — so shared
/// maps are written exactly once (by their maintainer), retract
/// statements observe every input pre-event, and rebuild/re-evaluation
/// statements observe fully post-event inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementPhase {
    /// Run every statement, in the trigger's (stage-sorted) order.
    All,
    /// Run only the statements of one execution stage.
    Stage(dbtoaster_compiler::Stage),
}

impl StatementPhase {
    fn runs(self, stage: dbtoaster_compiler::Stage) -> bool {
        match self {
            StatementPhase::All => true,
            StatementPhase::Stage(s) => s == stage,
        }
    }
}

// ---------------------------------------------------------------------
// per-statement self-profiling
// ---------------------------------------------------------------------

/// Cumulative per-statement self-profile: nanoseconds and run counts
/// keyed by the program-wide `(trigger index, statement index)` identity
/// (stable across map-id rebinding — see
/// [`ExecProgram::trigger_indexed`]). Recording is two relaxed atomic
/// adds, so one profile can be shared across worker threads.
#[derive(Debug)]
pub struct StmtProfile {
    /// Per-trigger base offset into the flattened statement arrays,
    /// aligned with `ExecProgram::triggers`.
    bases: Vec<usize>,
    nanos: Vec<AtomicU64>,
    runs: Vec<AtomicU64>,
}

impl StmtProfile {
    /// A zeroed profile sized for `exec`'s statements.
    pub fn for_program(exec: &ExecProgram) -> StmtProfile {
        let mut bases = Vec::with_capacity(exec.triggers.len());
        let mut total = 0usize;
        for t in &exec.triggers {
            bases.push(total);
            total += t.statements.len();
        }
        StmtProfile {
            bases,
            nanos: (0..total).map(|_| AtomicU64::new(0)).collect(),
            runs: (0..total).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Credit one execution of statement `stmt` of trigger `trigger`.
    #[inline]
    pub fn credit(&self, trigger: usize, stmt: usize, nanos: u64) {
        let slot = self.bases[trigger] + stmt;
        self.nanos[slot].fetch_add(nanos, Ordering::Relaxed);
        self.runs[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the statements that have run at least once, in program
    /// order. `exec` must be the program the profile was built for (or
    /// a map-rebound equivalent — trigger/statement order is identical).
    pub fn entries(&self, exec: &ExecProgram) -> Vec<StmtProfileEntry> {
        let mut out = Vec::new();
        for (ti, trigger) in exec.triggers.iter().enumerate() {
            for (si, stmt) in trigger.statements.iter().enumerate() {
                let slot = self.bases[ti] + si;
                let runs = self.runs[slot].load(Ordering::Relaxed);
                if runs == 0 {
                    continue;
                }
                out.push(StmtProfileEntry {
                    trigger: handler_name(&trigger.relation),
                    stage: stmt.stage,
                    target: exec.map_names[stmt.target].clone(),
                    rendered: stmt.rendered.clone(),
                    runs,
                    nanos: self.nanos[slot].load(Ordering::Relaxed),
                });
            }
        }
        out
    }

    /// Aggregate `(stage, nanos, runs)` per trigger-stage for one
    /// program — the bounded-cardinality shape the server exports as
    /// `dbt_stmt_nanos_total{view,stage}`.
    pub fn stage_totals(&self, exec: &ExecProgram) -> Vec<(dbtoaster_compiler::Stage, u64, u64)> {
        let mut out: Vec<(dbtoaster_compiler::Stage, u64, u64)> = Vec::new();
        for (ti, trigger) in exec.triggers.iter().enumerate() {
            for (si, stmt) in trigger.statements.iter().enumerate() {
                let slot = self.bases[ti] + si;
                let runs = self.runs[slot].load(Ordering::Relaxed);
                let nanos = self.nanos[slot].load(Ordering::Relaxed);
                if runs == 0 && nanos == 0 {
                    continue;
                }
                match out.iter_mut().find(|(s, _, _)| *s == stmt.stage) {
                    Some((_, n, r)) => {
                        *n += nanos;
                        *r += runs;
                    }
                    None => out.push((stmt.stage, nanos, runs)),
                }
            }
        }
        out.sort_by_key(|(s, _, _)| *s);
        out
    }
}

/// One row of a statement profile snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtProfileEntry {
    /// Trigger label, e.g. `on_BIDS`.
    pub trigger: String,
    /// Execution stage (−1 retract, 0 delta, +1 rebuild).
    pub stage: dbtoaster_compiler::Stage,
    /// Target map name.
    pub target: String,
    /// Human-readable statement rendering.
    pub rendered: String,
    /// Times the statement ran.
    pub runs: u64,
    /// Cumulative execution nanoseconds.
    pub nanos: u64,
}

/// Sampled-span context for statement execution: the recorder, the
/// event's global seq, and a view label for the span detail.
pub struct StmtSpans<'a> {
    pub recorder: &'a TraceRecorder,
    pub seq: u64,
    pub view: &'a str,
    pub tid: u64,
}

/// Optional per-statement instrumentation threaded through
/// [`apply_event_statements`]. Both hooks default to off
/// ([`StmtHooks::none`]) and are independent: `profile` is the
/// cumulative self-profiler, `spans` the sampled trace recorder.
/// Statement clocks are read only when one of them is present.
#[derive(Default)]
pub struct StmtHooks<'a> {
    /// Cumulative per-statement self-profiler.
    pub profile: Option<&'a StmtProfile>,
    /// Span sink for an event picked by the trace sampler.
    pub spans: Option<StmtSpans<'a>>,
}

impl StmtHooks<'_> {
    /// No instrumentation — the hot-path default.
    pub fn none() -> StmtHooks<'static> {
        StmtHooks::default()
    }
}

// ---------------------------------------------------------------------
// statement evaluation (generic over the map frame)
// ---------------------------------------------------------------------

/// Run one event's trigger statements against an arbitrary map frame.
///
/// This is the execution core shared by the embedded [`Engine`] (which
/// passes its own `Vec<MapStorage>`) and the view server (which passes a
/// write frame into the shared map store, a phase, and a skip list for
/// statements whose shared target another view maintains). The event's
/// tuple and then its weight (`+1` insert, `−1` delete) fill the leading
/// environment slots. Returns the index of the trigger that ran, `None`
/// when no trigger references the event's relation; counters and clocks
/// are the caller's business, except the per-statement clocks that
/// `hooks` may request.
pub fn apply_event_statements<M: MapWrite + ?Sized>(
    exec: &ExecProgram,
    maps: &mut M,
    event: &Event,
    scratch: &mut EventScratch,
    phase: StatementPhase,
    skip_targets: Option<&[bool]>,
    hooks: StmtHooks<'_>,
) -> Result<Option<usize>> {
    let Some((trigger_idx, trigger)) = exec.trigger_indexed(&event.relation) else {
        return Ok(None);
    };
    let arity = trigger.event_args;
    if event.tuple.arity() != arity {
        return Err(Error::Runtime(format!(
            "event on {} has arity {}, expected {arity}",
            event.relation,
            event.tuple.arity(),
        )));
    }
    let weight = event.kind.sign();

    let timing = hooks.profile.is_some() || hooks.spans.is_some();
    let EventScratch { env, updates } = scratch;
    // The argument slots are set once per event: statements only read
    // them (lowering binds assignments and loop keys to later slots).
    env.clear();
    env.extend_from_slice(&event.tuple);
    env.push(Value::Int(weight));
    for (stmt_idx, stmt) in trigger.statements.iter().enumerate() {
        if !phase.runs(stmt.stage) {
            continue;
        }
        if skip_targets.is_some_and(|s| s.get(stmt.target).copied().unwrap_or(false)) {
            continue;
        }
        env.truncate(arity + 1);
        env.resize(stmt.slots, Value::ZERO);
        let started = timing.then(Instant::now);
        run_statement(
            stmt,
            maps,
            env,
            updates,
            weight.wrapping_pow(stmt.weight_power),
        );
        if let Some(started) = started {
            let nanos = started.elapsed().as_nanos() as u64;
            if let Some(profile) = hooks.profile {
                profile.credit(trigger_idx, stmt_idx, nanos);
            }
            if let Some(spans) = &hooks.spans {
                spans.recorder.record(TraceSpan {
                    seq: spans.seq,
                    layer: LAYER_STATEMENT.to_string(),
                    detail: format!(
                        "view={} stage={} stmt={} target={}",
                        spans.view, stmt.stage, stmt_idx, exec.map_names[stmt.target]
                    ),
                    start_ns: spans.recorder.ns_of(started),
                    dur_ns: nanos,
                    tid: spans.tid,
                });
            }
        }
    }

    Ok(Some(trigger_idx))
}

/// Execute one lowered statement against the maps. The caller provides
/// the environment with the leading slots (trigger arguments) already
/// populated and sized to `stmt.slots`; bootstrap callers
/// ([`Engine::rebuild_derived`]) pass a zeroed environment, which is
/// valid for post-stage statements because they reference no trigger
/// arguments. Every update is multiplied by `scale`, the statement's power
/// of the event weight, unless that is 1 (always, for an insert).
fn run_statement<M: MapWrite + ?Sized>(
    stmt: &crate::lower::ExecStatement,
    maps: &mut M,
    env: &mut Vec<Value>,
    updates: &mut Vec<(Tuple, Value)>,
    scale: i64,
) {
    if env.len() < stmt.slots {
        env.resize(stmt.slots, Value::ZERO);
    }
    if stmt.clear_target {
        maps.map_mut(stmt.target).clear();
    }
    updates.clear();
    let fast = match &stmt.interval {
        Some(plan) => run_interval_statement(plan, stmt, &*maps, env, updates),
        None => false,
    };
    if !fast {
        run_block(&*maps, &stmt.block, env, 0, &mut |env, maps| {
            let key: Tuple = stmt
                .keys
                .iter()
                .map(|k| eval_scalar(k, env, maps))
                .collect();
            let value = match &stmt.block.value {
                Some(v) => eval_scalar(v, env, maps),
                None => Value::ONE,
            };
            if !value.is_zero() {
                updates.push((key, value));
            }
        });
    }
    let target = stmt.target;
    for (key, value) in updates.drain(..) {
        let value = if scale == 1 {
            value
        } else {
            value.mul(&Value::Int(scale))
        };
        maps.map_mut(target).add(key, value);
    }
}

/// Evaluate the pivot guard of an interval plan at one outer key: bind
/// the key, evaluate the probe (the inner range sum at that key), and
/// test the guard.
fn interval_guard_true<M: MapRead + ?Sized>(
    key: &Value,
    plan: &crate::lower::IntervalPlan,
    block: &Block,
    env: &mut [Value],
    maps: &M,
) -> bool {
    env[plan.key_slot] = key.clone();
    let probe = eval_scalar(&plan.probe, env, maps);
    env[plan.probe_slot] = probe;
    eval_scalar(&block.guards[plan.pivot_guard], env, maps).as_bool()
}

/// Process-wide counters for ordered-index fast-path fallbacks, one per
/// reason. The interval plan and `RangeSum` probes carry runtime
/// preconditions (indexes present, non-negative inner values, comparable
/// keys); when one fails the engine silently falls back to the
/// always-correct O(P) loop/scan. These counters make fallback storms
/// visible: servers drain them into the `dbt_ordered_fallback_total`
/// telemetry counter at scrape time. Lock-free relaxed atomics — the
/// fallback paths are already slow, one `fetch_add` is noise.
pub mod ordered_fallback {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Reason labels, index-aligned with [`counts`].
    pub const REASONS: [&str; 6] = [
        "missing_outer_index",
        "missing_inner_index",
        "probe_shape",
        "negative_inner",
        "incomparable_keys",
        "range_probe_scan",
    ];
    pub const MISSING_OUTER_INDEX: usize = 0;
    pub const MISSING_INNER_INDEX: usize = 1;
    pub const PROBE_SHAPE: usize = 2;
    pub const NEGATIVE_INNER: usize = 3;
    pub const INCOMPARABLE_KEYS: usize = 4;
    pub const RANGE_PROBE_SCAN: usize = 5;

    static COUNTS: [AtomicU64; 6] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    static PROBES: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(crate) fn bump(reason: usize) {
        COUNTS[reason].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_probe() {
        PROBES.fetch_add(1, Ordering::Relaxed);
    }

    /// Current totals since process start, index-aligned with [`REASONS`].
    pub fn counts() -> [u64; 6] {
        std::array::from_fn(|i| COUNTS[i].load(Ordering::Relaxed))
    }

    /// Successful ordered-index range probes since process start — the
    /// denominator side of the probe-vs-fallback ratio (the probe either
    /// answers from the index, counted here, or falls back to the scan,
    /// counted under `range_probe_scan`).
    pub fn probes() -> u64 {
        PROBES.load(Ordering::Relaxed)
    }
}

/// The monotone-guard interval fast path: execute a statement carrying
/// an [`crate::lower::IntervalPlan`] in O(log² P) instead of looping the
/// outer map — binary-search the guard's flip point over the outer
/// ordered index (each probe an O(log P) inner range sum), then fold the
/// surviving key interval with one O(log P) interval sum.
///
/// Returns `true` when the statement was fully handled (its updates
/// staged in `updates`); `false` when a runtime precondition fails —
/// missing indexes, mixed-class keys, or negative inner values breaking
/// the probe's monotonicity — in which case the caller falls back to the
/// loop, which is always correct.
fn run_interval_statement<M: MapRead + ?Sized>(
    plan: &crate::lower::IntervalPlan,
    stmt: &crate::lower::ExecStatement,
    maps: &M,
    env: &mut [Value],
    updates: &mut Vec<(Tuple, Value)>,
) -> bool {
    let block = &stmt.block;
    let outer = maps.map(plan.outer_map);
    if !outer.has_ordered(0) {
        ordered_fallback::bump(ordered_fallback::MISSING_OUTER_INDEX);
        return false;
    }
    let inner = maps.map(plan.inner_map);
    if !inner.has_ordered(plan.inner_ordered_pos) {
        ordered_fallback::bump(ordered_fallback::MISSING_INNER_INDEX);
        return false;
    }

    // Loop-invariant assignments (everything but the probe), in the same
    // order the loop would run them: hoisted (level 0) first, innermost
    // after. Each is evaluated exactly once — they read no loop slots.
    for a in &block.assigns {
        if a.slot != plan.probe_slot && a.level.unwrap_or(block.loops.len()) == 0 {
            env[a.slot] = eval_scalar(&a.value, env, maps);
        }
    }
    for a in &block.assigns {
        if a.slot != plan.probe_slot && a.level.unwrap_or(block.loops.len()) != 0 {
            env[a.slot] = eval_scalar(&a.value, env, maps);
        }
    }

    // The probe is monotone in the outer key only while the inner map's
    // summed values are all non-negative (a shrinking range can otherwise
    // grow in value); the ordered group tracks that cheaply.
    let Scalar::RangeSum { eq_values, .. } = &plan.probe else {
        ordered_fallback::bump(ordered_fallback::PROBE_SHAPE);
        return false;
    };
    let inner_eq: Tuple = eq_values
        .iter()
        .map(|s| eval_scalar(s, env, maps))
        .collect();
    if let Some(view) = inner.ordered_view(plan.inner_ordered_pos, &inner_eq) {
        if !view.nonnegative() {
            ordered_fallback::bump(ordered_fallback::NEGATIVE_INNER);
            return false;
        }
    }

    // Loop-invariant guards: evaluated once; any failure zeroes the
    // whole statement (exactly as it would kill every loop iteration).
    for (gi, g) in block.guards.iter().enumerate() {
        if gi != plan.pivot_guard && !eval_scalar(g, env, maps).as_bool() {
            return true;
        }
    }

    let Some(view) = outer.ordered_view(0, &Tuple::empty()) else {
        return true; // empty outer map: the loop would emit nothing
    };
    if !view.comparable() {
        // Mixed-class keys: the index's sort order can disagree with SQL
        // comparison, so the flip point is not well-defined.
        ordered_fallback::bump(ordered_fallback::INCOMPARABLE_KEYS);
        return false;
    }

    // Binary-search the guard's flip point along the sorted outer keys.
    let keys = view.keys();
    let n = keys.len();
    let flip = if plan.rising {
        keys.partition_point(|k| !interval_guard_true(k, plan, block, env, maps))
    } else {
        keys.partition_point(|k| interval_guard_true(k, plan, block, env, maps))
    };
    let (lo, hi) = if plan.rising { (flip, n) } else { (0, flip) };
    if lo >= hi {
        return true;
    }

    // One interval sum replaces the whole surviving sub-loop; the
    // emitted value distributes over it (integer-exactly) because every
    // non-value factor is loop-invariant.
    env[plan.value_slot] = view.interval_sum(lo, hi);
    let key: Tuple = stmt
        .keys
        .iter()
        .map(|k| eval_scalar(k, env, maps))
        .collect();
    let value = match &block.value {
        Some(v) => eval_scalar(v, env, maps),
        None => Value::ONE,
    };
    if !value.is_zero() {
        updates.push((key, value));
    }
    true
}

/// Output column names of a lowered program, in `SELECT` order.
pub fn result_column_names(exec: &ExecProgram) -> Vec<String> {
    exec.result
        .columns
        .iter()
        .map(|c| match c {
            ResultColumnSpec::Group { name, .. }
            | ResultColumnSpec::Sum { name, .. }
            | ResultColumnSpec::Avg { name, .. }
            | ResultColumnSpec::Extremum { name, .. } => name.clone(),
        })
        .collect()
}

/// Assemble the standing-query result rows from an arbitrary map frame,
/// sorted by group key for deterministic output.
pub fn assemble_result<M: MapRead + ?Sized>(exec: &ExecProgram, maps: &M) -> Vec<ResultRow> {
    let spec = &exec.result;
    // Collect the set of group keys from the driver maps (or the
    // single empty key for scalar queries).
    let mut keys: Vec<Tuple> = Vec::new();
    if spec.group_arity == 0 {
        keys.push(Tuple::empty());
    } else {
        for &m in &spec.driver_maps {
            for (k, _) in maps.map(m).iter() {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
        // Extremum-only queries: derive groups from support maps.
        if spec.driver_maps.is_empty() {
            for col in &spec.columns {
                if let ResultColumnSpec::Extremum { map, .. } = col {
                    for (k, _) in maps.map(*map).iter() {
                        let prefix = Tuple::new(k.0[..spec.group_arity].to_vec());
                        if !keys.contains(&prefix) {
                            keys.push(prefix);
                        }
                    }
                }
            }
        }
        keys.sort();
    }

    let mut rows = Vec::with_capacity(keys.len());
    for key in keys {
        let mut values = Vec::with_capacity(spec.columns.len());
        let mut all_zero = true;
        for col in &spec.columns {
            let v = match col {
                ResultColumnSpec::Group { index, .. } => {
                    all_zero = false;
                    key[*index].clone()
                }
                ResultColumnSpec::Sum { map, .. } => {
                    let v = maps.map(*map).get(&key);
                    if !v.is_zero() {
                        all_zero = false;
                    }
                    v
                }
                ResultColumnSpec::Avg { sum, count, .. } => {
                    let s = maps.map(*sum).get(&key);
                    let c = maps.map(*count).get(&key);
                    if !c.is_zero() {
                        all_zero = false;
                    }
                    s.div(&c)
                }
                ResultColumnSpec::Extremum { map, is_min, .. } => {
                    let mut best: Option<Value> = None;
                    for (k, v) in maps.map(*map).iter() {
                        if k.0[..key.arity()] == key.0[..] && v.as_f64() > 0.0 {
                            let candidate = k.0[key.arity()].clone();
                            best = Some(match best {
                                None => candidate,
                                Some(b) => {
                                    if *is_min {
                                        b.min_of(&candidate)
                                    } else {
                                        b.max_of(&candidate)
                                    }
                                }
                            });
                            all_zero = false;
                        }
                    }
                    best.unwrap_or(Value::Null)
                }
            };
            values.push(v);
        }
        // For scalar queries we always report the single row; grouped
        // queries drop groups whose aggregates have all vanished.
        if spec.group_arity == 0 || !all_zero {
            rows.push(ResultRow { key, values });
        }
    }
    rows
}

/// Drive the nested loops of a block, invoking `emit` for every binding.
/// Guards and assignments are evaluated innermost (per complete binding).
fn run_block<M: MapRead + ?Sized>(
    maps: &M,
    block: &Block,
    env: &mut Vec<Value>,
    level: usize,
    emit: &mut dyn FnMut(&mut Vec<Value>, &M),
) {
    // Assignments run at the level where their inputs are bound —
    // *before* this level's loop evaluates bound keys that may read the
    // assigned slots (`None` = innermost, for untracked Lift bodies).
    for a in &block.assigns {
        if a.level.unwrap_or(block.loops.len()) == level {
            env[a.slot] = eval_scalar(&a.value, env, maps);
        }
    }
    if level == block.loops.len() {
        for g in &block.guards {
            if !eval_scalar(g, env, maps).as_bool() {
                return;
            }
        }
        emit(env, maps);
        return;
    }
    let step = &block.loops[level];
    let bound: Tuple = step
        .bound_values
        .iter()
        .map(|s| eval_scalar(s, env, maps))
        .collect();
    // The slice holds shared borrows of the map; recursive evaluation
    // only reads maps (updates are staged outside `run_block`), so the
    // entries need no deep copy — only the bound key components are
    // cloned into the environment.
    for (key, value) in maps.map(step.map).slice(&step.bound_positions, &bound) {
        for (pos, slot) in &step.bind {
            env[*slot] = key[*pos].clone();
        }
        env[step.value_slot] = value.clone();
        run_block(maps, block, env, level + 1, emit);
    }
}

/// Evaluate a scalar expression.
fn eval_scalar<M: MapRead + ?Sized>(scalar: &Scalar, env: &[Value], maps: &M) -> Value {
    match scalar {
        Scalar::Const(c) => c.clone(),
        Scalar::Slot(i) => env[*i].clone(),
        Scalar::Add(es) => es
            .iter()
            .fold(Value::ZERO, |acc, e| acc.add(&eval_scalar(e, env, maps))),
        Scalar::Mul(es) => {
            let mut acc = Value::ONE;
            for e in es {
                acc = acc.mul(&eval_scalar(e, env, maps));
                if acc.is_zero() {
                    return acc;
                }
            }
            acc
        }
        Scalar::Neg(e) => eval_scalar(e, env, maps).neg(),
        Scalar::Div(a, b) => eval_scalar(a, env, maps).div(&eval_scalar(b, env, maps)),
        Scalar::Cmp { op, left, right } => {
            let l = eval_scalar(left, env, maps);
            let r = eval_scalar(right, env, maps);
            Value::Int(op.eval(&l, &r) as i64)
        }
        Scalar::Lookup { map, keys } => {
            let key: Tuple = keys.iter().map(|k| eval_scalar(k, env, maps)).collect();
            maps.map(*map).get(&key)
        }
        Scalar::RangeSum {
            map,
            eq_positions,
            eq_values,
            ordered_pos,
            op,
            bound,
        } => {
            let eq_bound: Tuple = eq_values
                .iter()
                .map(|k| eval_scalar(k, env, maps))
                .collect();
            let b = eval_scalar(bound, env, maps);
            let storage = maps.map(*map);
            // O(log P) from the ordered index when it can answer exactly
            // under SQL comparison semantics; O(P) scan otherwise.
            match storage.range_sum(*ordered_pos, &eq_bound, *op, &b) {
                Some(v) => {
                    ordered_fallback::bump_probe();
                    v
                }
                None => {
                    ordered_fallback::bump(ordered_fallback::RANGE_PROBE_SCAN);
                    storage.range_sum_scan(*ordered_pos, eq_positions, &eq_bound, *op, &b)
                }
            }
        }
        Scalar::Aggregate(block) => eval_block_sum(block, env, maps),
        Scalar::Exists(block) => {
            let v = eval_block_sum(block, env, maps);
            Value::Int((!v.is_zero()) as i64)
        }
    }
}

/// Sum a nested block (Lift / EXISTS bodies).
fn eval_block_sum<M: MapRead + ?Sized>(block: &Block, env: &[Value], maps: &M) -> Value {
    let mut scratch = env.to_vec();
    let mut total = Value::ZERO;
    run_block(maps, block, &mut scratch, 0, &mut |env, maps| {
        if let Some(v) = &block.value {
            total = total.add(&eval_scalar(v, env, maps));
        } else {
            total = total.add(&Value::ONE);
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{tuple, Catalog, ColumnType, Schema, UpdateStream};
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

    fn engine_for(sql: &str, options: &CompileOptions) -> Engine {
        let p = compile_sql(sql, &rst_catalog(), options).unwrap();
        Engine::new(&p).unwrap()
    }

    /// Reference computation of sum(A*D) over explicit relation contents.
    fn reference_sum_ad(r: &[(i64, i64)], s: &[(i64, i64)], t: &[(i64, i64)]) -> i64 {
        let mut total = 0;
        for (a, b) in r {
            for (b2, c) in s {
                if b == b2 {
                    for (c2, d) in t {
                        if c == c2 {
                            total += a * d;
                        }
                    }
                }
            }
        }
        total
    }

    const RST: &str = "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C";

    #[test]
    fn figure2_example_matches_hand_computation() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        // Events in an order that exercises all handlers.
        let events = vec![
            Event::insert("S", tuple![1i64, 10i64]),
            Event::insert("R", tuple![5i64, 1i64]),
            Event::insert("T", tuple![10i64, 7i64]),
            Event::insert("R", tuple![2i64, 1i64]),
            Event::insert("T", tuple![10i64, 3i64]),
            Event::insert("S", tuple![1i64, 20i64]),
            Event::insert("T", tuple![20i64, 100i64]),
        ];
        engine.process(&events).unwrap();
        let r = [(5, 1), (2, 1)];
        let s = [(1, 10), (1, 20)];
        let t = [(10, 7), (10, 3), (20, 100)];
        assert_eq!(
            engine.scalar_result(),
            Value::Int(reference_sum_ad(&r, &s, &t))
        );
    }

    #[test]
    fn deletions_and_reinsertions_cancel_exactly() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        let mut stream = UpdateStream::new();
        stream.push(Event::insert("R", tuple![4i64, 2i64]));
        stream.push(Event::insert("S", tuple![2i64, 9i64]));
        stream.push(Event::insert("T", tuple![9i64, 11i64]));
        stream.push(Event::delete("S", tuple![2i64, 9i64]));
        engine.process(&stream).unwrap();
        assert_eq!(engine.scalar_result(), Value::Int(0));
        engine
            .on_event(&Event::insert("S", tuple![2i64, 9i64]))
            .unwrap();
        assert_eq!(engine.scalar_result(), Value::Int(44));
    }

    #[test]
    fn full_and_first_order_compilation_agree() {
        let mut full = engine_for(RST, &CompileOptions::full());
        let mut first = engine_for(RST, &CompileOptions::first_order());
        let events = [
            Event::insert("R", tuple![1i64, 1i64]),
            Event::insert("S", tuple![1i64, 2i64]),
            Event::insert("T", tuple![2i64, 5i64]),
            Event::insert("R", tuple![3i64, 1i64]),
            Event::delete("R", tuple![1i64, 1i64]),
            Event::insert("T", tuple![2i64, 7i64]),
        ];
        for e in &events {
            full.on_event(e).unwrap();
            first.on_event(e).unwrap();
            assert_eq!(
                full.scalar_result(),
                first.scalar_result(),
                "diverged at {e:?}"
            );
        }
    }

    #[test]
    fn grouped_first_order_compilation_matches_full() {
        // Regression: a grouped first-order statement loops over a BASE
        // map whose bound key comes from an equality *assignment*
        // (group var := trigger arg), not from a trigger-arg slot. The
        // assignment must run before the loop evaluates its bound keys,
        // or the slice probes a zeroed slot and matches nothing.
        let sql = "select R.B, sum(A*D) from R, S, T where R.B=S.B and S.C=T.C group by R.B";
        let mut full = engine_for(sql, &CompileOptions::full());
        let mut first = engine_for(sql, &CompileOptions::first_order());
        let events = [
            Event::insert("S", tuple![1i64, 10i64]),
            Event::insert("R", tuple![5i64, 1i64]),
            Event::insert("T", tuple![10i64, 7i64]),
            Event::insert("R", tuple![2i64, 2i64]),
            Event::insert("S", tuple![2i64, 10i64]),
            Event::delete("R", tuple![5i64, 1i64]),
            Event::insert("T", tuple![10i64, 3i64]),
        ];
        for e in &events {
            full.on_event(e).unwrap();
            first.on_event(e).unwrap();
            assert_eq!(full.result(), first.result(), "diverged at {e:?}");
        }
        // And both agree with the hand computation: after the deletion
        // only R(2,2) remains, joining S(2,10) and T(10,{7,3}).
        assert_eq!(full.result().len(), 1);
        assert_eq!(
            full.result()[0].values,
            vec![Value::Int(2), Value::Int(2 * 7 + 2 * 3)]
        );
    }

    #[test]
    fn grouped_query_returns_rows_per_group() {
        let cat = rst_catalog();
        let p = compile_sql(
            "select B, sum(A), count(*) from R group by B",
            &cat,
            &CompileOptions::full(),
        )
        .unwrap();
        let mut engine = Engine::new(&p).unwrap();
        for (a, b) in [(10i64, 1i64), (20, 1), (5, 2)] {
            engine.on_event(&Event::insert("R", tuple![a, b])).unwrap();
        }
        let rows = engine.result();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].values,
            vec![Value::Int(1), Value::Int(30), Value::Int(2)]
        );
        assert_eq!(
            rows[1].values,
            vec![Value::Int(2), Value::Int(5), Value::Int(1)]
        );
        // Deleting the only group-2 row removes that group from the output.
        engine
            .on_event(&Event::delete("R", tuple![5i64, 2i64]))
            .unwrap();
        assert_eq!(engine.result().len(), 1);
    }

    #[test]
    fn avg_and_minmax_columns_are_assembled_from_their_maps() {
        let cat = rst_catalog();
        let p = compile_sql(
            "select B, avg(A), min(A), max(A) from R group by B",
            &cat,
            &CompileOptions::full(),
        )
        .unwrap();
        let mut engine = Engine::new(&p).unwrap();
        for a in [10i64, 20, 60] {
            engine
                .on_event(&Event::insert("R", tuple![a, 1i64]))
                .unwrap();
        }
        let rows = engine.result();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[1], Value::Int(30));
        assert_eq!(rows[0].values[2], Value::Int(10));
        assert_eq!(rows[0].values[3], Value::Int(60));
        // Deleting the current maximum exposes the next one.
        engine
            .on_event(&Event::delete("R", tuple![60i64, 1i64]))
            .unwrap();
        assert_eq!(engine.result()[0].values[3], Value::Int(20));
    }

    #[test]
    fn snapshots_and_lookups_expose_internal_maps() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        engine
            .on_event(&Event::insert("S", tuple![1i64, 10i64]))
            .unwrap();
        let q1_name = engine
            .exec_program()
            .map_names
            .iter()
            .find(|n| n.starts_with("M5"))
            .unwrap()
            .clone();
        let snapshot = engine.map_snapshot(&q1_name).unwrap();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].1, Value::Int(1));
        assert_eq!(
            engine.lookup(&q1_name, &tuple![1i64, 10i64]),
            Some(Value::Int(1))
        );
        assert!(engine.map_snapshot("NOPE").is_none());
    }

    #[test]
    fn profiler_reports_triggers_maps_and_code_size() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        engine
            .on_event(&Event::insert("R", tuple![1i64, 1i64]))
            .unwrap();
        engine
            .on_event(&Event::insert("S", tuple![1i64, 2i64]))
            .unwrap();
        let report = engine.profile();
        assert_eq!(report.events_processed, 2);
        assert_eq!(report.per_map.len(), 6);
        assert!(report.statement_count >= 8);
        assert!(report.total_bytes > 0);
        assert!(report
            .per_trigger
            .iter()
            .any(|(n, c, _)| n == "on_R" && *c == 1));
    }

    #[test]
    fn events_on_unknown_relations_are_ignored() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        engine
            .on_event(&Event::insert("UNRELATED", tuple![1i64]))
            .unwrap();
        assert_eq!(engine.scalar_result(), Value::Int(0));
    }

    #[test]
    fn arity_mismatches_are_runtime_errors() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        assert!(engine.on_event(&Event::insert("R", tuple![1i64])).is_err());
    }

    #[test]
    fn process_batch_matches_per_event_processing() {
        let mut per_event = engine_for(RST, &CompileOptions::full());
        let mut batched = engine_for(RST, &CompileOptions::full());
        let events = vec![
            Event::insert("S", tuple![1i64, 10i64]),
            Event::insert("R", tuple![5i64, 1i64]),
            Event::insert("T", tuple![10i64, 7i64]),
            Event::insert("UNRELATED", tuple![1i64]),
            Event::delete("R", tuple![5i64, 1i64]),
            Event::insert("R", tuple![2i64, 1i64]),
        ];
        per_event.process(&events).unwrap();
        let absorbed = batched.process_batch(&events).unwrap();
        assert_eq!(absorbed, events.len());
        assert_eq!(batched.scalar_result(), per_event.scalar_result());
        assert_eq!(batched.events_processed(), per_event.events_processed());
        // Per-trigger counts are exact in batch mode too.
        let count_of = |p: &ProfileReport, name: &str| {
            p.per_trigger
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, c, _)| *c)
        };
        let bp = batched.profile();
        assert_eq!(count_of(&bp, "on_R"), Some(3));
        assert_eq!(count_of(&bp, "on_S"), Some(1));
        assert_eq!(count_of(&bp, "on_T"), Some(1));
    }

    #[test]
    fn process_batch_reports_arity_errors_and_flushes_stats() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        let events = vec![
            Event::insert("R", tuple![1i64, 2i64]),
            Event::insert("R", tuple![1i64]),
        ];
        assert!(engine.process_batch(&events).is_err());
        // The valid prefix is absorbed and its per-trigger count flushed,
        // matching what the per-event path would report after the error.
        assert_eq!(engine.events_processed(), 1);
        let report = engine.profile();
        assert!(report
            .per_trigger
            .iter()
            .any(|(n, c, _)| n == "on_R" && *c == 1));
    }

    #[test]
    fn warm_start_via_load_map_and_rebuild_derived_matches_replay() {
        // A nested view (hierarchy-maintained result map over child
        // maps): engine A replays an archive; engine B warm-starts by
        // bulk-loading A's flat maps and rebuilding the derived map.
        // Both must answer identically, now and after further events.
        let cat = Catalog::new().with(Schema::new(
            "BOOK",
            vec![("PRICE", ColumnType::Int), ("VOLUME", ColumnType::Int)],
        ));
        let sql = "select sum(b1.PRICE * b1.VOLUME) from BOOK b1 \
                   where b1.PRICE * 4 > (select sum(b2.VOLUME) from BOOK b2)";
        let p = compile_sql(sql, &cat, &CompileOptions::full()).unwrap();
        let mut replayed = Engine::new(&p).unwrap();
        for i in 0..40i64 {
            replayed
                .on_event(&Event::insert("BOOK", tuple![i % 9 + 1, i % 5 + 1]))
                .unwrap();
        }

        let mut warm = Engine::new(&p).unwrap();
        let derived_targets: Vec<String> = replayed
            .exec_program()
            .triggers
            .iter()
            .flat_map(|t| &t.statements)
            .filter(|s| s.stage > 0)
            .map(|s| replayed.exec_program().map_names[s.target].clone())
            .collect();
        for name in replayed.exec_program().map_names.clone() {
            if derived_targets.contains(&name) {
                continue;
            }
            warm.load_map(&name, replayed.map_snapshot(&name).unwrap())
                .unwrap();
        }
        warm.rebuild_derived().unwrap();
        assert_eq!(warm.result(), replayed.result());

        // The warm-started engine keeps maintaining correctly.
        for e in [
            Event::insert("BOOK", tuple![2i64, 50i64]),
            Event::delete("BOOK", tuple![3i64, 4i64]),
        ] {
            warm.on_event(&e).unwrap();
            replayed.on_event(&e).unwrap();
            assert_eq!(warm.result(), replayed.result(), "diverged at {e:?}");
        }
        assert!(warm.load_map("NOPE", vec![]).is_err());
    }

    #[test]
    fn memory_grows_with_state_and_shrinks_on_deletes() {
        let mut engine = engine_for(RST, &CompileOptions::full());
        let empty = engine.memory_bytes();
        for i in 0..50i64 {
            engine.on_event(&Event::insert("S", tuple![i, i])).unwrap();
        }
        let loaded = engine.memory_bytes();
        assert!(loaded > empty);
        for i in 0..50i64 {
            engine.on_event(&Event::delete("S", tuple![i, i])).unwrap();
        }
        assert!(engine.memory_bytes() < loaded);
    }
}
