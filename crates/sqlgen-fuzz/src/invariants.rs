//! The thirteen invariant families the harness checks.
//!
//! Each check consumes one case RNG, generates its own inputs, and returns
//! the number of individual assertions that passed, or a [`CheckFail`]
//! describing the first violation (with a shrunk reproduction where the
//! failing object is a statement).

use crate::astgen::{self, GenOptions};
use crate::dbgen::{self, DbProfile};
use crate::oracle;
use crate::shrink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_engine::{
    card::MAX_CARD, parse, render, validate, CostModel, CostParams, Estimator, Executor,
    InsertSource, Predicate, Rhs, SelectQuery, Statement,
};
use sqlgen_fsm::{random_statement as fsm_rollout, FsmConfig, Vocabulary};
use sqlgen_nn::{argmax, masked_softmax, sample_categorical};
use sqlgen_storage::sample::SampleConfig;
use sqlgen_storage::{save_database, ColCursor, Database, DbRead, PagedDb, TableRead, PAGE_SIZE};

/// A single invariant violation.
#[derive(Debug, Clone)]
pub struct CheckFail {
    pub detail: String,
    pub sql: Option<String>,
    pub shrunk_sql: Option<String>,
}

impl CheckFail {
    fn new(detail: impl Into<String>) -> Self {
        CheckFail {
            detail: detail.into(),
            sql: None,
            shrunk_sql: None,
        }
    }

    fn with_stmt(
        detail: impl Into<String>,
        db: &Database,
        stmt: &Statement,
        still_fails: &mut dyn FnMut(&Statement) -> bool,
    ) -> Self {
        let shrunk = shrink::shrink_statement(db, stmt, shrink::DEFAULT_BUDGET, still_fails);
        CheckFail {
            detail: detail.into(),
            sql: Some(render(stmt)),
            shrunk_sql: Some(render(&shrunk)),
        }
    }
}

type CheckResult = Result<u64, CheckFail>;

/// Structural AST equality, modulo two representation details:
///
/// * `Value`'s `PartialEq` is SQL-semantic (`Null != Null`, `NaN != NaN`),
///   so `==` on statements containing a NULL literal is always false —
///   Debug formatting compares the trees literally instead;
/// * the renderer drops redundant parentheses around associative operators,
///   so `a OR (b OR c)` and `(a OR b) OR c` produce identical SQL and the
///   parser can only ever reconstruct its own (left-associative) shape —
///   both trees are canonicalized to that shape before comparing.
fn ast_eq(a: &Statement, b: &Statement) -> bool {
    format!("{:?}", normalize_stmt(a)) == format!("{:?}", normalize_stmt(b))
}

fn normalize_stmt(stmt: &Statement) -> Statement {
    let mut s = stmt.clone();
    match &mut s {
        Statement::Select(q) => normalize_select(q),
        Statement::Insert(i) => {
            if let InsertSource::Query(q) = &mut i.source {
                normalize_select(q);
            }
        }
        Statement::Update(u) => normalize_opt_pred(&mut u.predicate),
        Statement::Delete(d) => normalize_opt_pred(&mut d.predicate),
    }
    s
}

fn normalize_select(q: &mut SelectQuery) {
    normalize_opt_pred(&mut q.predicate);
    if let Some(h) = &mut q.having {
        if let Rhs::Subquery(sub) = &mut h.rhs {
            normalize_select(sub);
        }
    }
}

fn normalize_opt_pred(p: &mut Option<Predicate>) {
    if let Some(inner) = p.take() {
        *p = Some(normalize_pred(inner));
    }
}

/// Rebuilds same-operator `And`/`Or` chains left-associatively and recurses
/// into subqueries. Mixed-operator subtrees keep their shape (the renderer
/// parenthesizes those, so they round-trip exactly).
fn normalize_pred(p: Predicate) -> Predicate {
    match p {
        Predicate::And(..) | Predicate::Or(..) => {
            let is_and = matches!(p, Predicate::And(..));
            let mut leaves = Vec::new();
            flatten_chain(p, is_and, &mut leaves);
            let mut it = leaves.into_iter();
            let first = it.next().expect("chain has at least two leaves");
            it.fold(first, |acc, x| {
                if is_and {
                    Predicate::And(Box::new(acc), Box::new(x))
                } else {
                    Predicate::Or(Box::new(acc), Box::new(x))
                }
            })
        }
        Predicate::Not(inner) => Predicate::Not(Box::new(normalize_pred(*inner))),
        Predicate::Cmp { col, op, rhs } => Predicate::Cmp {
            col,
            op,
            rhs: match rhs {
                Rhs::Subquery(mut sub) => {
                    normalize_select(&mut sub);
                    Rhs::Subquery(sub)
                }
                v => v,
            },
        },
        Predicate::In { col, mut sub } => {
            normalize_select(&mut sub);
            Predicate::In { col, sub }
        }
        Predicate::Exists { mut sub } => {
            normalize_select(&mut sub);
            Predicate::Exists { sub }
        }
        like @ Predicate::Like { .. } => like,
    }
}

fn flatten_chain(p: Predicate, is_and: bool, out: &mut Vec<Predicate>) {
    match p {
        Predicate::And(a, b) if is_and => {
            flatten_chain(*a, true, out);
            flatten_chain(*b, true, out);
        }
        Predicate::Or(a, b) if !is_and => {
            flatten_chain(*a, false, out);
            flatten_chain(*b, false, out);
        }
        other => out.push(normalize_pred(other)),
    }
}

const STATEMENTS_PER_CASE: usize = 4;

/// (a) Round-trip: `parse(render(ast)) == ast` and rendering is a fixpoint.
pub fn check_roundtrip(rng: &mut StdRng) -> CheckResult {
    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let opts = GenOptions {
        parseable_literals: true,
        ..GenOptions::default()
    };
    let mut checks = 0;
    for _ in 0..STATEMENTS_PER_CASE {
        let stmt = astgen::random_statement(&db, rng, &opts);
        if let Err(e) = validate(&db, &stmt) {
            return Err(CheckFail {
                detail: format!("generator produced invalid statement: {e}"),
                sql: Some(render(&stmt)),
                shrunk_sql: None,
            });
        }
        let sql = render(&stmt);
        let reparsed = match parse(&sql) {
            Ok(s) => s,
            Err(e) => {
                return Err(CheckFail::with_stmt(
                    format!("rendered SQL does not parse: {e}"),
                    &db,
                    &stmt,
                    &mut |s| parse(&render(s)).is_err(),
                ))
            }
        };
        if !ast_eq(&reparsed, &stmt) {
            return Err(CheckFail::with_stmt(
                "parse(render(ast)) differs from ast",
                &db,
                &stmt,
                &mut |s| parse(&render(s)).map_or(true, |r| !ast_eq(&r, s)),
            ));
        }
        if render(&reparsed) != sql {
            return Err(CheckFail::with_stmt(
                "re-render is not a fixpoint",
                &db,
                &stmt,
                &mut |s| {
                    let sql = render(s);
                    parse(&sql).map_or(true, |r| render(&r) != sql)
                },
            ));
        }
        checks += 3;
    }
    Ok(checks)
}

/// (b) Estimator sanity: estimates finite, non-negative and saturated;
/// selectivities in `[0, 1]`; costs finite; adding a conjunct never raises
/// the estimate.
pub fn check_estimator(rng: &mut StdRng) -> CheckResult {
    let db = dbgen::random_database(rng, &DbProfile::default());
    let est = Estimator::build(&db);
    let cost = CostModel::new(CostParams::default());
    let opts = GenOptions::default();
    let mut checks = 0;
    for _ in 0..STATEMENTS_PER_CASE {
        let stmt = astgen::random_statement(&db, rng, &opts);
        validate(&db, &stmt)
            .map_err(|e| CheckFail::new(format!("generator produced invalid statement: {e}")))?;

        let c = est.cardinality(&stmt);
        let sane = |x: f64| x.is_finite() && (0.0..=MAX_CARD).contains(&x);
        if !sane(c) {
            return Err(CheckFail::with_stmt(
                format!("cardinality estimate {c} outside [0, {MAX_CARD:e}]"),
                &db,
                &stmt,
                &mut |s| !sane(est.cardinality(s)),
            ));
        }
        let k = cost.cost(&est, &stmt);
        if !(k.is_finite() && k >= 0.0) {
            return Err(CheckFail::with_stmt(
                format!("cost estimate {k} not finite/non-negative"),
                &db,
                &stmt,
                &mut |s| {
                    let k = cost.cost(&est, s);
                    !(k.is_finite() && k >= 0.0)
                },
            ));
        }
        checks += 2;

        if let Some(q) = stmt.as_select() {
            if let Some(p) = &q.predicate {
                let s = est.selectivity(p);
                if !(0.0..=1.0).contains(&s) {
                    return Err(CheckFail::with_stmt(
                        format!("selectivity {s} outside [0, 1]"),
                        &db,
                        &stmt,
                        &mut |c| {
                            c.as_select()
                                .and_then(|q| q.predicate.as_ref())
                                .is_some_and(|p| !(0.0..=1.0).contains(&est.selectivity(p)))
                        },
                    ));
                }
                checks += 1;
            }

            // Monotonicity: strengthening the WHERE clause cannot raise the
            // estimate (selectivities multiply and are clamped to <= 1).
            let scope: Vec<String> = q.from.tables().iter().map(|t| t.to_string()).collect();
            let atom = astgen::random_atom(&db, &scope, rng, &opts, 1);
            let base = est.select_cardinality(q);
            let narrowed = with_conjunct(q, &atom);
            let tightened = est.select_cardinality(&narrowed);
            if tightened > base * (1.0 + 1e-9) + 1e-9 {
                return Err(CheckFail {
                    detail: format!(
                        "adding conjunct raised estimate: {base} -> {tightened} (conjunct on {})",
                        render(&Statement::Select(narrowed.clone()))
                    ),
                    sql: Some(render(&stmt)),
                    shrunk_sql: None,
                });
            }
            checks += 1;
        }
    }
    Ok(checks)
}

fn with_conjunct(q: &sqlgen_engine::SelectQuery, atom: &Predicate) -> sqlgen_engine::SelectQuery {
    let mut out = q.clone();
    out.predicate = Some(match out.predicate.take() {
        Some(p) => Predicate::And(Box::new(p), Box::new(atom.clone())),
        None => atom.clone(),
    });
    out
}

/// (c) Differential execution: `Executor::cardinality` agrees with the
/// naive oracle; filtering never increases cardinality (absent `HAVING`);
/// the production `like_match` agrees with a naive recursive matcher.
pub fn check_differential(rng: &mut StdRng) -> CheckResult {
    let db = dbgen::random_database(rng, &DbProfile::default());
    let ex = Executor::new(&db);
    let opts = GenOptions::default();
    let mut checks = 0;

    for _ in 0..STATEMENTS_PER_CASE {
        let stmt = astgen::random_statement(&db, rng, &opts);
        validate(&db, &stmt)
            .map_err(|e| CheckFail::new(format!("generator produced invalid statement: {e}")))?;

        let got = ex.cardinality(&stmt);
        let want = oracle::cardinality(&db, &stmt);
        let agree = |s: &Statement| match (ex.cardinality(s), oracle::cardinality(&db, s)) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !agree(&stmt) {
            return Err(CheckFail::with_stmt(
                format!("executor {got:?} != oracle {want:?}"),
                &db,
                &stmt,
                &mut |s| !agree(s),
            ));
        }
        checks += 1;

        // A WHERE clause can only discard tuples. (HAVING breaks the
        // subset argument: a group failing HAVING unfiltered may pass it
        // filtered, so the bound only holds without one.)
        if let Some(q) = stmt.as_select() {
            if q.predicate.is_some() && q.having.is_none() {
                let mut unfiltered = q.clone();
                unfiltered.predicate = None;
                if let (Ok(a), Ok(b)) = (
                    ex.cardinality(&stmt),
                    ex.cardinality(&Statement::Select(unfiltered)),
                ) {
                    if a > b {
                        return Err(CheckFail {
                            detail: format!("filtered cardinality {a} > unfiltered {b}"),
                            sql: Some(render(&stmt)),
                            shrunk_sql: None,
                        });
                    }
                    checks += 1;
                }
            }
        }
    }

    // LIKE differential on raw pattern/text pairs.
    const ALPHABET: &[char] = &['a', 'b', '%', '_', '\\', '\'', '\u{e9}'];
    for _ in 0..8 {
        let pattern: String = (0..rng.random_range(0..8))
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
            .collect();
        let text: String = (0..rng.random_range(0..10))
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
            .collect();
        let got = sqlgen_engine::like_match(&pattern, &text);
        let want = oracle::like_oracle(&pattern, &text);
        if got != want {
            return Err(CheckFail::new(format!(
                "like_match({pattern:?}, {text:?}) = {got}, oracle says {want}"
            )));
        }
        checks += 1;
    }
    Ok(checks)
}

/// (d) FSM closure: every masked rollout renders SQL that parses back to
/// the same text, validates, and executes.
pub fn check_fsm_closure(rng: &mut StdRng) -> CheckResult {
    // Non-empty tables: the action space needs at least one sampled value
    // per column to offer predicates.
    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 8,
            seed: rng.random(),
            ..Default::default()
        },
    );
    let cfg = FsmConfig::full();
    let ex = Executor::new(&db);
    let mut rollout_rng = StdRng::seed_from_u64(rng.random());
    let mut checks = 0;
    for _ in 0..6 {
        let (stmt, _) = fsm_rollout(&vocab, &cfg, &mut rollout_rng);
        let sql = render(&stmt);
        let fail = |what: &str, e: String| CheckFail {
            detail: format!("FSM rollout {what}: {e}"),
            sql: Some(sql.clone()),
            shrunk_sql: None,
        };
        let reparsed = parse(&sql).map_err(|e| fail("does not parse", e.to_string()))?;
        if render(&reparsed) != sql {
            return Err(fail("re-render differs", render(&reparsed)));
        }
        validate(&db, &stmt).map_err(|e| fail("fails validation", e.to_string()))?;
        ex.cardinality(&stmt)
            .map_err(|e| fail("fails execution", e.to_string()))?;
        checks += 4;
    }
    Ok(checks)
}

/// (f) Batch equivalence: batched lockstep generation at B ∈ {1, 2, 4, 8}
/// yields per-lane token streams identical to serial runs seeded with the
/// same lane seeds (`base ^ lane`), including across continuous lane
/// refills, hands each lane's stream back where the serial run leaves it,
/// and every emitted query still passes the fsm-closure checks
/// (render → parse → re-render fixpoint → validate → execute).
pub fn check_batch_equivalence(rng: &mut StdRng) -> CheckResult {
    use sqlgen_rl::{
        lane_rngs, run_episode_infer, worker_seed, ActorNet, BatchRollout, Constraint,
        InferRollout, NetConfig, SqlGenEnv,
    };
    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 8,
            seed: rng.random(),
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 1e6));
    let actor = ActorNet::actor(
        vocab.size(),
        &NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        },
        rng.random(),
    );
    let ex = Executor::new(&db);
    let base: u64 = rng.random();
    let mut checks = 0;
    let mut ro = BatchRollout::new();
    for &batch in &[1usize, 2, 4, 8] {
        let n = batch + 2; // more jobs than lanes: exercises lane refill
        let mut rngs = lane_rngs(base, batch);
        let tagged = ro.collect_tagged(&actor, &env, n, &mut rngs);
        if tagged.len() != n {
            return Err(CheckFail::new(format!(
                "batch {batch}: collected {} episodes, wanted {n}",
                tagged.len()
            )));
        }
        for (lane, lane_back) in rngs.iter_mut().enumerate() {
            let mut lane_eps: Vec<_> = tagged.iter().filter(|(_, l, _)| *l == lane).collect();
            lane_eps.sort_by_key(|(job, _, _)| *job);
            let mut lane_rng = StdRng::seed_from_u64(worker_seed(base, lane));
            let mut iro = InferRollout::new();
            for (job, _, ep) in lane_eps {
                let serial = run_episode_infer(&actor, &env, &mut lane_rng, &mut iro);
                if ep.actions != serial.actions {
                    return Err(CheckFail::new(format!(
                        "batch {batch} lane {lane} job {job}: batched tokens diverge \
                         from serial run of the lane seed ({:?} vs {:?})",
                        ep.actions, serial.actions
                    )));
                }
                checks += 1;
            }
            if lane_back.random::<u64>() != lane_rng.random::<u64>() {
                return Err(CheckFail::new(format!(
                    "batch {batch} lane {lane}: stream not handed back where the serial run stops"
                )));
            }
        }
        for (_, _, ep) in &tagged {
            let sql = render(&ep.statement);
            let fail = |what: &str, e: String| CheckFail {
                detail: format!("batched rollout {what}: {e}"),
                sql: Some(sql.clone()),
                shrunk_sql: None,
            };
            let reparsed = parse(&sql).map_err(|e| fail("does not parse", e.to_string()))?;
            if render(&reparsed) != sql {
                return Err(fail("re-render differs", render(&reparsed)));
            }
            validate(&db, &ep.statement).map_err(|e| fail("fails validation", e.to_string()))?;
            ex.cardinality(&ep.statement)
                .map_err(|e| fail("fails execution", e.to_string()))?;
            checks += 4;
        }
    }
    Ok(checks)
}

/// (e) NN numeric hygiene: masked softmax, sampling and argmax stay in
/// bounds and never produce non-finite probabilities, even on hostile
/// logits.
pub fn check_nn_numerics(rng: &mut StdRng) -> CheckResult {
    let mut checks = 0;
    for _ in 0..16 {
        let n = rng.random_range(1..=24);
        let mut logits: Vec<f32> = (0..n)
            .map(|_| match rng.random_range(0..12) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => (rng.random_range(-800..800) as f32) / 100.0,
            })
            .collect();
        let mask: Vec<bool> = match rng.random_range(0..6) {
            0 => vec![false; n],
            1 => vec![true; n],
            _ => (0..n).map(|_| rng.random_range(0..3) > 0).collect(),
        };

        let picked = masked_softmax(&mut logits, &mask);
        if picked > n {
            return Err(CheckFail::new(format!(
                "masked_softmax returned count {picked} > {n}"
            )));
        }
        let mut sum = 0.0f32;
        for (i, (&p, &m)) in logits.iter().zip(&mask).enumerate() {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(CheckFail::new(format!(
                    "softmax prob[{i}] = {p} not in [0, 1]"
                )));
            }
            if !m && p != 0.0 {
                return Err(CheckFail::new(format!(
                    "masked slot {i} got probability {p}"
                )));
            }
            sum += p;
        }
        if sum != 0.0 && (sum - 1.0).abs() > 1e-4 {
            return Err(CheckFail::new(format!("softmax sum {sum} != 1")));
        }

        let s = sample_categorical(&logits, rng);
        if s >= n {
            return Err(CheckFail::new(format!("sample index {s} out of range {n}")));
        }
        if sum > 0.0 && logits[s] == 0.0 {
            return Err(CheckFail::new(format!(
                "sampled zero-probability slot {s} despite positive mass"
            )));
        }
        let a = argmax(&logits);
        if a >= n {
            return Err(CheckFail::new(format!("argmax index {a} out of range {n}")));
        }

        // Sampling over raw hostile probability vectors (bypassing softmax)
        // must stay in bounds too.
        let hostile: Vec<f32> = (0..n)
            .map(|_| match rng.random_range(0..4) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                _ => rng.random_range(0..100) as f32 / 100.0,
            })
            .collect();
        let h = sample_categorical(&hostile, rng);
        if h >= n {
            return Err(CheckFail::new(format!(
                "hostile sample index {h} out of range {n}"
            )));
        }
        if argmax(&hostile) >= n {
            return Err(CheckFail::new("hostile argmax out of range".to_string()));
        }
        checks += 7;
    }
    Ok(checks)
}

// ---------------------------------------------------------------------------
// (g) serve equivalence
// ---------------------------------------------------------------------------

/// The serving determinism contract plus HTTP-parser robustness.
///
/// Part 1: a window of coalesced requests run through the dynamic batcher
/// (`sqlgen_serve::run_window`) must produce, for every request,
/// episodes bitwise-identical to that request served alone on a single
/// lane — same token streams, same measured metrics, same rendered SQL —
/// regardless of batch width or co-tenant requests. About half the
/// windows run with refinement and resampling on.
///
/// Part 2: the hand-rolled HTTP parser must survive truncated, oversized
/// and byte-flipped request soup without panicking, and classify crafted
/// malformed/oversized inputs as 400/413.
pub fn check_serve_equivalence(rng: &mut StdRng) -> CheckResult {
    use sqlgen_rl::{ActorNet, Constraint, NetConfig};
    use sqlgen_serve::{read_request, run_window, Limits, ParseError, WindowRequest};
    use std::io::Cursor;

    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 8,
            seed: rng.random(),
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);
    let fsm = FsmConfig::default();
    let actor = ActorNet::actor(
        vocab.size(),
        &NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        },
        rng.random(),
    );
    let mut checks = 0;

    // --- part 1: batcher window ≡ solo generation --------------------------
    let n_reqs = rng.random_range(2..=4);
    let reqs: Vec<WindowRequest> = (0..n_reqs)
        .map(|_| WindowRequest {
            constraint: if rng.random_range(0..2) == 0 {
                Constraint::cardinality_range(1.0, 1e6)
            } else {
                Constraint::cardinality_point(rng.random_range(1..1000) as f64)
            },
            n: rng.random_range(1..=3),
            seed: rng.random(),
            deadline: None,
            trace: None,
        })
        .collect();
    let lanes = [2usize, 4, 8][rng.random_range(0..3usize)];
    let refiner = (rng.random_range(0..2) == 0).then(|| {
        sqlgen_core::Refiner::new(sqlgen_core::RefineConfig {
            max_evals: rng.random_range(0..=32),
            resample_rounds: rng.random_range(1..=4),
            ..Default::default()
        })
    });
    let window = run_window(&actor, &vocab, &est, &fsm, &reqs, lanes, refiner.as_ref());
    for (ri, req) in reqs.iter().enumerate() {
        let solo = run_window(
            &actor,
            &vocab,
            &est,
            &fsm,
            std::slice::from_ref(req),
            1,
            refiner.as_ref(),
        );
        let a = &window[ri].episodes;
        let b = &solo[0].episodes;
        if a.len() != req.n || b.len() != req.n {
            return Err(CheckFail::new(format!(
                "request {ri}: {} episodes coalesced, {} solo, wanted {}",
                a.len(),
                b.len(),
                req.n
            )));
        }
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            if x.actions != y.actions {
                return Err(CheckFail::new(format!(
                    "request {ri} episode {j}: coalesced tokens diverge from solo \
                     run at lanes={lanes} ({:?} vs {:?})",
                    x.actions, y.actions
                )));
            }
            if x.measured.to_bits() != y.measured.to_bits() || x.satisfied != y.satisfied {
                return Err(CheckFail::new(format!(
                    "request {ri} episode {j}: measured/satisfied diverge \
                     ({} vs {}, {} vs {})",
                    x.measured, y.measured, x.satisfied, y.satisfied
                )));
            }
            let sql = render(&x.statement);
            if sql != render(&y.statement) {
                return Err(CheckFail {
                    detail: format!("request {ri} episode {j}: rendered SQL diverges"),
                    sql: Some(sql),
                    shrunk_sql: None,
                });
            }
            checks += 3;
        }
    }

    // --- part 2: HTTP parser survives hostile bytes ------------------------
    let limits = Limits::default();
    // Crafted cases with a known classification.
    let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(9000));
    let crafted: [(&[u8], Option<u16>); 6] = [
        (b"BOGUS LINE\r\n\r\n", Some(400)),
        (
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            Some(400),
        ),
        (
            b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
            Some(413),
        ),
        (long_header.as_bytes(), Some(413)),
        (
            b"POST /generate HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc",
            None,
        ),
        (b"", None),
    ];
    for (bytes, want) in crafted {
        match read_request(&mut Cursor::new(bytes), &limits) {
            Ok(_) => {
                return Err(CheckFail::new(format!(
                    "parser accepted crafted malformed input {:?}",
                    String::from_utf8_lossy(&bytes[..bytes.len().min(40)])
                )))
            }
            Err(e) => {
                if e.status() != want {
                    return Err(CheckFail::new(format!(
                        "crafted input classified as {:?}, wanted {:?} ({e:?})",
                        e.status(),
                        want
                    )));
                }
            }
        }
        checks += 1;
    }
    // Byte-soup mutations of a valid request: any Ok/Err outcome is fine,
    // surviving without panic or runaway allocation is the invariant.
    let valid =
        b"POST /generate HTTP/1.1\r\ncontent-length: 24\r\n\r\n{\"constraint\":{\"point\":1}}";
    for _ in 0..24 {
        let mut bytes = valid.to_vec();
        match rng.random_range(0..4) {
            0 => bytes.truncate(rng.random_range(0..bytes.len())),
            1 => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] = rng.random();
            }
            2 => {
                let i = rng.random_range(0..bytes.len());
                bytes.splice(
                    i..i,
                    (0..rng.random_range(1..64)).map(|_| rng.random::<u8>()),
                );
            }
            _ => {
                bytes = (0..rng.random_range(0..256))
                    .map(|_| rng.random::<u8>())
                    .collect();
            }
        }
        let result = read_request(&mut Cursor::new(&bytes), &limits);
        if let Ok(req) = &result {
            if req.body.len() > limits.max_body {
                return Err(CheckFail::new(format!(
                    "parser returned {}-byte body above the {} limit",
                    req.body.len(),
                    limits.max_body
                )));
            }
        }
        if let Err(e) = &result {
            // Classified errors must carry a sendable status; transport
            // errors must not (ParseError::status is the router contract).
            match e {
                ParseError::BadRequest(_) => {
                    if e.status() != Some(400) {
                        return Err(CheckFail::new("BadRequest without status 400"));
                    }
                }
                ParseError::TooLarge(_) => {
                    if e.status() != Some(413) {
                        return Err(CheckFail::new("TooLarge without status 413"));
                    }
                }
                ParseError::Eof | ParseError::Incomplete | ParseError::Io(_) => {
                    if e.status().is_some() {
                        return Err(CheckFail::new("transport error carries a status"));
                    }
                }
            }
        }
        checks += 1;
    }
    Ok(checks)
}

// ---------------------------------------------------------------------------
// (h) trace headers
// ---------------------------------------------------------------------------

/// The trace-propagation parser (`traceparent` / `X-Request-Id`) must
/// survive hostile bytes without panicking, reject crafted malformed
/// headers, and — whenever it does accept an input — echo a canonical,
/// re-parseable header for the same trace id.
pub fn check_trace_header(rng: &mut StdRng) -> CheckResult {
    use sqlgen_obs::trace::{is_canonical_traceparent, ROOT_SPAN};
    use sqlgen_obs::TraceContext;

    let mut checks = 0u64;

    // --- round-trip: render(ctx) is canonical and parses back ---------------
    for _ in 0..8 {
        let ctx = TraceContext {
            trace_id: ((rng.random::<u64>() as u128) << 64 | rng.random::<u64>() as u128).max(1),
            parent_span: rng.random(),
        };
        let header = ctx.render_traceparent();
        if !is_canonical_traceparent(&header) {
            return Err(CheckFail::new(format!("echo not canonical: {header:?}")));
        }
        let back = TraceContext::parse_traceparent(&header)
            .ok_or_else(|| CheckFail::new(format!("echo does not re-parse: {header:?}")))?;
        if back != ctx {
            return Err(CheckFail::new(format!(
                "traceparent round-trip changed identity: {ctx:?} → {back:?}"
            )));
        }
        let id = ctx.request_id();
        if TraceContext::parse_request_id(&id) != Some(ctx.trace_id) {
            return Err(CheckFail::new(format!(
                "request id round-trip failed: {id:?}"
            )));
        }
        checks += 3;
    }

    // --- crafted invalids must be rejected, never panic ----------------------
    let valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
    let oversized = format!("{valid}0");
    let crafted = [
        "",                                                        // empty
        "00",                                                      // truncated
        &valid[..54],                                              // one byte short
        oversized.as_str(),                                        // one byte long
        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // reserved version
        "00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
        "00-+af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // sign accepted by from_str_radix
        "00-0af7651916cd43dd8448eb211c80319c-+7ad6b7169203331-01", // sign in span id
        "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex
        "00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong separator
        "00-0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331-01",
        "00-0af7651916cd43dd8448eb211c8031\u{0}c-b7ad6b7169203331-01", // embedded NUL
    ];
    for header in crafted {
        if TraceContext::parse_traceparent(header).is_some() {
            return Err(CheckFail::new(format!(
                "parser accepted crafted invalid traceparent {header:?}"
            )));
        }
        checks += 1;
    }
    for id in [
        "",
        "0af7651916cd43dd8448eb211c80319",      // 31 chars
        "0af7651916cd43dd8448eb211c80319cc",    // 33 chars
        "00000000000000000000000000000000",     // zero
        "+af7651916cd43dd8448eb211c80319c",     // sign
        "0af7651916cd43dd8448eb211c8031\u{0}c", // NUL
    ] {
        if TraceContext::parse_request_id(id).is_some() {
            return Err(CheckFail::new(format!(
                "parser accepted crafted invalid request id {id:?}"
            )));
        }
        checks += 1;
    }

    // --- byte-soup mutations: no panic; acceptance implies canonical echo ---
    for _ in 0..32 {
        let mut bytes = valid.as_bytes().to_vec();
        match rng.random_range(0..4) {
            0 => bytes.truncate(rng.random_range(0..bytes.len())),
            1 => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] = rng.random();
            }
            2 => {
                let i = rng.random_range(0..bytes.len());
                bytes.splice(
                    i..i,
                    (0..rng.random_range(1..32)).map(|_| rng.random::<u8>()),
                );
            }
            _ => {
                bytes = (0..rng.random_range(0..128))
                    .map(|_| rng.random::<u8>())
                    .collect();
            }
        }
        let header = String::from_utf8_lossy(&bytes);
        if let Some(ctx) = TraceContext::parse_traceparent(&header) {
            if ctx.trace_id == 0 {
                return Err(CheckFail::new(format!(
                    "parser yielded zero trace id from {header:?}"
                )));
            }
            if !is_canonical_traceparent(&ctx.render_traceparent()) {
                return Err(CheckFail::new(format!(
                    "non-canonical echo for accepted mutation {header:?}"
                )));
            }
        }
        // from_headers must always produce a usable identity, whatever the
        // inbound garbage (both headers hostile at once).
        let ctx = TraceContext::from_headers(Some(&header), Some(&header));
        let echo = TraceContext {
            trace_id: ctx.trace_id,
            parent_span: ROOT_SPAN,
        };
        if ctx.trace_id == 0 || !is_canonical_traceparent(&echo.render_traceparent()) {
            return Err(CheckFail::new(format!(
                "from_headers produced unusable identity for {header:?}"
            )));
        }
        checks += 2;
    }
    Ok(checks)
}

// ---------------------------------------------------------------------------
// (i) quantization error
// ---------------------------------------------------------------------------

/// (i) Quantization error: the int8 per-output-channel format honors its
/// documented accuracy envelope on random layer weights and hostile
/// activations.
///
/// * dequantized weights are within half a quantization step
///   (`scale[r] / 2`) of the f32 originals, entry-wise; all-zero rows
///   dequantize to exact zeros;
/// * per layer, the q8 matvec differs from the f32 matvec by at most the
///   theoretical bound `row_error_bound(r, ‖x‖₁)` per output row (plus
///   f32 rounding slack) — activations sweep magnitudes from 1e-3 to 1e3
///   (NaN/±inf are excluded: the bound is meaningless for non-finite
///   inputs, which the masked softmax filters out downstream);
/// * masked argmax over quantized logits agrees with f32 argmax on at
///   least 99% of decisive trials — those where the f32 winner's margin
///   exceeds the summed error bounds, so disagreement is mathematically
///   impossible — and any non-decisive flip stays within the error
///   envelope of the two contending rows.
pub fn check_quant_error(rng: &mut StdRng) -> CheckResult {
    use sqlgen_nn::{Mat, QuantizedMat};

    let mut checks = 0;
    for _ in 0..4 {
        let rows = rng.random_range(1..=40);
        let cols = rng.random_range(1..=32);
        let mag = 10f32.powi(rng.random_range(-3..=3));
        let mut w = Mat::zeros(rows, cols);
        for v in w.data.iter_mut() {
            *v = match rng.random_range(0..16) {
                0 => 0.0,
                _ => (rng.random_range(-1000..=1000) as f32 / 1000.0) * mag,
            };
        }
        if rng.random_range(0..4) == 0 {
            let r = rng.random_range(0..rows);
            w.row_mut(r).iter_mut().for_each(|v| *v = 0.0);
        }
        let q = QuantizedMat::from_mat(&w);

        // Entry-wise dequantization error ≤ scale/2; zero rows exact.
        let dq = q.dequantize();
        for r in 0..rows {
            let half_step = 0.5 * q.scales[r];
            for c in 0..cols {
                let err = (dq.data[r * cols + c] - w.data[r * cols + c]).abs();
                if err > half_step * 1.0001 {
                    return Err(CheckFail::new(format!(
                        "dequant error {err} > scale/2 = {half_step} at ({r}, {c})"
                    )));
                }
            }
            if q.scales[r] == 0.0 && dq.row(r).iter().any(|&v| v != 0.0) {
                return Err(CheckFail::new(format!("zero row {r} dequantized non-zero")));
            }
        }
        checks += 1;

        // Per-layer matvec error within the theoretical bound, across
        // hostile activation magnitudes.
        let mut yq = vec![0.0f32; rows];
        let mut yf = vec![0.0f32; rows];
        for _ in 0..4 {
            let xmag = 10f32.powi(rng.random_range(-3..=3));
            let x: Vec<f32> = (0..cols)
                .map(|_| (rng.random_range(-1000..=1000) as f32 / 1000.0) * xmag)
                .collect();
            let x_l1: f32 = x.iter().map(|v| v.abs()).sum();
            q.matvec_q8(&x, &mut yq);
            w.matvec(&x, &mut yf);
            for r in 0..rows {
                let bound = q.row_error_bound(r, x_l1);
                // Slack for f32 accumulation rounding in both matvecs.
                let tol = bound * 1.0001 + 1e-4 * (yf[r].abs() + q.scales[r] * x_l1 + 1e-6);
                let err = (yq[r] - yf[r]).abs();
                if err > tol {
                    return Err(CheckFail::new(format!(
                        "q8 matvec row {r}: |{} - {}| = {err} > bound {bound}",
                        yq[r], yf[r]
                    )));
                }
            }
            checks += 1;
        }

        // Gap-guarded masked argmax agreement. On adversarial random
        // matrices the f32 top-two gap is frequently *inside* the int8
        // error envelope, where a flip is a legal outcome of 8-bit
        // resolution rather than a kernel bug — so the ≥99% agreement
        // gate is measured over the decisive trials (f32 margin beyond
        // the summed row error bounds), where disagreement is
        // mathematically impossible; any decisive flip fails the case
        // outright.
        let mut trials = 0u64;
        let mut agree = 0u64;
        for _ in 0..32 {
            let x: Vec<f32> = (0..cols)
                .map(|_| rng.random_range(-4000..=4000) as f32 / 1000.0)
                .collect();
            let x_l1: f32 = x.iter().map(|v| v.abs()).sum();
            q.matvec_q8(&x, &mut yq);
            w.matvec(&x, &mut yf);
            let mask: Vec<bool> = (0..rows).map(|_| rng.random_range(0..3) > 0).collect();
            let best = |y: &[f32]| -> Option<usize> {
                let mut b: Option<usize> = None;
                for r in 0..rows {
                    if mask[r] && b.is_none_or(|p| y[r] > y[p]) {
                        b = Some(r);
                    }
                }
                b
            };
            let (Some(bf), Some(bq)) = (best(&yf), best(&yq)) else {
                continue;
            };
            // A trial is decisive when the f32 winner's margin over every
            // other masked row exceeds the summed error bounds of the two
            // rows involved (+ float-rounding slack).
            let decisive = (0..rows).filter(|&r| mask[r] && r != bf).all(|r| {
                let limit = q.row_error_bound(bf, x_l1) + q.row_error_bound(r, x_l1);
                yf[bf] - yf[r] > limit * 1.0001 + 1e-5
            });
            if decisive {
                trials += 1;
                if bf == bq {
                    agree += 1;
                } else {
                    return Err(CheckFail::new(format!(
                        "decisive argmax flipped {bf} -> {bq} (gap {} > bound {})",
                        yf[bf] - yf[bq],
                        q.row_error_bound(bf, x_l1) + q.row_error_bound(bq, x_l1)
                    )));
                }
            } else if bf != bq {
                // Non-decisive flips must still be within the envelope of
                // the two contenders.
                let gap = yf[bf] - yf[bq];
                let limit = q.row_error_bound(bf, x_l1) + q.row_error_bound(bq, x_l1);
                if gap > limit * 1.0001 + 1e-5 {
                    return Err(CheckFail::new(format!(
                        "argmax flipped {bf} -> {bq} despite gap {gap} > bound {limit}"
                    )));
                }
            }
        }
        if trials > 0 && (agree as f64) < 0.99 * trials as f64 {
            return Err(CheckFail::new(format!(
                "masked argmax agreement {agree}/{trials} below 99%"
            )));
        }
        checks += 1;
    }
    Ok(checks)
}

/// (j) Refine validity: every step of constraint-miss refinement
/// (DESIGN.md §12) stays inside the FSM-closure envelope — it parses,
/// re-renders to a fixpoint, validates and executes — accepted-step
/// rewards strictly increase toward the constraint interval, an accepted
/// result satisfies the constraint and re-measures bit-identically, and
/// the whole search is deterministic (replaying it reproduces the exact
/// step sequence and outcome).
pub fn check_refine_validity(rng: &mut StdRng) -> CheckResult {
    use sqlgen_core::refine::search;
    use sqlgen_rl::{Constraint, SqlGenEnv};

    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 8,
            seed: rng.random(),
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);
    let ex = Executor::new(&db);
    let constraint = match rng.random_range(0..4) {
        0 => Constraint::cardinality_point(rng.random_range(1.0..200.0)),
        1 => {
            let lo = rng.random_range(1.0..100.0);
            Constraint::cardinality_range(lo, lo + rng.random_range(1.0..200.0))
        }
        2 => Constraint::cost_point(rng.random_range(1.0..500.0)),
        _ => {
            let lo = rng.random_range(1.0..200.0);
            Constraint::cost_range(lo, lo + rng.random_range(1.0..500.0))
        }
    };
    let env = SqlGenEnv::new(&vocab, &est, constraint);
    let cfg = FsmConfig::full();
    let mut rollout_rng = StdRng::seed_from_u64(rng.random());

    // Audits one refinement search: returns passed-assertion count, or the
    // first violated invariant. Also the shrinking predicate, so a minimal
    // statement whose refinement still misbehaves survives shrinking.
    let audit = |stmt: &Statement| -> Result<u64, String> {
        let measured = env.measure(stmt);
        let out = search(&env, stmt, measured, 64);
        let mut passed = 0u64;
        let mut prev = env.constraint.reward(measured);
        for (i, step) in out.steps.iter().enumerate() {
            match parse(&step.sql) {
                Ok(p) if render(&p) == step.sql => {}
                Ok(p) => return Err(format!("step {i} re-render differs: {}", render(&p))),
                Err(e) => return Err(format!("step {i} does not parse: {e}")),
            }
            if step.sql != render(&step.statement) {
                return Err(format!("step {i} sql/statement disagree"));
            }
            if let Err(e) = validate(&db, &step.statement) {
                return Err(format!("step {i} fails validation: {e}"));
            }
            if let Err(e) = ex.cardinality(&step.statement) {
                return Err(format!("step {i} fails execution: {e}"));
            }
            if step.measured.to_bits() != env.measure(&step.statement).to_bits() {
                return Err(format!("step {i} measured drifts on re-measure"));
            }
            if step.reward <= prev {
                return Err(format!(
                    "step {i} reward {:.6} does not improve on {:.6}",
                    step.reward, prev
                ));
            }
            prev = step.reward;
            passed += 7;
        }
        if let Some((best, m)) = &out.result {
            if !env.constraint.satisfied(*m) {
                return Err(format!("accepted result misses the constraint: {m}"));
            }
            if m.to_bits() != env.measure(best).to_bits() {
                return Err("accepted result drifts on re-measure".into());
            }
            passed += 2;
        }
        let replay = search(&env, stmt, measured, 64);
        let key = |o: &sqlgen_core::RefineOutcome| {
            (
                o.evals,
                o.steps.iter().map(|s| s.sql.clone()).collect::<Vec<_>>(),
                o.result.as_ref().map(|(s, m)| (render(s), m.to_bits())),
            )
        };
        if key(&replay) != key(&out) {
            return Err("search is nondeterministic across replays".into());
        }
        passed += 1;
        Ok(passed)
    };

    let mut checks = 0;
    for _ in 0..4 {
        let (stmt, _) = fsm_rollout(&vocab, &cfg, &mut rollout_rng);
        match audit(&stmt) {
            Ok(passed) => checks += passed,
            Err(detail) => {
                return Err(CheckFail::with_stmt(
                    format!("refine-validity: {detail}"),
                    &db,
                    &stmt,
                    &mut |s| audit(s).is_err(),
                ));
            }
        }
    }
    Ok(checks)
}

// ---------------------------------------------------------------------------
// (k) cache equivalence
// ---------------------------------------------------------------------------

/// The sharded LRU result cache must never serve wrong bytes.
///
/// Part 1 model-checks the cache against a plain map under random
/// put/get/clear interleavings and shard counts: with a budget nobody
/// exceeds it behaves exactly like the map; with an eviction-heavy tiny
/// budget a `get` may miss but a hit must return exactly the last body
/// stored for that key, with held bytes never above budget.
///
/// Part 2 checks the serving contract end-to-end: a response body cached
/// after one window is bitwise identical to re-running generation at a
/// different batch width (the purity property that makes full-body caching
/// sound), the key ignores `timeout_ms` (expiry policy, not content), and
/// a seed or model-version change misses (hot-swap invalidation).
pub fn check_cache_equivalence(rng: &mut StdRng) -> CheckResult {
    use sqlgen_rl::{ActorNet, Constraint, NetConfig};
    use sqlgen_serve::{
        outcome_json, run_window, CacheKey, GenRequest, RequestOutcome, ResultCache, ServedQuery,
        WindowRequest,
    };
    use std::collections::HashMap;
    use std::sync::Arc;

    let mut checks = 0;

    let random_constraint = |rng: &mut StdRng| match rng.random_range(0..3) {
        0 => Constraint::cardinality_point(rng.random_range(1..1000) as f64),
        1 => Constraint::cardinality_range(1.0, rng.random_range(2..1_000_000) as f64),
        _ => Constraint::cost_range(1.0, rng.random_range(2..100_000) as f64),
    };
    let random_request = |rng: &mut StdRng| GenRequest {
        schema: String::new(),
        constraint: random_constraint(rng),
        n: rng.random_range(1..=3),
        seed: rng.random(),
        timeout_ms: None,
    };

    // --- part 1a: ample budget — the cache IS a map ------------------------
    let keyspace: Vec<(GenRequest, u64)> = (0..8)
        .map(|_| (random_request(rng), rng.random_range(1..=2)))
        .collect();
    let cache = ResultCache::new(1 << 20, rng.random_range(1..=4), "fuzz-cache");
    let mut model: HashMap<CacheKey, Arc<String>> = HashMap::new();
    for op in 0..60 {
        let (req, version) = &keyspace[rng.random_range(0..keyspace.len())];
        let key = CacheKey::for_request(req, *version);
        match rng.random_range(0..10) {
            0..=3 => {
                let body = Arc::new(format!(
                    "body-{op}-{}",
                    "x".repeat(rng.random_range(0..200))
                ));
                cache.put(key, body.clone());
                model.insert(key, body);
            }
            4..=8 => {
                let got = cache.get(&key);
                let want = model.get(&key);
                if got.as_deref() != want.map(|b| b.as_ref()) {
                    return Err(CheckFail::new(format!(
                        "cache/map diverge on get (op {op}): got {:?}, want {:?}",
                        got.as_deref().map(|b| &b[..b.len().min(24)]),
                        want.map(|b| &b[..b.len().min(24)]),
                    )));
                }
            }
            _ => {
                cache.clear();
                model.clear();
            }
        }
        if cache.len() != model.len() {
            return Err(CheckFail::new(format!(
                "cache holds {} entries, map holds {} (op {op})",
                cache.len(),
                model.len()
            )));
        }
        if model.is_empty() != (cache.bytes() == 0) {
            return Err(CheckFail::new(format!(
                "bytes gauge {} inconsistent with {} entries (op {op})",
                cache.bytes(),
                model.len()
            )));
        }
        checks += 2;
    }

    // --- part 1b: tiny budget — eviction may forget, never corrupt --------
    let budget = rng.random_range(400..1200usize);
    let tiny = ResultCache::new(budget, rng.random_range(1..=2), "fuzz-cache-tiny");
    let mut last: HashMap<CacheKey, Arc<String>> = HashMap::new();
    for op in 0..40 {
        let (req, version) = &keyspace[rng.random_range(0..keyspace.len())];
        let key = CacheKey::for_request(req, *version);
        if rng.random_range(0..2) == 0 {
            let body = Arc::new(format!(
                "tiny-{op}-{}",
                "y".repeat(rng.random_range(0..120))
            ));
            tiny.put(key, body.clone());
            last.insert(key, body);
        } else if let Some(got) = tiny.get(&key) {
            let want = last.get(&key);
            if want.map(|b| b.as_ref()) != Some(got.as_ref()) {
                return Err(CheckFail::new(format!(
                    "evicting cache returned stale/foreign bytes (op {op})"
                )));
            }
        }
        if tiny.bytes() > budget {
            return Err(CheckFail::new(format!(
                "cache holds {} bytes over the {budget}-byte budget (op {op})",
                tiny.bytes()
            )));
        }
        checks += 2;
    }

    // --- part 2: cached response ≡ fresh generation ------------------------
    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 8,
            seed: rng.random(),
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);
    let fsm = FsmConfig::default();
    let actor = ActorNet::actor(
        vocab.size(),
        &NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        },
        rng.random(),
    );
    let version = rng.random_range(1..100u64);
    let req = random_request(rng);
    let window_req = |req: &GenRequest| WindowRequest {
        constraint: req.constraint,
        n: req.n,
        seed: req.seed,
        deadline: None,
        trace: None,
    };
    let body_for = |lanes: usize, req: &GenRequest| {
        let out = run_window(
            &actor,
            &vocab,
            &est,
            &fsm,
            std::slice::from_ref(&window_req(req)),
            lanes,
            None,
        );
        let queries: Vec<ServedQuery> = out[0]
            .episodes
            .iter()
            .map(|ep| ServedQuery {
                sql: render(&ep.statement),
                measured: ep.measured,
                satisfied: ep.satisfied,
            })
            .collect();
        outcome_json(
            "fuzz",
            req,
            &RequestOutcome {
                queries,
                expired: out[0].expired,
                model_label: "fuzz".to_string(),
                model_version: version,
            },
        )
    };

    let e2e = ResultCache::new(1 << 20, 2, "fuzz-cache-e2e");
    let first = body_for([2usize, 4][rng.random_range(0..2usize)], &req);
    e2e.put(CacheKey::for_request(&req, version), Arc::new(first));

    // Same request with a different timeout_ms keys identically: the hit
    // must be byte-identical to generating fresh at another batch width.
    let mut retimed = req.clone();
    retimed.timeout_ms = Some(rng.random_range(1..60_000));
    let Some(hit) = e2e.get(&CacheKey::for_request(&retimed, version)) else {
        return Err(CheckFail::new("timeout_ms variant missed the cache"));
    };
    let fresh = body_for([1usize, 8][rng.random_range(0..2usize)], &req);
    if *hit != fresh {
        return Err(CheckFail::new(format!(
            "cached response diverges from fresh generation:\n  cached: {hit}\n  fresh:  {fresh}"
        )));
    }
    checks += 2;

    // Seed and model-version changes must miss (hot-swap invalidation).
    let mut reseeded = req.clone();
    reseeded.seed = req.seed.wrapping_add(1);
    if e2e
        .get(&CacheKey::for_request(&reseeded, version))
        .is_some()
    {
        return Err(CheckFail::new("seed change hit the cache"));
    }
    if e2e.get(&CacheKey::for_request(&req, version + 1)).is_some() {
        return Err(CheckFail::new(
            "model-version change hit the cache (stale bytes would survive hot-swap)",
        ));
    }
    checks += 2;
    Ok(checks)
}

/// (l) Paged equivalence: a random database written to disk and read back
/// through a minimum-size buffer pool (two frames, so every scan evicts
/// constantly) is bitwise-identical to the in-memory original — schemas,
/// every cell (floats by bit pattern), cursor scans, and executor
/// cardinalities on random statements. Afterwards the file is deliberately
/// damaged (truncated mid-page or a random byte flipped) and the
/// open/verify path must report corruption: the CRC covers the whole page
/// after the checksum field, so no single-byte tear can slip through.
pub fn check_paged_equivalence(rng: &mut StdRng) -> CheckResult {
    let db = dbgen::random_database(rng, &DbProfile::default());
    let path = std::env::temp_dir().join(format!(
        "sqlgen-fuzz-paged-{}-{:016x}.db",
        std::process::id(),
        rng.random::<u64>()
    ));
    let result = paged_equivalence_case(rng, &db, &path);
    std::fs::remove_file(&path).ok();
    result
}

/// Bitwise value equality: floats by bit pattern (SQL `==` never equates
/// NaN or NULL, which is wrong for storage equivalence).
pub fn value_bits_eq(a: &sqlgen_storage::Value, b: &sqlgen_storage::Value) -> bool {
    use sqlgen_storage::Value;
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Null, Value::Null) => true,
        _ => a == b,
    }
}

fn paged_equivalence_case(rng: &mut StdRng, db: &Database, path: &std::path::Path) -> CheckResult {
    let mut checks = 0u64;
    save_database(db, path).map_err(|e| CheckFail::new(format!("save_database failed: {e}")))?;
    // Pool size 0 clamps to the two-frame minimum: any table spanning more
    // than two pages forces eviction mid-scan.
    let paged = PagedDb::open(path, 0).map_err(|e| CheckFail::new(format!("open failed: {e}")))?;

    if paged.table_names() != db.table_names() {
        return Err(CheckFail::new(format!(
            "table set diverged: paged {:?} vs mem {:?}",
            paged.table_names(),
            db.table_names()
        )));
    }
    checks += 1;

    for name in db.table_names() {
        let mem = db.table(name).expect("listed table exists");
        let disk = paged
            .read_table(name)
            .ok_or_else(|| CheckFail::new(format!("table {name} missing from paged image")))?;
        if format!("{:?}", disk.schema()) != format!("{:?}", mem.schema) {
            return Err(CheckFail::new(format!("schema diverged for table {name}")));
        }
        if TableRead::row_count(disk) != mem.row_count() {
            return Err(CheckFail::new(format!(
                "row count diverged for table {name}: paged {} vs mem {}",
                TableRead::row_count(disk),
                mem.row_count()
            )));
        }
        for (c, col) in mem.columns.iter().enumerate() {
            let mut cur = disk.scan_column(c);
            let mut r = 0usize;
            while let Some(v) = cur.next_value() {
                if r >= mem.row_count() {
                    return Err(CheckFail::new(format!(
                        "cursor overran table {name} column {c} past row {r}"
                    )));
                }
                if !value_bits_eq(&col.get(r), &v) {
                    return Err(CheckFail::new(format!(
                        "cell diverged at {name}.{c}@{r}: paged {v:?} vs mem {:?}",
                        col.get(r)
                    )));
                }
                r += 1;
            }
            if r != mem.row_count() {
                return Err(CheckFail::new(format!(
                    "cursor stopped early on {name} column {c}: {r} of {} rows",
                    mem.row_count()
                )));
            }
        }
        checks += 1;
    }

    // A two-frame pool that filled more than two pages must have evicted.
    let stats = paged.pool_stats();
    if stats.misses > 2 && stats.evictions == 0 {
        return Err(CheckFail::new(format!(
            "{} pool fills with two frames but zero evictions recorded",
            stats.misses
        )));
    }
    checks += 1;

    // Executor differential through the constantly-evicting pool.
    let ex_mem = Executor::new(db);
    let ex_disk = Executor::new(&paged);
    let opts = GenOptions::default();
    for _ in 0..STATEMENTS_PER_CASE {
        let stmt = astgen::random_statement(db, rng, &opts);
        validate(db, &stmt)
            .map_err(|e| CheckFail::new(format!("generator produced invalid statement: {e}")))?;
        let agree = |s: &Statement| match (ex_mem.cardinality(s), ex_disk.cardinality(s)) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !agree(&stmt) {
            let (a, b) = (ex_mem.cardinality(&stmt), ex_disk.cardinality(&stmt));
            return Err(CheckFail::with_stmt(
                format!("in-memory executor {a:?} != paged executor {b:?}"),
                db,
                &stmt,
                &mut |s| !agree(s),
            ));
        }
        checks += 1;
    }
    if paged.verify().is_err() {
        return Err(CheckFail::new("verify failed on an intact file"));
    }
    checks += 1;
    drop(paged);

    // Crash safety: damage the file and demand detection. Either the open
    // path (header/catalog pages) or verify (heap pages) must object.
    let len = std::fs::metadata(path)
        .map_err(|e| CheckFail::new(format!("stat failed: {e}")))?
        .len();
    let n_pages = len / PAGE_SIZE as u64;
    if rng.random_range(0..2u32) == 0 {
        // Torn final page: the tail of the last write never hit the disk.
        let cut = rng.random_range(1..PAGE_SIZE as u64);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| CheckFail::new(format!("reopen for truncate failed: {e}")))?;
        f.set_len(len - cut)
            .map_err(|e| CheckFail::new(format!("truncate failed: {e}")))?;
    } else {
        // Single-byte flip anywhere past the header page.
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let page = rng.random_range(1..n_pages.max(2));
        let offset = page * PAGE_SIZE as u64 + rng.random_range(0..PAGE_SIZE as u64);
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| CheckFail::new(format!("reopen for flip failed: {e}")))?;
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(offset))
            .and_then(|_| f.read_exact(&mut b))
            .map_err(|e| CheckFail::new(format!("read for flip failed: {e}")))?;
        b[0] ^= 0x40;
        f.seek(SeekFrom::Start(offset))
            .and_then(|_| f.write_all(&b))
            .map_err(|e| CheckFail::new(format!("write for flip failed: {e}")))?;
    }
    let detected = match PagedDb::open(path, 0) {
        Err(_) => true,
        Ok(damaged) => damaged.verify().is_err(),
    };
    if !detected {
        return Err(CheckFail::new(
            "damaged file opened and verified clean (checksum failed to detect corruption)",
        ));
    }
    checks += 1;
    Ok(checks)
}

/// (m) Hostile checkpoints: a rendered small checkpoint (actor-critic or
/// REINFORCE, f32 or int8 serving) is truncated at a random byte or has
/// one dimension, token or tensor data length changed. Loading it must
/// either fail with a typed error, or install a network on which
/// `generate_seeded` runs without panicking and yields SQL that parses,
/// re-renders to a fixpoint and validates. The unmutated checkpoint must
/// load back to bit-identical generation.
pub fn check_checkpoint_hostile(rng: &mut StdRng) -> CheckResult {
    use sqlgen_core::{Algorithm, GenConfig, LearnedSqlGen};
    use sqlgen_rl::{Constraint, NetConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let db = dbgen::random_database(rng, &DbProfile::parseable());
    let mut cfg = GenConfig::fast()
        .with_seed(rng.random())
        .with_algorithm(if rng.random_range(0..2) == 0 {
            Algorithm::ActorCritic
        } else {
            Algorithm::Reinforce
        })
        .with_batch_size(rng.random_range(1..=4))
        .with_quantize(rng.random_range(0..2) == 0)
        .with_refine(rng.random_range(0..2) == 0);
    cfg.sample.k = 8;
    cfg.train.net = NetConfig {
        embed_dim: 8,
        hidden: 8,
        layers: rng.random_range(1..=2),
        dropout: 0.0,
    };
    let mut gen = LearnedSqlGen::new(&db, Constraint::cardinality_range(1.0, 1e6), cfg);
    let (n, seed) = (rng.random_range(1..=3), rng.random());
    let text = gen.save_checkpoint();
    let before: Vec<String> = gen
        .generate_seeded(n, seed)
        .into_iter()
        .map(|q| q.sql)
        .collect();
    gen.load_checkpoint(&text)
        .map_err(|e| CheckFail::new(format!("unmutated checkpoint refused: {e}")))?;
    let after: Vec<String> = gen
        .generate_seeded(n, seed)
        .into_iter()
        .map(|q| q.sql)
        .collect();
    if after != before {
        return Err(CheckFail::new(
            "reloading the unmutated checkpoint changed generation",
        ));
    }
    let mut checks = 2;

    for _ in 0..4 {
        let (what, hostile) = mutate_checkpoint(rng, &text);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Every load path parses through `Checkpoint::parse`.
            match gen.load_checkpoint(&hostile) {
                Ok(()) => gen.generate_seeded(n, seed),
                Err(_) => Vec::new(),
            }
        }));
        let queries =
            outcome.map_err(|_| CheckFail::new(format!("{what}: load or generation panicked")))?;
        for q in &queries {
            let fail = |e: String| CheckFail {
                detail: format!("{what}: generated SQL is not FSM-valid: {e}"),
                sql: Some(q.sql.clone()),
                shrunk_sql: None,
            };
            let reparsed = parse(&q.sql).map_err(|e| fail(e.to_string()))?;
            if render(&reparsed) != q.sql {
                return Err(fail("re-render differs".to_string()));
            }
            validate(&db, &reparsed).map_err(|e| fail(e.to_string()))?;
            checks += 1;
        }
        // Restore the good network before the next mutation.
        gen.load_checkpoint(&text)
            .map_err(|e| CheckFail::new(format!("unmutated checkpoint refused: {e}")))?;
        checks += 1;
    }
    Ok(checks)
}

/// One hostile edit of a rendered checkpoint: a truncation at a random
/// byte, or a new value for one dimension (`rows`/`cols`/`input`/
/// `hidden`), one token (`start_token`/`context_token`/`vocab_size`), or
/// one tensor's `data` length. Returns a description and the edited text.
fn mutate_checkpoint(rng: &mut StdRng, text: &str) -> (String, String) {
    const DIMS: [&str; 4] = ["\"rows\":", "\"cols\":", "\"input\":", "\"hidden\":"];
    const TOKENS: [&str; 3] = ["\"start_token\":", "\"context_token\":", "\"vocab_size\":"];
    let kind = rng.random_range(0..4);
    if kind == 0 {
        let at = rng.random_range(0..text.len());
        let cut = String::from_utf8_lossy(&text.as_bytes()[..at]).into_owned();
        return (format!("truncated at byte {at}"), cut);
    }
    let keys: &[&str] = match kind {
        1 => &DIMS,
        2 => &TOKENS,
        _ => &["\"data\":["],
    };
    let sites: Vec<(usize, &str)> = keys
        .iter()
        .flat_map(|k| text.match_indices(k).map(|(i, _)| (i + k.len(), *k)))
        .collect();
    let (start, key) = sites[rng.random_range(0..sites.len())];
    let mut out = text.to_string();
    if kind == 3 {
        let end = start + text[start..].find(']').expect("data array closes");
        let values: Vec<&str> = text[start..end]
            .split(',')
            .filter(|v| !v.is_empty())
            .collect();
        let len = if values.is_empty() || rng.random_range(0..2) == 0 {
            values.len() + rng.random_range(1..=3usize)
        } else {
            rng.random_range(0..values.len())
        };
        let edited: Vec<&str> = (0..len)
            .map(|i| values.get(i).copied().unwrap_or("0.5"))
            .collect();
        out.replace_range(start..end, &edited.join(","));
        return (format!("tensor data at byte {start} resized to {len}"), out);
    }
    let end = start + text[start..].find([',', '}']).expect("value ends");
    let old: usize = text[start..end].parse().unwrap_or(0);
    let new: usize = [
        0,
        1,
        old + 1,
        old.saturating_sub(1),
        old.saturating_mul(2),
        1_000_000,
        usize::MAX,
    ][rng.random_range(0..7usize)];
    out.replace_range(start..end, &new.to_string());
    (
        format!("{key} at byte {start} set to {new} (was {old})"),
        out,
    )
}
