//! The sequential traced replay: the per-layer ledger.
//!
//! Every request first goes through `FeedbackService::handle`, the
//! reference. The replay then calls, in the order `handle_one` and
//! `Clara::repair_source` call them, the public functions of each layer
//! against its own copy of the cluster stores, and records one span per
//! call. Spans the program already records inside `repair_attempt_retrieved`
//! and `realign_attempt` (candidate search, cluster matching, signature
//! cache, ILP, verification) are adopted as children through
//! `clara_core::timing::collect`. A layer's self time is its span minus its
//! children.
//!
//! The replay must reproduce the reference's status, cost and feedback on
//! every request, and every repair it claims must satisfy the Theorem 5.3
//! predicate of `clara_core::DifferentialOracle`: the repaired program
//! passes the problem's tests.
//!
//! Both sides run with per-cluster repair threads off, so child spans never
//! overlap and self times add up to the request's wall time.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use clara_core::timing::{self, Span, Stage};
use clara_core::{
    frontend, generic_strategy, realign_attempt, render_feedback, repair_attempt_retrieved, AnalyzedProgram,
    ClaraConfig, Feedback, QuerySignals, RepairFailure, RepairResult,
};
use clara_corpus::Problem;
use clara_model::frontend::{grading_fuel, model_passes, model_passes_test};
use clara_server::{ClusterStore, FeedbackService, Request, Response, ServiceConfig, Status};

use crate::stats::{quantile, share, Fnv, Metrics};
use crate::workload::BenchRequest;

/// The engine configuration of the traced run: production defaults with
/// the per-cluster repair threads off.
pub fn traced_config() -> ClaraConfig {
    let mut config = ClaraConfig::default();
    config.repair.parallel = false;
    config
}

/// How two answers to the same request compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Same status, cost and feedback lines in the same order.
    Same,
    /// Same status, cost and feedback lines, in another order. The order of
    /// same-location "delete" hints follows hash-map iteration in
    /// `repair_against_cluster`, so it can differ between two computations
    /// of one repair; counted, not failed.
    OrderOnly,
    /// A different answer: a failure.
    Different,
}

/// What one request was answered with (the compared fields).
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Outcome category.
    pub status: Status,
    /// Repair cost, when repaired.
    pub cost: Option<i64>,
    /// Feedback lines.
    pub feedback: Vec<String>,
}

impl Verdict {
    /// The compared fields of a service response.
    pub fn of(response: &Response) -> Verdict {
        Verdict { status: response.status, cost: response.cost, feedback: response.feedback.clone() }
    }

    fn error() -> Verdict {
        Verdict { status: Status::Error, cost: None, feedback: Vec::new() }
    }

    fn sorted_feedback(&self) -> Vec<&str> {
        let mut lines: Vec<&str> = self.feedback.iter().map(String::as_str).collect();
        lines.sort_unstable();
        lines
    }

    /// Compares two answers to the same request.
    pub fn agreement(&self, other: &Verdict) -> Agreement {
        if self == other {
            Agreement::Same
        } else if self.status == other.status
            && self.cost == other.cost
            && self.sorted_feedback() == other.sorted_feedback()
        {
            Agreement::OrderOnly
        } else {
            Agreement::Different
        }
    }
}

/// Digest over `(request id, status, cost, feedback lines)` in stream order.
/// Feedback lines enter sorted, so the digest is stable across processes
/// while their order is not (see [`Agreement::OrderOnly`]).
pub fn verdict_digest(verdicts: &[Verdict]) -> u64 {
    let mut fnv = Fnv::default();
    for (id, verdict) in verdicts.iter().enumerate() {
        fnv.field(&(id as u64).to_le_bytes());
        fnv.field(verdict.status.as_str().as_bytes());
        fnv.field(verdict.cost.map_or_else(|| "-".to_owned(), |c| c.to_string()).as_bytes());
        for line in verdict.sorted_feedback() {
            fnv.field(line.as_bytes());
        }
        fnv.field(b"end");
    }
    fnv.finish()
}

/// Per-layer accumulators.
#[derive(Debug, Default, Clone)]
struct Layer {
    calls: u64,
    self_ns: u64,
    /// Span durations (not self times), for tail percentiles.
    durations_us: Vec<f64>,
}

/// The layers the replay times, with the metric prefix each reports under.
const PARSE: &str = "frontend.parse";
const GRADE: &str = "frontend.grade";
const ANALYZE: &str = "model.analyze";
const SURFACE: &str = "model.surface";
const SEARCH: &str = "index.search";
const REPAIR: &str = "repair";
const MATCHING: &str = "matching";
const SIGCACHE: &str = "sigcache";
const ILP: &str = "ilp";
const VERIFY: &str = "verify";
const ALIGN: &str = "align";
const FEEDBACK: &str = "feedback";
const LEARN: &str = "store.learn";

fn stage_layer(stage: Stage) -> &'static str {
    match stage {
        Stage::CandidateSearch => SEARCH,
        Stage::ClusterMatch => MATCHING,
        Stage::SigCache => SIGCACHE,
        Stage::Ilp => ILP,
        Stage::Verify => VERIFY,
        // Not recorded below the service; kept distinct if they ever are.
        Stage::Parse => PARSE,
        Stage::CacheProbe | Stage::SnapshotResolve | Stage::Learn | Stage::Replicate => "other",
    }
}

/// The span ledger of a traced run.
#[derive(Default)]
struct Ledger {
    layers: BTreeMap<&'static str, Layer>,
    /// Wall time of the reference `FeedbackService::handle` calls.
    reference_ns: u64,
    /// Wall time of the traced replay of the same requests.
    replay_ns: u64,
    /// Sum of the replay's top-level spans.
    attributed_ns: u64,
    analyze_errors: u64,
    repair_successes: u64,
    candidates_examined: u64,
    retrievals: u64,
    fallbacks: u64,
    align_successes: u64,
}

impl Ledger {
    fn layer(&mut self, name: &'static str) -> &mut Layer {
        self.layers.entry(name).or_default()
    }

    /// Runs `f` as a top-level span of layer `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.attributed_ns += nanos;
        let layer = self.layer(name);
        layer.calls += 1;
        layer.self_ns += nanos;
        layer.durations_us.push(nanos as f64 / 1e3);
        result
    }

    /// Runs `f` as a top-level span of layer `name` whose program-recorded
    /// child spans are adopted and subtracted from its self time.
    fn span_with_children<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let (result, children) = timing::collect(f);
        let nanos = start.elapsed().as_nanos() as u64;
        self.attributed_ns += nanos;
        let child_ns = self.adopt(&children);
        let layer = self.layer(name);
        layer.calls += 1;
        layer.self_ns += nanos.saturating_sub(child_ns);
        layer.durations_us.push(nanos as f64 / 1e3);
        result
    }

    /// Books program-recorded spans (completion order) into their layers
    /// and returns the time they cover at the top level. The only nesting
    /// among them: the winning repair's verification re-runs the matcher,
    /// so a `cluster_match` completing right before a `verify` is its child.
    fn adopt(&mut self, spans: &[Span]) -> u64 {
        let mut covered = 0;
        for (i, span) in spans.iter().enumerate() {
            let nested_in_verify = span.stage == Stage::ClusterMatch
                && spans.get(i + 1).is_some_and(|next| next.stage == Stage::Verify);
            let mut self_ns = span.nanos;
            if span.stage == Stage::Verify && i > 0 && spans[i - 1].stage == Stage::ClusterMatch {
                self_ns = self_ns.saturating_sub(spans[i - 1].nanos);
            }
            if !nested_in_verify {
                covered += span.nanos;
            }
            let layer = self.layer(stage_layer(span.stage));
            layer.calls += 1;
            layer.self_ns += self_ns;
            layer.durations_us.push(span.nanos as f64 / 1e3);
        }
        covered
    }
}

/// One problem's replay state: the store copy and the generation it is at.
struct ReplayShard {
    problem: Problem,
    store: ClusterStore,
    generation: u64,
}

/// The traced replay over one workload.
pub struct TracedRun {
    reference: FeedbackService,
    shards: Vec<ReplayShard>,
    by_problem: HashMap<String, usize>,
    /// The service's result cache as the replay sees it: outcomes by
    /// `(shard, generation, structural hash)`.
    memo: HashMap<(usize, u64, u64), Verdict>,
    ledger: Ledger,
    /// Reference verdicts, in stream order.
    pub verdicts: Vec<Verdict>,
    /// Replay mismatches and oracle rejections.
    pub failures: Vec<String>,
    /// Replayed answers that differ from the service's in line order only.
    pub order_mismatches: usize,
}

impl TracedRun {
    /// Starts a traced run over `stores` (built with [`traced_config`]).
    pub fn new(stores: Vec<ClusterStore>) -> TracedRun {
        let shards: Vec<ReplayShard> = stores
            .iter()
            .map(|store| ReplayShard {
                problem: store.problem().clone(),
                store: store.clone(),
                generation: 0,
            })
            .collect();
        let by_problem = shards.iter().enumerate().map(|(i, s)| (s.problem.name.to_owned(), i)).collect();
        TracedRun {
            reference: FeedbackService::new(
                stores,
                ServiceConfig { clara: traced_config(), ..ServiceConfig::default() },
            ),
            shards,
            by_problem,
            memo: HashMap::new(),
            ledger: Ledger::default(),
            verdicts: Vec::new(),
            failures: Vec::new(),
            order_mismatches: 0,
        }
    }

    /// Sends `request` to the reference, replays it with spans, and checks
    /// the two agree.
    pub fn step(&mut self, bench: &BenchRequest) {
        let request = &bench.request;
        let start = Instant::now();
        let response = self.reference.handle(request);
        self.ledger.reference_ns += start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let replayed = self.replay(request, response.cache_hit);
        self.ledger.replay_ns += start.elapsed().as_nanos() as u64;

        let reference = Verdict::of(&response);
        match replayed.map(|verdict| (verdict.agreement(&reference), verdict)) {
            Ok((Agreement::Same, _)) => {}
            Ok((Agreement::OrderOnly, _)) => self.order_mismatches += 1,
            Ok((Agreement::Different, verdict)) => self.failures.push(format!(
                "request {}: replay answered {:?} cost {:?}, service {:?} cost {:?}",
                request.id, verdict.status, verdict.cost, reference.status, reference.cost
            )),
            Err(reason) => self.failures.push(format!("request {}: {reason}", request.id)),
        }
        self.verdicts.push(reference);
    }

    fn replay(&mut self, request: &Request, cache_hit: bool) -> Result<Verdict, String> {
        let Some(&index) = self.by_problem.get(&request.problem) else {
            return Ok(Verdict::error());
        };
        let lang = self.shards[index].problem.lang;
        let parsed = self.ledger.span(PARSE, || frontend(lang).parse(&request.source));
        let Ok(parsed) = parsed else {
            return Ok(Verdict::error());
        };
        let key = (index, self.shards[index].generation, parsed.structural_hash());
        let learn = request.learn.unwrap_or(false);
        if cache_hit {
            let verdict =
                self.memo.get(&key).cloned().ok_or("the service hit its cache, the replay has no entry")?;
            if verdict.status == Status::Correct && learn {
                self.learn(index, &request.source);
            }
            return Ok(verdict);
        }

        let shard = &self.shards[index];
        let passes = self.ledger.span(GRADE, || parsed.passes(&shard.problem.spec));
        let verdict = if passes {
            Verdict { status: Status::Correct, cost: None, feedback: Vec::new() }
        } else {
            self.repair(index, &request.source)?
        };
        let learned = verdict.status == Status::Correct && learn && self.learn(index, &request.source);
        let generation = if learned { self.shards[index].generation } else { key.1 };
        self.memo.insert((index, generation, key.2), verdict.clone());
        Ok(verdict)
    }

    /// `Clara::repair_source`, one layer call at a time.
    fn repair(&mut self, index: usize, source: &str) -> Result<Verdict, String> {
        let shard = &self.shards[index];
        let problem = &shard.problem;
        let engine = shard.store.engine();
        let config = engine.config();
        let ledger = &mut self.ledger;
        let attempt = ledger.span(ANALYZE, || {
            AnalyzedProgram::from_text_in(
                problem.lang,
                source,
                problem.entry,
                engine.inputs(),
                config.repair.fuel,
            )
        });
        let attempt = match attempt {
            Ok(attempt) => attempt,
            Err(_) => {
                ledger.analyze_errors += 1;
                return Ok(Verdict::error());
            }
        };
        let use_index = config.repair.use_candidate_index && !engine.candidate_index().is_empty();
        let surface = if use_index || config.repair.flexible_alignment {
            ledger.span(SURFACE, || {
                frontend(problem.lang).parse(source).ok().and_then(|p| p.surface(problem.entry).ok())
            })
        } else {
            None
        };
        let query =
            use_index.then(|| ledger.span(SEARCH, || QuerySignals::for_program(&attempt, surface.as_ref())));
        let mut result: RepairResult = ledger.span_with_children(REPAIR, || {
            repair_attempt_retrieved(
                engine.clusters(),
                query.as_ref().map(|q| (engine.candidate_index(), q)),
                &attempt,
                engine.inputs(),
                &config.repair,
            )
        });
        ledger.candidates_examined += result.candidate_clusters as u64;
        if let Some(retrieval) = &result.retrieval {
            ledger.retrievals += 1;
            ledger.fallbacks += u64::from(retrieval.fell_back);
        }
        ledger.repair_successes += u64::from(result.best.is_some());
        let mut normalized = None;
        if result.best.is_none()
            && result.failure == Some(RepairFailure::NoMatchingControlFlow)
            && config.repair.flexible_alignment
        {
            if let Some(surface) = &surface {
                let aligned = ledger.span_with_children(ALIGN, || {
                    realign_attempt(engine.clusters(), &attempt, surface, engine.inputs(), &config.repair)
                });
                if let Some((aligned, program)) = aligned {
                    ledger.align_successes += 1;
                    result = aligned;
                    normalized = Some(program);
                }
            }
        }
        let feedback = ledger.span(FEEDBACK, || match &result.best {
            Some(repair) => {
                let program = normalized.as_ref().map_or(&attempt.program, |n| &n.program);
                render_feedback(repair, program, &config.feedback)
            }
            None => Feedback::GenericStrategy(generic_strategy(&attempt.program)),
        });
        if let Some(repair) = &result.best {
            // The Theorem 5.3 obligation, as `DifferentialOracle` states it:
            // the repaired program passes the specification, under the model
            // fuel or the grader's own step budget.
            let spec = &problem.spec;
            let sound = model_passes(&repair.repaired, spec)
                || spec.tests.iter().all(|t| model_passes_test(&repair.repaired, t, grading_fuel(spec)));
            if !sound {
                return Err("the oracle rejects the claimed repair".to_owned());
            }
        }
        Ok(Verdict {
            status: if result.best.is_some() { Status::Repaired } else { Status::NoRepair },
            cost: result.best.as_ref().map(|r| r.total_cost),
            feedback: feedback.lines(),
        })
    }

    /// `ClusterStore::with_learned` + publish, as the service's learn path.
    fn learn(&mut self, index: usize, source: &str) -> bool {
        let shard = &mut self.shards[index];
        let learned = self.ledger.span(LEARN, || shard.store.with_learned(source));
        match learned {
            Ok((next, _)) => {
                shard.store = next;
                shard.generation += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Records the ledger's metrics into `metrics`.
    pub fn report(&self, metrics: &mut Metrics) {
        let ledger = &self.ledger;
        let empty = Layer::default();
        let layer = |name: &str| ledger.layers.get(name).unwrap_or(&empty);
        let ms = |name: &str| layer(name).self_ns as f64 / 1e6;
        let calls = |name: &str| layer(name).calls as f64;
        let p99 = |name: &str| quantile(&layer(name).durations_us, 0.99);
        let service_ms = ledger.reference_ns as f64 / 1e6;

        metrics.put("store.learn.calls", calls(LEARN), "count");
        metrics.put("store.learn.self_ms", ms(LEARN), "ms");
        metrics.put("frontend.parse.calls", calls(PARSE), "count");
        metrics.put("frontend.parse.self_ms", ms(PARSE), "ms");
        metrics.put("frontend.grade.calls", calls(GRADE), "count");
        metrics.put("frontend.grade.self_ms", ms(GRADE), "ms");
        metrics.put("frontend.grade.p99_us", p99(GRADE), "us");
        metrics.put("frontend.grade.self_share", share(ms(GRADE), service_ms), "ratio");
        metrics.put("model.analyze.calls", calls(ANALYZE), "count");
        metrics.put("model.analyze.self_ms", ms(ANALYZE), "ms");
        metrics.put("model.analyze.p99_us", p99(ANALYZE), "us");
        metrics.put("model.analyze.errors", ledger.analyze_errors as f64, "count");
        metrics.put("model.surface.self_ms", ms(SURFACE), "ms");
        metrics.put("index.search.self_ms", ms(SEARCH), "ms");
        metrics.put(
            "index.candidates_examined_mean",
            share(ledger.candidates_examined as f64, calls(REPAIR)),
            "clusters",
        );
        metrics.put(
            "index.fallback_share",
            share(ledger.fallbacks as f64, ledger.retrievals as f64),
            "ratio",
        );
        metrics.put("repair.calls", calls(REPAIR), "count");
        metrics.put("repair.self_ms", ms(REPAIR), "ms");
        metrics.put("repair.p99_us", p99(REPAIR), "us");
        metrics.put("repair.success_share", share(ledger.repair_successes as f64, calls(REPAIR)), "ratio");
        metrics.put("matching.self_ms", ms(MATCHING), "ms");
        metrics.put("sigcache.self_ms", ms(SIGCACHE), "ms");
        metrics.put("ilp.calls", calls(ILP), "count");
        metrics.put("ilp.self_ms", ms(ILP), "ms");
        metrics.put("verify.self_ms", ms(VERIFY), "ms");
        metrics.put("align.calls", calls(ALIGN), "count");
        metrics.put("align.self_ms", ms(ALIGN), "ms");
        metrics.put("align.self_share", share(ms(ALIGN), service_ms), "ratio");
        metrics.put("align.success_share", share(ledger.align_successes as f64, calls(ALIGN)), "ratio");
        metrics.put("feedback.calls", calls(FEEDBACK), "count");
        metrics.put("feedback.self_ms", ms(FEEDBACK), "ms");
        metrics.put("ledger.service_ms", service_ms, "ms");
        metrics.put(
            "ledger.unattributed_share",
            share(ledger.reference_ns as f64 - ledger.attributed_ns as f64, ledger.reference_ns as f64),
            "ratio",
        );
        metrics.put(
            "trace.overhead_share",
            share(ledger.replay_ns as f64, ledger.reference_ns as f64) - 1.0,
            "ratio",
        );
    }

    /// Self time per layer in ms, largest first (for the text report).
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<_> = self.ledger.layers.iter().map(|(n, l)| (*n, l.self_ns as f64 / 1e6)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}
