//! The snapshot-fronted, sharded feedback service.
//!
//! A [`FeedbackService`] owns one shard per problem. Each shard publishes
//! its [`ClusterStore`] through a [`SnapshotCell`]: readers (`handle` /
//! `handle_batch`) grab an immutable `Arc` snapshot and run the whole
//! repair pipeline against it **without holding any lock** — a learn that
//! republishes the index never stalls an in-flight repair, and a repair
//! never delays a learn. Writers serialize on a small per-shard mutex,
//! clone-and-extend the store off-path ([`ClusterStore::with_learned`]) and
//! publish the successor with one atomic pointer swap.
//!
//! The result cache in front is a [`StripedCache`]: independently locked
//! LRU segments keyed by a splitmix-mixed combination of shard, language,
//! **snapshot generation** and structural program hash. Folding the
//! generation into the key makes cache invalidation free: publishing a new
//! index rotates that shard's keys, so stale feedback simply stops being
//! addressable and ages out of the LRU — no scan, no epoch bookkeeping.
//!
//! Batches amortise the remaining per-request costs: a worker draining `K`
//! queued requests resolves each shard's snapshot once and answers
//! structurally identical submissions within the batch from the first
//! computation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use clara_core::timing::{self, Stage, StageTimer};
use clara_core::{frontend, ClaraConfig, Snapshot, SnapshotCell};
use clara_corpus::Problem;
use clara_model::frontend::{Lang, ParsedSubmission};
use serde::{Deserialize, Serialize};

use crate::cache::StripedCache;
use crate::obs::{self, Registry};
use crate::protocol::{Request, Response, Status};
use crate::shard::ShardSpec;
use crate::store::ClusterStore;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Approximate capacity of the structural-hash result cache (0 disables
    /// it; rounded up to a multiple of `cache_stripes`).
    pub cache_capacity: usize,
    /// Lock stripes of the result cache (rounded up to a power of two).
    pub cache_stripes: usize,
    /// Whether `learn` requests may insert verified-correct submissions
    /// into the cluster index.
    pub learn: bool,
    /// This process's position in the fleet; requests for problems owned by
    /// another shard are rejected with a routing error.
    pub shard: ShardSpec,
    /// Engine configuration used for analysis and repair.
    pub clara: ClaraConfig,
    /// Slow-request threshold in milliseconds: requests at or above it —
    /// and failed requests — dump their full span tree as a structured log
    /// line. `Some(0)` dumps every request; `None` disables dumps.
    pub slow_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 4096,
            cache_stripes: 8,
            learn: true,
            shard: ShardSpec::solo(),
            clara: ClaraConfig::default(),
            slow_ms: None,
        }
    }
}

/// Monotonic service counters, exposed via `GET /health`, `GET /stats` and
/// the benchmark report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests handled (including malformed ones).
    pub requests: u64,
    /// Requests answered from the result cache (including batch-local
    /// duplicates).
    pub cache_hits: u64,
    /// Duplicates answered within one worker batch without a cache probe.
    pub batch_dedup: u64,
    /// Concurrent duplicates that waited for an in-flight computation
    /// instead of recomputing it (single-flight coalescing).
    pub coalesced: u64,
    /// Requests that ran the repair pipeline and produced a repair.
    pub repaired: u64,
    /// Requests whose submission was already correct.
    pub correct: u64,
    /// Analysable submissions for which no repair was found.
    pub no_repair: u64,
    /// Submissions rejected (syntax errors, unsupported features, unknown
    /// problems, malformed requests).
    pub errors: u64,
    /// Correct submissions inserted into the cluster index online (each
    /// insertion publishes a new index snapshot).
    pub learned: u64,
    /// Repairs that consulted the candidate retrieval index (pre-search).
    pub index_retrievals: u64,
    /// Retrievals that fell back to the full candidate scan (low overlap
    /// confidence, or the shortlist produced no repair).
    pub index_fallbacks: u64,
}

/// Per-problem counters for the stats endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStat {
    /// Problem name.
    pub problem: String,
    /// Language of the problem's submissions.
    pub lang: String,
    /// Requests routed to this problem shard.
    pub requests: u64,
    /// Snapshot generation of the problem's cluster index (bumps on every
    /// online insertion).
    pub generation: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    batch_dedup: AtomicU64,
    coalesced: AtomicU64,
    repaired: AtomicU64,
    correct: AtomicU64,
    no_repair: AtomicU64,
    errors: AtomicU64,
    learned: AtomicU64,
    index_retrievals: AtomicU64,
    index_fallbacks: AtomicU64,
}

/// The cached portion of a response (everything except per-request fields).
#[derive(Debug, Clone)]
struct CachedOutcome {
    status: Status,
    feedback: Vec<String>,
    cost: Option<i64>,
    error: Option<String>,
}

/// State of one in-flight computation slot.
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader finished; followers take the outcome.
    Done(CachedOutcome),
    /// The leader died (panicked) without completing; followers re-join and
    /// one of them becomes the new leader.
    Abandoned,
}

struct FlightSlot {
    state: Mutex<FlightState>,
    ready: Condvar,
}

/// Single-flight registry: at most one computation per cache key is in
/// flight at a time. Concurrent structural duplicates of a *novel*
/// submission — the measured cause of serve throughput bimodality, each one
/// recomputing the same ~1 s repair — instead wait for the leader's result.
#[derive(Default)]
struct Flights {
    inflight: Mutex<HashMap<u64, Arc<FlightSlot>>>,
}

/// What [`Flights::join`] resolved to.
enum Flight<'a> {
    /// This caller computes; it MUST settle the guard (drop = abandoned).
    Leader(FlightGuard<'a>),
    /// Another caller computed; here is its outcome.
    Coalesced(CachedOutcome),
}

/// The leader's obligation to publish an outcome. Dropping without
/// [`FlightGuard::complete`] (e.g. a panic unwinding through the repair
/// pipeline) marks the slot abandoned so waiting followers recompute
/// instead of hanging.
struct FlightGuard<'a> {
    flights: &'a Flights,
    key: u64,
    slot: Arc<FlightSlot>,
    settled: bool,
}

impl Flights {
    fn lock_map(&self) -> MutexGuard<'_, HashMap<u64, Arc<FlightSlot>>> {
        self.inflight.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// later callers block until the leader settles. An abandoned flight is
    /// re-joined until some leader completes.
    fn join(&self, key: u64) -> Flight<'_> {
        loop {
            let slot = {
                let mut map = self.lock_map();
                match map.entry(key) {
                    Entry::Vacant(entry) => {
                        let slot = Arc::new(FlightSlot {
                            state: Mutex::new(FlightState::Pending),
                            ready: Condvar::new(),
                        });
                        entry.insert(Arc::clone(&slot));
                        return Flight::Leader(FlightGuard { flights: self, key, slot, settled: false });
                    }
                    Entry::Occupied(entry) => Arc::clone(entry.get()),
                }
            };
            let mut state = slot.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = slot.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                    FlightState::Done(outcome) => return Flight::Coalesced(outcome.clone()),
                    FlightState::Abandoned => break,
                }
            }
        }
    }
}

impl FlightGuard<'_> {
    /// Publishes the leader's outcome and releases every follower.
    fn complete(mut self, outcome: CachedOutcome) {
        self.settle(FlightState::Done(outcome));
    }

    fn settle(&mut self, state: FlightState) {
        self.settled = true;
        // Unregister first: a caller arriving after this point starts a
        // fresh flight (and will hit the result cache anyway).
        self.flights.lock_map().remove(&self.key);
        *self.slot.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = state;
        self.slot.ready.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(FlightState::Abandoned);
        }
    }
}

/// One problem shard: the cluster store published through a snapshot cell.
/// Readers load the current snapshot lock-free; writers serialize on
/// `write`, build the successor store off-path and publish it.
struct ProblemShard {
    problem: Problem,
    cell: SnapshotCell<ClusterStore>,
    write: Mutex<()>,
    requests: AtomicU64,
}

/// The snapshot-fronted, sharded feedback service.
pub struct FeedbackService {
    shards: Vec<ProblemShard>,
    by_problem: HashMap<String, usize>,
    cache: StripedCache<CachedOutcome>,
    flights: Flights,
    counters: Counters,
    config: ServiceConfig,
}

impl FeedbackService {
    /// Builds a service from per-problem cluster stores.
    pub fn new(stores: Vec<ClusterStore>, config: ServiceConfig) -> Self {
        let shards: Vec<ProblemShard> = stores
            .into_iter()
            .map(|store| ProblemShard {
                problem: store.problem().clone(),
                cell: SnapshotCell::new(store),
                write: Mutex::new(()),
                requests: AtomicU64::new(0),
            })
            .collect();
        let by_problem = shards.iter().enumerate().map(|(i, s)| (s.problem.name.to_owned(), i)).collect();
        // Stage timers in the core pipeline feed the process-wide latency
        // histograms from here on.
        obs::install_stage_metrics();
        FeedbackService {
            shards,
            by_problem,
            cache: StripedCache::new(config.cache_capacity, config.cache_stripes),
            flights: Flights::default(),
            counters: Counters::default(),
            config,
        }
    }

    /// The problems this service can answer for.
    pub fn problems(&self) -> Vec<&Problem> {
        self.shards.iter().map(|s| &s.problem).collect()
    }

    /// This process's position in the fleet.
    pub fn shard_spec(&self) -> ShardSpec {
        self.config.shard
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            batch_dedup: self.counters.batch_dedup.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            repaired: self.counters.repaired.load(Ordering::Relaxed),
            correct: self.counters.correct.load(Ordering::Relaxed),
            no_repair: self.counters.no_repair.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            learned: self.counters.learned.load(Ordering::Relaxed),
            index_retrievals: self.counters.index_retrievals.load(Ordering::Relaxed),
            index_fallbacks: self.counters.index_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Per-problem request counts and index generations.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shards
            .iter()
            .map(|shard| ShardStat {
                problem: shard.problem.name.to_owned(),
                lang: shard.problem.lang.to_string(),
                requests: shard.requests.load(Ordering::Relaxed),
                generation: shard.cell.generation(),
            })
            .collect()
    }

    /// The highest index-snapshot generation across the problem shards
    /// (0 until the first online insertion).
    pub fn snapshot_generation(&self) -> u64 {
        self.shards.iter().map(|s| s.cell.generation()).max().unwrap_or(0)
    }

    /// Persists every shard's cluster index under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the first save failure.
    pub fn save_indexes(&self, dir: &std::path::Path) -> Result<(), crate::store::StoreError> {
        for shard in &self.shards {
            shard.cell.load().data().save(dir)?;
        }
        Ok(())
    }

    /// Handles one request synchronously (a batch of one).
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_batch(std::slice::from_ref(request)).pop().expect("one response per request")
    }

    /// Handles a batch of requests, answering each in order. A worker
    /// draining `K` queued requests calls this once: each shard's snapshot
    /// is resolved once for the whole batch, and structurally identical
    /// submissions within the batch are computed once (the duplicates are
    /// answered from the first result and marked as cache hits).
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Response> {
        // Snapshots resolved so far in this batch, by shard index. Loading
        // is cheap (two atomics) but not free; a batch of duplicates for a
        // hot problem resolves it once.
        let mut snapshots: HashMap<usize, Arc<Snapshot<ClusterStore>>> = HashMap::new();
        // Cache key -> index into `responses` of the first computation.
        let mut computed: HashMap<u64, usize> = HashMap::new();
        let mut responses: Vec<Response> = Vec::with_capacity(requests.len());

        for request in requests {
            let start = Instant::now();
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            // The trace id arrives with the request (router-forwarded or
            // client-chosen) or is minted here at ingress for direct traffic.
            let trace = obs::trace_or_mint(request.trace.as_deref());
            let (mut response, spans) =
                timing::collect(|| self.handle_one(request, &mut snapshots, &mut computed, &responses));
            response.id = request.id;
            response.elapsed_us = start.elapsed().as_micros() as u64;
            response.trace = Some(trace.clone());
            match response.status {
                Status::Correct => &self.counters.correct,
                Status::Repaired => &self.counters.repaired,
                Status::NoRepair => &self.counters.no_repair,
                Status::Error => &self.counters.errors,
            }
            .fetch_add(1, Ordering::Relaxed);
            self.observe(request, &response, &spans, &trace);
            responses.push(response);
        }
        responses
    }

    /// Records the request in the metrics registry and dumps its span tree
    /// when it was slow or failed (per `slow_ms`).
    fn observe(&self, request: &Request, response: &Response, spans: &[timing::Span], trace: &str) {
        let registry = Registry::global();
        registry
            .counter(
                "clara_requests_total",
                &[("problem", &request.problem), ("status", response.status.as_str())],
            )
            .inc();
        registry
            .histogram("clara_request_duration_us", &[("status", response.status.as_str())])
            .record(response.elapsed_us);
        let failed = response.status == Status::Error;
        let dump =
            self.config.slow_ms.is_some_and(|ms| failed || response.elapsed_us >= ms.saturating_mul(1_000));
        if dump {
            obs::log(if failed { "warn" } else { "info" }, "slow_request")
                .str_field("trace_id", trace)
                .str_field("problem", &request.problem)
                .str_field("status", response.status.as_str())
                .num_field("elapsed_us", response.elapsed_us)
                .raw_field("cache_hit", if response.cache_hit { "true" } else { "false" })
                .raw_field("spans", &obs::spans_json(spans))
                .emit();
        }
    }

    fn handle_one(
        &self,
        request: &Request,
        snapshots: &mut HashMap<usize, Arc<Snapshot<ClusterStore>>>,
        computed: &mut HashMap<u64, usize>,
        responses: &[Response],
    ) -> Response {
        let Some(&shard_index) = self.by_problem.get(&request.problem) else {
            let spec = self.config.shard;
            let detail = if spec.is_solo() {
                String::from("see `clara-cli problems`")
            } else {
                format!("not loaded on shard {spec}; check the fleet routing")
            };
            return Response::error(request.id, format!("unknown problem `{}` ({detail})", request.problem));
        };
        let shard = &self.shards[shard_index];
        shard.requests.fetch_add(1, Ordering::Relaxed);
        let lang = shard.problem.lang;

        // The language tag is validation: each problem has exactly one
        // language, and a contradicting tag is a client error worth naming
        // (not a confusing downstream syntax error).
        if let Some(tag) = &request.lang {
            match Lang::from_tag(tag) {
                Some(requested) if requested == lang => {}
                Some(requested) => {
                    return Response::error(
                        request.id,
                        format!("problem `{}` expects {lang} submissions, not {requested}", request.problem),
                    );
                }
                None => {
                    return Response::error(request.id, format!("unknown language tag `{tag}`"));
                }
            }
        }

        // Unparseable submissions have no structural hash and bypass the
        // cache; parsing is also the cheapest stage, so this costs little.
        let parsed = {
            let _timer = StageTimer::start(Stage::Parse);
            frontend(lang).parse(&request.source)
        };
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(request.id, format!("syntax error: {e}")),
        };

        // One snapshot resolution per shard per batch; everything below runs
        // against this immutable index without any lock.
        let snapshot = {
            let _timer = StageTimer::start(Stage::SnapshotResolve);
            Arc::clone(snapshots.entry(shard_index).or_insert_with(|| self.shards[shard_index].cell.load()))
        };
        let key = cache_key(shard_index, snapshot.generation(), lang, parsed.structural_hash());

        // Batch-local dedup: a structurally identical submission earlier in
        // this batch already computed the outcome — answer from it without
        // even probing the cache. Learn requests fall through (the index
        // insertion must still happen).
        if !request.learn.unwrap_or(false) {
            if let Some(&first) = computed.get(&key) {
                let first = &responses[first];
                self.counters.batch_dedup.fetch_add(1, Ordering::Relaxed);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Response {
                    id: request.id,
                    status: first.status,
                    feedback: first.feedback.clone(),
                    cost: first.cost,
                    cache_hit: true,
                    learned: false,
                    error: first.error.clone(),
                    elapsed_us: 0,
                    trace: None,
                };
            }
        }

        let probed = {
            let _timer = StageTimer::start(Stage::CacheProbe);
            self.cache.get(key)
        };
        if let Some(cached) = probed {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            // A cache hit answers the *feedback* question, but a learn
            // request must still reach the index — the first occurrence may
            // have been cached without the learn flag.
            let learned =
                cached.status == Status::Correct && self.learn_if_requested(request, shard, parsed.as_ref());
            return Response {
                id: request.id,
                status: cached.status,
                feedback: cached.feedback,
                cost: cached.cost,
                cache_hit: true,
                learned,
                error: cached.error,
                elapsed_us: 0,
                trace: None,
            };
        }

        let compute = || {
            if parsed.passes(&shard.problem.spec) {
                CachedOutcome { status: Status::Correct, feedback: Vec::new(), cost: None, error: None }
            } else {
                // The repair runs against the immutable snapshot: no read
                // lock, so a concurrent learn (publishing a successor index)
                // never stalls this — the answer reflects the snapshot's
                // generation.
                match snapshot.data().engine().repair_parsed(parsed.as_ref()) {
                    Ok(outcome) => {
                        self.record_retrieval(&outcome.result);
                        let status =
                            if outcome.result.best.is_some() { Status::Repaired } else { Status::NoRepair };
                        CachedOutcome {
                            status,
                            feedback: outcome.feedback.lines(),
                            cost: outcome.result.best.as_ref().map(|r| r.total_cost),
                            error: None,
                        }
                    }
                    Err(err) => {
                        let label = if err.is_syntax_error() { "syntax error" } else { "unsupported" };
                        CachedOutcome {
                            status: Status::Error,
                            feedback: Vec::new(),
                            cost: None,
                            error: Some(format!("{label}: {err}")),
                        }
                    }
                }
            }
        };

        // Single-flight: concurrent workers computing the same key share
        // one computation. The first joiner leads and computes; the rest
        // block on the slot (the ~1 s repair dominates the wait) and take
        // the leader's outcome instead of recomputing it.
        let (outcome, coalesced) = match self.flights.join(key) {
            Flight::Coalesced(outcome) => {
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                (outcome, true)
            }
            Flight::Leader(guard) => {
                let outcome = compute();
                guard.complete(outcome.clone());
                (outcome, false)
            }
        };

        // Online clustering (§2): verified-correct submissions grow the
        // index when the client asks for it and the service allows it. Runs
        // per request, never under the flight slot: a coalesced learn must
        // still insert, and the leader must not hold followers hostage to
        // the writer mutex.
        let learned =
            outcome.status == Status::Correct && self.learn_if_requested(request, shard, parsed.as_ref());

        if !coalesced {
            // Repair is deterministic given the index snapshot, and the
            // generation is part of the key: feedback computed against
            // generation `g` is only ever served to requests that resolved
            // generation `g`. A learn that published `g+1` (possibly our
            // own, just above) leaves entries keyed at `g` unreachable —
            // they age out of the LRU instead of serving stale feedback.
            let insert_key = if learned {
                cache_key(shard_index, shard.cell.generation(), lang, parsed.structural_hash())
            } else {
                key
            };
            self.cache.insert(insert_key, outcome.clone());
            computed.insert(insert_key, responses.len());
        }

        Response {
            id: request.id,
            status: outcome.status,
            feedback: outcome.feedback,
            cost: outcome.cost,
            cache_hit: coalesced,
            learned,
            error: outcome.error,
            elapsed_us: 0,
            trace: None,
        }
    }

    /// Reports how the candidate pre-search behaved on one computed repair:
    /// service counters for `/stats`, plus a labelled counter and the
    /// examined-candidate-set-size histogram in the global registry (both
    /// fleet-mergeable, rendered by `GET /metrics`).
    fn record_retrieval(&self, result: &clara_core::RepairResult) {
        let Some(retrieval) = &result.retrieval else { return };
        self.counters.index_retrievals.fetch_add(1, Ordering::Relaxed);
        if retrieval.fell_back {
            self.counters.index_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let outcome = if retrieval.fell_back {
            "fallback"
        } else if retrieval.shortlisted < retrieval.control_flow_candidates {
            "shortlisted"
        } else {
            "full_scan"
        };
        Registry::global().counter("clara_index_retrievals_total", &[("outcome", outcome)]).inc();
        Registry::global()
            .histogram("clara_index_candidates_examined", &[])
            .record(result.candidate_clusters as u64);
    }

    /// Inserts a verified-correct submission into the shard's cluster index
    /// when the request asks for it and learning is enabled. The insertion
    /// is copy-on-write: the successor store is built off-path under the
    /// shard's writer mutex and published with one pointer swap, so readers
    /// never block. `parsed` is the request's own parse, reused for the
    /// insertion. Returns whether an insertion happened.
    fn learn_if_requested(
        &self,
        request: &Request,
        shard: &ProblemShard,
        parsed: &dyn ParsedSubmission,
    ) -> bool {
        if !(self.config.learn && request.learn.unwrap_or(false)) {
            return false;
        }
        let _timer = StageTimer::start(Stage::Learn);
        // Writers serialize here; the snapshot cell itself only orders
        // publishes, not the read-modify-write around them. A poisoned lock
        // (a panicked writer) must not take the shard's learns down with it:
        // the store itself is copy-on-write, so the guard data is always
        // consistent.
        let _writer = shard.write.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let current = shard.cell.load();
        match current.data().with_learned_parsed(&request.source, parsed) {
            Ok((next, _cluster)) => {
                shard.cell.publish(next);
                self.counters.learned.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Cache hit/miss counters of the result cache (misses exclude the
    /// batch-local duplicates answered without a probe).
    pub fn cache_counters(&self) -> (u64, u64) {
        self.cache.counters()
    }
}

/// Combines the shard index, index-snapshot generation, language and
/// structural hash into one cache key. The language participates so that a
/// MiniPy and a MiniC submission can never collide, whatever their
/// per-frontend hashes do; the generation participates so that publishing a
/// new index invalidates the shard's entries by construction.
fn cache_key(shard_index: usize, generation: u64, lang: Lang, structural_hash: u64) -> u64 {
    // splitmix64-style mixing so that every input disturbs all bits.
    let salt =
        (shard_index as u64) ^ ((lang as u64 + 1) << 56) ^ generation.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut x = structural_hash ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_corpus::mooc::derivatives;

    fn service() -> FeedbackService {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        FeedbackService::new(vec![store], ServiceConfig::default())
    }

    fn request(id: u64, source: &str) -> Request {
        Request {
            id,
            problem: "derivatives".to_owned(),
            lang: None,
            source: source.to_owned(),
            learn: None,
            trace: None,
        }
    }

    const INCORRECT: &str = "\
def computeDeriv(poly):
    new = []
    for i in xrange(1,len(poly)):
        new.append(float(i*poly[i]))
    if new==[]:
        return 0.0
    return new
";

    #[test]
    fn incorrect_attempts_get_repair_feedback() {
        let service = service();
        let response = service.handle(&request(1, INCORRECT));
        assert_eq!(response.status, Status::Repaired);
        assert!(!response.feedback.is_empty());
        assert!(response.cost.unwrap() > 0);
        assert!(!response.cache_hit);
    }

    #[test]
    fn duplicate_submissions_hit_the_cache_with_identical_feedback() {
        let service = service();
        let first = service.handle(&request(1, INCORRECT));
        // Same program, different formatting — structurally identical.
        let reformatted = INCORRECT.replace("    if new==[]:", "\n    if new==[]:");
        let second = service.handle(&request(2, &reformatted));
        assert!(second.cache_hit, "structural duplicate must hit the cache");
        assert_eq!(second.feedback, first.feedback);
        assert_eq!(second.cost, first.cost);
        assert_eq!(second.id, 2);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn correct_submissions_are_recognised_and_learned() {
        let service = service();
        let problem = derivatives();
        let mut learn_request = request(1, problem.seeds[1]);
        learn_request.learn = Some(true);
        let response = service.handle(&learn_request);
        assert_eq!(response.status, Status::Correct);
        assert!(response.learned);
        assert_eq!(service.stats().learned, 1);
        // The insertion published a new index snapshot.
        assert_eq!(service.snapshot_generation(), 1);
    }

    #[test]
    fn learn_requests_reach_the_index_even_on_cache_hits() {
        // Regression: the first occurrence is cached *without* the learn
        // flag; a later structurally identical request with learn:true must
        // still be inserted.
        let service = service();
        let problem = derivatives();
        let plain = service.handle(&request(1, problem.seeds[1]));
        assert_eq!(plain.status, Status::Correct);
        assert!(!plain.learned);
        let mut learn_request = request(2, problem.seeds[1]);
        learn_request.learn = Some(true);
        let hit = service.handle(&learn_request);
        assert!(hit.cache_hit);
        assert!(hit.learned, "learn must not be swallowed by the cache");
        assert_eq!(service.stats().learned, 1);
    }

    #[test]
    fn learning_publishes_a_new_snapshot_and_rotates_cache_keys() {
        // The generation participates in the cache key: after an online
        // insertion the shard's cached outcomes stop being addressable, so
        // later duplicates recompute against the new index instead of
        // serving feedback from the superseded one.
        let service = service();
        let problem = derivatives();
        let first = service.handle(&request(1, INCORRECT));
        assert!(!first.cache_hit);
        let hit = service.handle(&request(2, INCORRECT));
        assert!(hit.cache_hit, "pre-learn duplicate hits");

        let mut learn = request(3, problem.seeds[1]);
        learn.learn = Some(true);
        assert!(service.handle(&learn).learned);
        assert_eq!(service.snapshot_generation(), 1);

        let after = service.handle(&request(4, INCORRECT));
        assert!(!after.cache_hit, "the learn must invalidate the shard's cached outcomes");
        let again = service.handle(&request(5, INCORRECT));
        assert!(again.cache_hit, "the recomputed outcome is cached under the new generation");
    }

    #[test]
    fn batches_compute_structural_duplicates_once() {
        let service = service();
        let reformatted = INCORRECT.replace("    if new==[]:", "\n    if new==[]:");
        let other = "def computeDeriv(poly):\n    return poly\n";
        let batch =
            [request(1, INCORRECT), request(2, &reformatted), request(3, other), request(4, INCORRECT)];
        let responses = service.handle_batch(&batch);
        assert_eq!(responses.len(), 4);
        assert_eq!(responses.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert!(!responses[0].cache_hit);
        assert!(responses[1].cache_hit, "batch-local duplicate");
        assert!(!responses[2].cache_hit, "distinct program computes");
        assert!(responses[3].cache_hit);
        assert_eq!(responses[1].feedback, responses[0].feedback);
        assert_eq!(responses[3].feedback, responses[0].feedback);
        let stats = service.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.cache_hits, 2);
        assert!(stats.batch_dedup >= 1, "at least one duplicate answered batch-locally");
    }

    #[test]
    fn concurrent_duplicates_of_a_novel_submission_coalesce() {
        // Four threads submit the same novel incorrect program at once. The
        // leader runs the ~1 s repair; the other three must share it via
        // single-flight (or, if they lose the race entirely, via the result
        // cache) — the repair pipeline runs exactly once.
        let service = Arc::new(service());
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.handle(&request(t, INCORRECT))
                })
            })
            .collect();
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for response in &responses {
            assert_eq!(response.status, Status::Repaired, "{:?}", response.error);
            assert_eq!(response.feedback, responses[0].feedback);
        }
        let stats = service.stats();
        assert_eq!(stats.coalesced + stats.cache_hits, 3, "exactly one computation for four requests");
        assert!(stats.coalesced >= 1, "concurrent duplicates must coalesce: {stats:?}");
        assert_eq!(responses.iter().filter(|r| !r.cache_hit).count(), 1);
    }

    #[test]
    fn abandoned_flights_release_their_followers() {
        // A leader that dies without completing (panic in the repair
        // pipeline) must not strand followers: they re-join and recompute.
        let flights = Arc::new(Flights::default());
        let Flight::Leader(guard) = flights.join(7) else {
            panic!("first joiner must lead");
        };
        let follower = std::thread::spawn({
            let flights = Arc::clone(&flights);
            move || match flights.join(7) {
                Flight::Leader(guard) => {
                    guard.complete(CachedOutcome {
                        status: Status::Correct,
                        feedback: Vec::new(),
                        cost: None,
                        error: None,
                    });
                    true
                }
                Flight::Coalesced(_) => false,
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard); // leader dies without completing
        assert!(follower.join().unwrap(), "follower must take over an abandoned flight");
        assert!(flights.lock_map().is_empty(), "settled flights unregister");
    }

    #[test]
    fn responses_echo_or_mint_trace_ids_and_report_elapsed() {
        let service = service();
        let mut traced = request(1, INCORRECT);
        traced.trace = Some("00c0ffee00c0ffee".to_owned());
        let response = service.handle(&traced);
        assert_eq!(response.trace.as_deref(), Some("00c0ffee00c0ffee"), "client trace ids are echoed");
        assert!(response.elapsed_us > 0, "a real repair takes measurable time");

        let minted = service.handle(&request(2, INCORRECT)).trace.expect("a trace id is always assigned");
        assert_eq!(minted.len(), 16);
        assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "minted ids are hex: {minted}");

        // Error responses carry a trace and a real elapsed time too.
        let error = service.handle(&request(3, "def broken(:\n"));
        assert_eq!(error.status, Status::Error);
        assert!(error.trace.is_some());
    }

    #[test]
    fn per_shard_request_counts_are_tracked() {
        let service = service();
        let _ = service.handle(&request(1, INCORRECT));
        let _ = service.handle(&request(2, INCORRECT));
        let shard_stats = service.shard_stats();
        assert_eq!(shard_stats.len(), 1);
        assert_eq!(shard_stats[0].problem, "derivatives");
        assert_eq!(shard_stats[0].requests, 2);
        assert_eq!(shard_stats[0].generation, 0);
    }

    #[test]
    fn minic_shards_serve_c_submissions_with_c_feedback() {
        let problem = clara_corpus::minic::fibonacci_c();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, usable) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        assert!(usable >= 2, "C seeds must cluster");
        let service = FeedbackService::new(vec![store], ServiceConfig::default());
        let buggy = clara_corpus::minic::fibonacci_c_incorrect()[0];
        let response = service.handle(&Request {
            id: 1,
            problem: "fibonacci_c".to_owned(),
            lang: Some("c".to_owned()),
            source: buggy.to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(response.status, Status::Repaired, "{:?}", response.error);
        let text = response.feedback.join("\n");
        assert!(text.contains("<="), "feedback should show the C condition repair: {text}");
        assert!(!text.contains(" and "), "C feedback must not use Python operators: {text}");
        // Correct submissions are recognised through model-execution grading.
        let correct = service.handle(&Request {
            id: 2,
            problem: "fibonacci_c".to_owned(),
            lang: None,
            source: problem.seeds[1].to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(correct.status, Status::Correct);
        // Structural duplicates (reformatted C) hit the cache.
        let dup = service.handle(&Request {
            id: 3,
            problem: "fibonacci_c".to_owned(),
            lang: None,
            source: buggy.replace("    int a = 1;", "    /* init */\n    int a = 1;"),
            learn: None,
            trace: None,
        });
        assert!(dup.cache_hit, "reformatted C submission must hit the cache");
        assert_eq!(dup.feedback, response.feedback);
    }

    #[test]
    fn matching_language_tags_pass_validation() {
        let service = service();
        let mut request = request(1, "def computeDeriv(poly):\n    return poly\n");
        request.lang = Some("python".to_owned());
        let response = service.handle(&request);
        assert_ne!(response.status, Status::Error, "{:?}", response.error);
    }

    #[test]
    fn contradicting_or_unknown_language_tags_are_rejected() {
        let service = service();
        let mut request = request(1, "def computeDeriv(poly):\n    return poly\n");
        request.lang = Some("c".to_owned());
        let response = service.handle(&request);
        assert_eq!(response.status, Status::Error);
        assert!(response.error.unwrap().contains("expects minipy submissions"), "wrong-lang error");
        request.lang = Some("cobol".to_owned());
        let response = service.handle(&request);
        assert_eq!(response.status, Status::Error);
        assert!(response.error.unwrap().contains("unknown language tag"));
    }

    #[test]
    fn cache_keys_are_salted_by_shard_lang_and_generation() {
        // Two structurally identical programs in different languages must
        // never share a cache entry: the per-frontend structural hashes are
        // independent hash spaces, so even an accidental collision between a
        // MiniPy and a MiniC hash must be separated by the language salt.
        for hash in [0u64, 1, 0xDEADBEEF, u64::MAX] {
            assert_ne!(
                cache_key(0, 0, Lang::MiniPy, hash),
                cache_key(0, 0, Lang::MiniC, hash),
                "lang salt missing for hash {hash:#x}"
            );
            // Different shards (problems) never share entries either.
            assert_ne!(cache_key(0, 0, Lang::MiniPy, hash), cache_key(1, 0, Lang::MiniPy, hash));
            // Publishing a new index generation rotates the keys.
            assert_ne!(cache_key(0, 0, Lang::MiniPy, hash), cache_key(0, 1, Lang::MiniPy, hash));
        }
        // The key still depends on the hash itself.
        assert_ne!(cache_key(0, 0, Lang::MiniPy, 1), cache_key(0, 0, Lang::MiniPy, 2));
    }

    #[test]
    fn result_cache_eviction_is_observable_and_correct() {
        // A capacity-1, single-stripe cache: the second distinct submission
        // evicts the first, so resubmitting the first misses (and recomputes
        // the same feedback); resubmitting the still-cached entry hits.
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let config = ServiceConfig { cache_capacity: 1, cache_stripes: 1, ..ServiceConfig::default() };
        let service = FeedbackService::new(vec![store], config);

        let other = "def computeDeriv(poly):\n    return poly\n";
        let first = service.handle(&request(1, INCORRECT));
        assert!(!first.cache_hit);
        let second = service.handle(&request(2, other));
        assert!(!second.cache_hit);
        // INCORRECT was evicted by `other`.
        let third = service.handle(&request(3, INCORRECT));
        assert!(!third.cache_hit, "evicted entry must not hit");
        assert_eq!(third.feedback, first.feedback, "recomputed feedback is identical");
        assert_eq!(third.cost, first.cost);
        // `other` was evicted in turn by the INCORRECT recomputation.
        let fourth = service.handle(&request(4, other));
        assert!(!fourth.cache_hit);
        // ... and INCORRECT again misses, but an immediate duplicate hits.
        let fifth = service.handle(&request(5, INCORRECT));
        assert!(!fifth.cache_hit);
        let sixth = service.handle(&request(6, INCORRECT));
        assert!(sixth.cache_hit);
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn sharded_services_name_the_shard_in_routing_errors() {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let config = ServiceConfig { shard: ShardSpec { index: 1, count: 4 }, ..ServiceConfig::default() };
        let service = FeedbackService::new(vec![store], config);
        let response = service.handle(&Request {
            id: 1,
            problem: "not_here".to_owned(),
            lang: None,
            source: "def f(x):\n    return x\n".to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(response.status, Status::Error);
        let message = response.error.unwrap();
        assert!(message.contains("shard 1/4"), "routing errors name the shard: {message}");
    }

    #[test]
    fn pathological_submissions_are_rejected_not_crashed() {
        let service = service();
        let garbage = service.handle(&request(1, "def broken(:\n    return ][\n"));
        assert_eq!(garbage.status, Status::Error);
        assert!(garbage.error.unwrap().contains("syntax error"));
        let unknown = service.handle(&Request {
            id: 2,
            problem: "nope".to_owned(),
            lang: None,
            source: "def f(x):\n    return x\n".to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(unknown.status, Status::Error);
        assert!(unknown.error.unwrap().contains("unknown problem"));
        let unsupported = service.handle(&request(
            3,
            "def helper(x):\n    return x\n\ndef computeDeriv(poly):\n    return helper(poly)\n",
        ));
        assert_eq!(unsupported.status, Status::Error);
        assert!(unsupported.error.unwrap().contains("unsupported"));
    }

    #[test]
    fn concurrent_learns_and_repairs_do_not_block_each_other() {
        // Readers run repairs against immutable snapshots while a writer
        // thread publishes successive index generations; every response must
        // be well-formed and the final generation must count every learn.
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds[..2].iter().copied(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));

        let writer = {
            let service = Arc::clone(&service);
            let sources: Vec<String> = seeds.iter().skip(2).take(3).map(|s| (*s).to_owned()).collect();
            std::thread::spawn(move || {
                for (i, source) in sources.iter().enumerate() {
                    let mut learn = Request {
                        id: 100 + i as u64,
                        problem: "derivatives".to_owned(),
                        lang: None,
                        source: source.clone(),
                        learn: Some(true),
                        trace: None,
                    };
                    learn.learn = Some(true);
                    let response = service.handle(&learn);
                    assert_ne!(response.status, Status::Error, "{:?}", response.error);
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..4u64 {
                        let response = service.handle(&request(t * 10 + i, INCORRECT));
                        assert!(
                            matches!(response.status, Status::Repaired | Status::NoRepair),
                            "{:?}",
                            response.error
                        );
                    }
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        let generation = service.snapshot_generation();
        assert_eq!(generation as usize, service.stats().learned as usize);
        assert!(generation >= 1, "at least one learn must land");
    }
}
