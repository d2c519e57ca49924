//! The three request streams, generated from a seed, and the expected
//! class of every request, assigned from outside the service.
//!
//! Each workload is a fixed tape — correct pools plus the sequence of
//! submissions students send — and the seed picks where on the tape the
//! replay starts. The same `(name, seed)` always yields the byte-identical
//! stream, so the verdict digest of the traced run depends on the code
//! under test and the seed only, never on how fast the run went.
//!
//! The tape does not move with the seed on purpose. The adversarial
//! population is heavy-tailed (one diverging attempt can cost more than a
//! hundred ordinary ones) and a Zipf head decides most of the MOOC stream's
//! work. Re-drawing or re-shuffling per seed made the spread between seeds
//! measure the draw instead of the code. On `mooc_zipf` even the start
//! position does (learns and repeats change order), so there the seed moves
//! the start within a short window only.

use std::collections::{HashMap, HashSet};

use clara_corpus::{
    all_problems_all_langs, correct_pool, derive_multi_fault_mutants, derive_mutants, empty_attempt,
    frontend_for, generate_dataset_for, generate_workload, mutate::classify, unsupported_attempt,
    DatasetConfig, MultiFaultConfig, MutantBucket, MutationConfig, Problem, RequestKind, WorkloadConfig,
};
use clara_model::frontend::Lang;
use clara_server::Request;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Correct solutions per problem in the indexes of `mooc_zipf` and
/// `adversarial` (the paper-scale pool).
const SMALL_POOL: usize = 60;
/// Correct solutions generated for the persisted `fresh_large_pool` index.
/// On a 2-core x86-64 box its warm load takes 2–3 s, most of it JSON
/// parsing: visible, not dominant.
const LARGE_POOL: usize = 200;
/// Requests of the `mooc_zipf` stream.
const ZIPF_REQUESTS: usize = 2000;
/// Positions of the `mooc_zipf` tape the replay may start at. Where the
/// replay starts decides which submissions are learned before which
/// repeats, and so how many expensive repairs are recomputed: over the
/// whole tape, seeds 1–7 of the same code read 276–354 req/s. The seed
/// moves the start within the first few requests of the day instead.
const ZIPF_START_WINDOW: usize = 16;
/// Requests of the `fresh_large_pool` stream.
const FRESH_REQUESTS: usize = 340;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Duplicate-heavy Zipf MOOC traffic over all 12 problems, with learns.
    MoocZipf,
    /// Distinct wrong-answer attempts against a warm-loaded large pool.
    FreshLargePool,
    /// Diverging, structure-divergent and pathological submissions.
    Adversarial,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 3] =
        [WorkloadName::MoocZipf, WorkloadName::FreshLargePool, WorkloadName::Adversarial];

    /// The name used on the command line and in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::MoocZipf => "mooc_zipf",
            WorkloadName::FreshLargePool => "fresh_large_pool",
            WorkloadName::Adversarial => "adversarial",
        }
    }

    /// The inverse of [`WorkloadName::as_str`].
    pub fn parse(name: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.as_str() == name)
    }

    /// Whether set-up warm-loads a persisted index (`ClusterStore::load`)
    /// instead of clustering the pool from scratch.
    pub fn warm_loads(self) -> bool {
        self == WorkloadName::FreshLargePool
    }
}

/// What the service must answer for a request, decided before the run from
/// the problem's grader and frontend alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Passes the grading suite: the answer is `correct`.
    Correct,
    /// Parses, lowers to the program model and fails the suite: the answer
    /// is `repaired` or `no_repair`.
    Incorrect,
    /// Does not parse or cannot be lowered: the answer is `error`.
    Unanalysable,
}

impl Class {
    /// Report name of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Correct => "correct",
            Class::Incorrect => "analysable_incorrect",
            Class::Unanalysable => "unanalysable",
        }
    }
}

/// One request of a stream plus what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct BenchRequest {
    /// The request exactly as sent (its `id` is the stream position).
    pub request: Request,
    /// Expected class.
    pub class: Class,
    /// The population the request was drawn from (for reports).
    pub origin: &'static str,
}

/// A generated workload: the problems it serves, each problem's correct
/// pool, and the request stream.
pub struct Workload {
    /// Which workload this is.
    pub name: WorkloadName,
    /// The seed it was generated from.
    pub seed: u64,
    /// The served problems.
    pub problems: Vec<Problem>,
    /// Correct pool per problem (parallel to `problems`).
    pub pools: Vec<Vec<String>>,
    /// The request stream, in send order.
    pub requests: Vec<BenchRequest>,
}

/// Seed of every workload's corpus.
const CORPUS_SEED: u64 = 0x000C_1A7A_2018;

/// Distinct salts keep the workloads' RNG streams independent for one seed.
fn rng_for(name: WorkloadName, seed: u64) -> ChaCha8Rng {
    let salt = match name {
        WorkloadName::MoocZipf => 0x7A1F_0000_0000_0001,
        WorkloadName::FreshLargePool => 0x7A1F_0000_0000_0002,
        WorkloadName::Adversarial => 0x7A1F_0000_0000_0003,
    };
    ChaCha8Rng::seed_from_u64(seed ^ salt)
}

/// Generates workload `name` from `seed`.
pub fn generate(name: WorkloadName, seed: u64) -> Workload {
    match name {
        WorkloadName::MoocZipf => mooc_zipf(seed),
        WorkloadName::FreshLargePool => fresh_large_pool(seed),
        WorkloadName::Adversarial => adversarial(seed),
    }
}

/// The correct pools of the small-pool workloads: `SMALL_POOL` generated
/// solutions per problem.
fn small_pools(problems: &[Problem], seed: u64) -> Vec<Vec<String>> {
    let config =
        DatasetConfig { correct_count: SMALL_POOL, incorrect_count: 0, seed, ..DatasetConfig::default() };
    problems
        .iter()
        .map(|p| generate_dataset_for(p, config).correct.into_iter().map(|a| a.source).collect())
        .collect()
}

fn mooc_zipf(seed: u64) -> Workload {
    let mut corpus = rng_for(WorkloadName::MoocZipf, CORPUS_SEED);
    let problems = all_problems_all_langs();
    let pools = small_pools(&problems, corpus.next_u64());
    // The submissions students send come from a second corpus draw, so
    // correct submissions are mostly new to the index and learning them
    // grows it.
    let traffic = DatasetConfig {
        correct_count: 10,
        incorrect_count: 12,
        seed: corpus.next_u64(),
        ..DatasetConfig::default()
    };
    let datasets: Vec<_> = problems.iter().map(|p| generate_dataset_for(p, traffic)).collect();
    // One fixed traffic tape; the seed picks where the replay starts on it.
    let mut stream = generate_workload(
        &datasets,
        WorkloadConfig { requests: ZIPF_REQUESTS, seed: corpus.next_u64(), ..WorkloadConfig::default() },
    );
    start_at_seed(&mut stream, seed, ZIPF_START_WINDOW);
    let mut learned: HashSet<(String, String)> = HashSet::new();
    // Grading is the expensive part of classification; the Zipf head
    // repeats, so each distinct submission is graded once.
    let mut classes: HashMap<(String, String), Class> = HashMap::new();
    let requests = stream
        .into_iter()
        .enumerate()
        .map(|(id, w)| {
            let problem = problems.iter().find(|p| p.name == w.problem).expect("stream problem is served");
            let class = *classes
                .entry((w.problem.clone(), w.source.clone()))
                .or_insert_with(|| expected_class(problem, &w.source));
            // The first occurrence of each distinct correct submission asks
            // to be learned, as a MOOC front end would.
            let learn = class == Class::Correct && learned.insert((w.problem.clone(), w.source.clone()));
            let origin = match w.kind {
                RequestKind::Correct => "zipf_correct",
                RequestKind::Incorrect => "zipf_incorrect",
                RequestKind::Garbage | RequestKind::Unsupported | RequestKind::Empty => "pathological",
            };
            BenchRequest { request: request(id, problem, w.source, learn), class, origin }
        })
        .collect();
    Workload { name: WorkloadName::MoocZipf, seed, problems, pools, requests }
}

fn fresh_large_pool(seed: u64) -> Workload {
    let mut corpus = rng_for(WorkloadName::FreshLargePool, CORPUS_SEED);
    let problem = clara_corpus::mooc::derivatives();
    let pool = correct_pool(&problem, LARGE_POOL, corpus.next_u64());
    let mut seen = Distinct::default();
    let mut sources: Vec<(String, &'static str)> = Vec::new();
    // Single-fault wrong answers (the engine's catalog has no structural
    // operator) of the hand-written seeds first, then of pool solutions
    // until the stream is full. The engine mutates a problem's `seeds`,
    // which are `'static`; the pool's copies live for the whole run anyway.
    let pool_problem = Problem {
        seeds: pool.iter().map(|s| &*Box::leak(s.clone().into_boxed_str())).collect(),
        ..problem.clone()
    };
    for (origin, donor) in [("seed_mutant", &problem), ("pool_mutant", &pool_problem)] {
        let (mutants, _) = derive_mutants(
            donor,
            &MutationConfig {
                seed: corpus.next_u64(),
                target_wrong_answer: FRESH_REQUESTS,
                max_attempts: 4_000,
            },
        );
        for mutant in mutants {
            if sources.len() == FRESH_REQUESTS {
                break;
            }
            if mutant.bucket == MutantBucket::WrongAnswer && seen.insert(&problem, &mutant.source) {
                sources.push((mutant.source, origin));
            }
        }
    }
    assert_eq!(sources.len(), FRESH_REQUESTS, "the mutation engine ran dry");
    shuffle(&mut sources, &mut corpus);
    start_at_seed(&mut sources, seed, usize::MAX);
    let requests = sources
        .into_iter()
        .enumerate()
        .map(|(id, (source, origin))| BenchRequest {
            class: expected_class(&problem, &source),
            request: request(id, &problem, source, false),
            origin,
        })
        .collect();
    Workload {
        name: WorkloadName::FreshLargePool,
        seed,
        problems: vec![problem],
        pools: vec![pool],
        requests,
    }
}

/// Per-problem draw of the adversarial populations.
const DIVERGING_PER_PROBLEM: usize = 2;
const STRUCTURAL_PER_PROBLEM: usize = 9;

fn adversarial(seed: u64) -> Workload {
    let mut corpus = rng_for(WorkloadName::Adversarial, CORPUS_SEED);
    let problems = all_problems_all_langs();
    let pools = small_pools(&problems, corpus.next_u64());
    let mut entries: Vec<(usize, String, &'static str)> = Vec::new();
    let mut seen = Distinct::default();
    for (index, problem) in problems.iter().enumerate() {
        // The mutation engine's crashes-or-diverges bucket.
        let (single, _) = derive_mutants(
            problem,
            &MutationConfig { seed: corpus.next_u64(), target_wrong_answer: 20, max_attempts: 2_000 },
        );
        let mut diverging: Vec<String> = single
            .into_iter()
            .filter(|m| m.bucket == MutantBucket::CrashesOrDiverges)
            .map(|m| m.source)
            .collect();
        shuffle(&mut diverging, &mut corpus);
        take_distinct(
            &mut entries,
            &mut seen,
            problem,
            index,
            diverging,
            DIVERGING_PER_PROBLEM,
            "crashes_or_diverges",
        );

        // Structure-divergent multi-fault mutants: every chain leads with a
        // loop-structure operator, so strict matching fails and flexible
        // alignment has to work.
        let (multi, _) = derive_multi_fault_mutants(
            problem,
            &MultiFaultConfig {
                seed: corpus.next_u64(),
                target_wrong_answer: STRUCTURAL_PER_PROBLEM * 2,
                max_attempts: 2_000,
                require_structural: true,
                ..MultiFaultConfig::default()
            },
        );
        let mut structural: Vec<String> =
            multi.into_iter().filter(|m| m.bucket == MutantBucket::WrongAnswer).map(|m| m.source).collect();
        shuffle(&mut structural, &mut corpus);
        take_distinct(
            &mut entries,
            &mut seen,
            problem,
            index,
            structural,
            STRUCTURAL_PER_PROBLEM,
            "structure_divergent",
        );

        take_distinct(
            &mut entries,
            &mut seen,
            problem,
            index,
            pathological(problem, &mut corpus),
            PATHOLOGICAL_PER_PROBLEM,
            "pathological",
        );
    }
    shuffle(&mut entries, &mut corpus);
    start_at_seed(&mut entries, seed, usize::MAX);
    let requests = entries
        .into_iter()
        .enumerate()
        .map(|(id, (index, source, origin))| {
            let problem = &problems[index];
            BenchRequest {
                class: expected_class(problem, &source),
                request: request(id, problem, source, false),
                origin,
            }
        })
        .collect();
    Workload { name: WorkloadName::Adversarial, seed, problems, pools, requests }
}

/// Pathological submissions per problem: one empty body, two that do not
/// parse, the rest using an unsupported construct (a helper function).
const PATHOLOGICAL_PER_PROBLEM: usize = 5;

/// Candidates for the pathological population, in the order they are
/// taken; the unsupported ones are random mutants and may repeat, so there
/// are more of them than needed.
fn pathological(problem: &Problem, rng: &mut ChaCha8Rng) -> Vec<String> {
    let tag: u32 = rng.gen_range(0..1_000_000);
    let entry = problem.entry;
    let mut out = Vec::new();
    match problem.lang {
        Lang::MiniPy => {
            out.push(empty_attempt(problem).source);
            out.push(format!("def broken_{tag}(:\n    return ][\n"));
            out.push(format!("def {entry}(x):\n    return x +* {tag}\n"));
            for _ in 0..PATHOLOGICAL_PER_PROBLEM {
                out.push(unsupported_attempt(problem, rng).source);
            }
        }
        Lang::MiniC => {
            out.push(format!("int {entry}(int n) {{ return 0; }}\n"));
            out.push(format!("int broken_{tag}( {{ return ]]\n"));
            out.push(format!("int {entry}(int n) {{ return n +* {tag}; }}\n"));
            for k in tag..tag + PATHOLOGICAL_PER_PROBLEM as u32 {
                out.push(format!(
                    "int helper(int x) {{ return x + {k}; }}\n\nint {entry}(int n) {{ return helper(n); }}\n"
                ));
            }
        }
    }
    out
}

fn take_distinct(
    entries: &mut Vec<(usize, String, &'static str)>,
    seen: &mut Distinct,
    problem: &Problem,
    index: usize,
    sources: Vec<String>,
    count: usize,
    origin: &'static str,
) {
    let mut taken = 0;
    for source in sources {
        if taken == count {
            break;
        }
        if seen.insert(problem, &source) {
            entries.push((index, source, origin));
            taken += 1;
        }
    }
}

/// Tracks what a stream already holds: structural hashes for submissions
/// that parse, exact text for those that do not (they have no hash and
/// never reach the result cache).
#[derive(Default)]
struct Distinct {
    hashes: HashSet<(&'static str, u64)>,
    texts: HashSet<(&'static str, String)>,
}

impl Distinct {
    fn insert(&mut self, problem: &Problem, source: &str) -> bool {
        match structural_hash(problem, source) {
            Some(hash) => self.hashes.insert((problem.name, hash)),
            None => self.texts.insert((problem.name, source.to_owned())),
        }
    }
}

/// The formatting-insensitive hash the service keys its result cache on;
/// `None` when the source does not parse.
pub fn structural_hash(problem: &Problem, source: &str) -> Option<u64> {
    frontend_for(problem.lang).parse(source).ok().map(|p| p.structural_hash())
}

/// The expected class of `source`: the problem's grader decides correct,
/// the frontend decides whether an incorrect submission is analysable.
pub fn expected_class(problem: &Problem, source: &str) -> Class {
    let Ok(parsed) = frontend_for(problem.lang).parse(source) else {
        return Class::Unanalysable;
    };
    if classify(problem, source) == Some(MutantBucket::StillCorrect) {
        return Class::Correct;
    }
    if parsed.lower(problem.entry).is_err() {
        return Class::Unanalysable;
    }
    Class::Incorrect
}

fn request(id: usize, problem: &Problem, source: String, learn: bool) -> Request {
    Request {
        id: id as u64,
        problem: problem.name.to_owned(),
        lang: Some(problem.lang.as_str().to_owned()),
        source,
        learn: learn.then_some(true),
        trace: None,
    }
}

/// Rotates a workload's fixed tape so the replay starts at position
/// `seed mod window`: seeds that differ modulo the window (or the tape's
/// length, if shorter) give different streams.
fn start_at_seed<T>(tape: &mut [T], seed: u64, window: usize) {
    let window = window.clamp(1, tape.len().max(1)) as u64;
    tape.rotate_left((seed % window) as usize);
}

fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    use rand::seq::SliceRandom;
    items.shuffle(rng);
}

/// The number of cores the benchmark may load: the service's worker count
/// and the most client connections the load may open.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
