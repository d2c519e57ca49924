//! `feedbench` — closed-loop benchmark of the Clara feedback service.
//!
//! ```text
//! feedbench --workload <mooc_zipf|fresh_large_pool|adversarial> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run replays the workload's stream in order against a
//! freshly set-up service, pass after pass, until `--seconds` have been
//! measured and at least three passes ran, and reports the end-to-end
//! metrics: a request's latency is the median of its steal-adjusted round
//! trips over the passes, set-up time the median over the passes. With
//! `--trace 1` it makes one closed-loop pass for the network/service/cache
//! numbers and one sequential traced replay for the per-layer ledger. Every
//! response is checked; the last line of standard output is the JSON result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use clara_server::Status;
use feedbench::load::{self, Deployment, Pass, Sample};
use feedbench::stats::{hd_quantile, mean, median, midpoint_median, quantile, share, Metrics};
use feedbench::trace::{traced_config, verdict_digest, Agreement, TracedRun, Verdict};
use feedbench::workload::{generate, nproc, BenchRequest, Class, Workload, WorkloadName};

/// Passes per `--trace 0` run, at least: a request's latency is the median
/// of its round trips over the passes, and `setup_s` the median of the
/// passes' set-ups.
const MIN_PASSES: usize = 3;

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadName::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("feedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = nproc();
    println!(
        "feedbench: workload={} seed={} seconds={} trace={}",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "load model: closed loop, {} client connection(s), one request in flight per connection, \
         the stream sent in order; service workers = nproc = {workers}",
        load::CLIENTS.min(workers)
    );
    let started = Instant::now();
    let workload = generate(args.workload, args.seed);
    describe(&workload, started.elapsed().as_secs_f64());

    let state = state_dir(&workload);
    let mut run = Run::default();
    if args.trace {
        traced(&workload, &state, &mut run);
    } else {
        timed(&workload, &state, args.seconds, &mut run);
    }
    // Best effort: the directory only holds this run's persisted indexes,
    // and its parent is removed once no other run uses it.
    let _ = std::fs::remove_dir_all(&state);
    if let Some(parent) = state.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    println!(
        "requests: sent={} succeeded={} failed={} failed_share={}",
        run.attempted,
        run.attempted.saturating_sub(run.failures.len()),
        run.failures.len(),
        share(run.failures.len() as f64, run.attempted as f64)
    );
    println!("feedback order mismatches (same lines, other order; not failures): {}", run.order_mismatches);
    for failure in run.failures.iter().take(20) {
        println!("FAILED {failure}");
    }
    for (name, value, unit) in run.metrics.entries() {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failures.is_empty(),
        run.attempted.max(1),
        run.failures.len(),
        run.metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[derive(Default)]
struct Run {
    attempted: usize,
    failures: Vec<String>,
    /// Answers that agree with another computation except in line order.
    order_mismatches: usize,
    metrics: Metrics,
}

impl Run {
    /// Compares two answers to request `id`: a different answer is a
    /// failure, a reordering of the same lines is counted.
    fn compare(&mut self, id: usize, a: &Verdict, b: &Verdict, what: &str) {
        match a.agreement(b) {
            Agreement::Same => {}
            Agreement::OrderOnly => self.order_mismatches += 1,
            Agreement::Different => self.failures.push(format!("request {id}: {what}")),
        }
    }
}

fn describe(workload: &Workload, generate_s: f64) {
    let mut classes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut origins: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &workload.requests {
        *classes.entry(r.class.as_str()).or_default() += 1;
        *origins.entry(r.origin).or_default() += 1;
    }
    let learns = workload.requests.iter().filter(|r| r.request.learn == Some(true)).count();
    let pool: usize = workload.pools.iter().map(Vec::len).sum();
    println!(
        "stream: {} requests over {} problem(s), pool {} correct solutions, {} learns, generated in {:.2} s",
        workload.requests.len(),
        workload.problems.len(),
        pool,
        learns,
        generate_s
    );
    println!("expected classes: {classes:?}");
    println!("populations: {origins:?}");
}

/// Where a run keeps its persisted indexes: inside the package directory,
/// one directory per process.
fn state_dir(workload: &Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".state").join(format!(
        "{}-{}",
        workload.name.as_str(),
        std::process::id()
    ))
}

/// Builds the workload's indexes cold and persists them; returns the build
/// seconds, the load seconds of reading them back, and their size.
fn persist(workload: &Workload, dir: &Path) -> (f64, f64, usize) {
    let (stores, build_s) = load::stores(workload, None, &clara_core::ClaraConfig::default());
    for store in &stores {
        store.save(dir).expect("index directory is writable");
    }
    let bytes = load::index_bytes(&stores);
    let (_, load_s) = load::stores(workload, Some(dir), &clara_core::ClaraConfig::default());
    (build_s, load_s, bytes)
}

/// Checks one response against the request's expected class.
fn check(bench: &BenchRequest, status: Status, cost: Option<i64>, feedback: &[String]) -> Option<String> {
    let fine = match bench.class {
        Class::Correct => status == Status::Correct,
        Class::Incorrect => match status {
            Status::Repaired => cost.is_some_and(|c| c >= 0) && !feedback.is_empty(),
            Status::NoRepair => !feedback.is_empty(),
            _ => false,
        },
        Class::Unanalysable => status == Status::Error,
    };
    (!fine).then(|| {
        format!(
            "request {} ({}, {}): status {} contradicts its class",
            bench.request.id,
            bench.origin,
            bench.class.as_str(),
            status.as_str()
        )
    })
}

/// Records a pass's transport and class failures; returns its verdicts.
fn audit(workload: &Workload, pass: &Pass, run: &mut Run) -> Vec<Option<Verdict>> {
    run.attempted += workload.requests.len();
    run.failures.extend(pass.failures.iter().cloned());
    workload
        .requests
        .iter()
        .zip(&pass.samples)
        .map(|(bench, sample)| {
            let response = &sample.as_ref()?.response;
            run.failures.extend(check(bench, response.status, response.cost, &response.feedback));
            Some(Verdict::of(response))
        })
        .collect()
}

fn timed(workload: &Workload, state: &Path, seconds: f64, run: &mut Run) {
    let index_dir = workload.name.warm_loads().then(|| {
        persist(workload, state);
        state
    });
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut first: Option<Vec<Option<Verdict>>> = None;
    let clock = Instant::now();
    while passes.len() < MIN_PASSES || clock.elapsed().as_secs_f64() < seconds {
        let deployment = Deployment::start(workload, index_dir);
        let pass = load::replay(&deployment, &workload.requests);
        let (panics, shed) = deployment.panics_and_shed();
        setups.push(deployment.setup_s * (1.0 - deployment.setup_steal_share));
        println!(
            "pass {}: setup {:.3} s ({:.0}% stolen), {} requests in {:.3} s ({:.0}% stolen) over {} \
             connection(s), at most {} in flight, panics {panics}, shed {shed}, peak RSS {:.0} MiB",
            passes.len() + 1,
            deployment.setup_s,
            deployment.setup_steal_share * 100.0,
            workload.requests.len(),
            pass.wall_s,
            pass.steal_share * 100.0,
            pass.clients,
            pass.max_in_flight,
            pass.peak_rss_mb
        );
        deployment.stop();
        load::release_freed_memory();
        if panics > 0 {
            run.failures.push(format!("pass {}: {panics} worker panic(s)", passes.len() + 1));
        }
        // One connection sends the stream in the same order to a fresh
        // service every pass, so every pass must give the first pass's
        // answers, learns included.
        let verdicts = audit(workload, &pass, run);
        match &first {
            None => first = Some(verdicts),
            Some(reference) => {
                for (id, (a, b)) in reference.iter().zip(&verdicts).enumerate() {
                    if let (Some(a), Some(b)) = (a, b) {
                        run.compare(id, a, b, "answer differs between passes");
                    }
                }
            }
        }
        passes.push(pass);
    }
    end_to_end(&passes, &setups, &mut run.metrics);
}

/// The feedback a student actually waits for: a repair computed for them.
fn is_uncached_repair(sample: &Sample) -> bool {
    sample.response.status == Status::Repaired && !sample.response.cache_hit
}

/// A request's round trip, steal-adjusted: scaled by one minus the share
/// of the wanted CPU time the hypervisor took during its pass.
fn adjusted_ms(sample: &Sample, pass: &Pass) -> f64 {
    sample.rtt_us * (1.0 - pass.steal_share) / 1e3
}

/// Per stream position, the first pass's answer and the median of the
/// steal-adjusted round trips over the passes, in milliseconds.
///
/// Every pass does the same work for a position (same order, one
/// connection, a fresh service) and gives the same answer (checked), so
/// the passes differ only in what the host did meanwhile. The steal
/// adjustment removes the host's level over a pass; the median over passes
/// removes its bursts, which land on different requests in different
/// passes. Unlike the fastest pass, the median does not drift lower as a
/// faster run fits in more passes.
fn per_request(passes: &[Pass]) -> Vec<(&Sample, f64)> {
    let Some(first) = passes.first() else { return Vec::new() };
    (0..first.samples.len())
        .filter_map(|i| {
            let answered: Vec<(&Sample, f64)> =
                passes.iter().filter_map(|p| p.samples[i].as_ref().map(|s| (s, adjusted_ms(s, p)))).collect();
            let times: Vec<f64> = answered.iter().map(|(_, ms)| *ms).collect();
            answered.first().map(|(s, _)| (*s, midpoint_median(&times)))
        })
        .collect()
}

/// The `--trace 0` end-to-end metrics: the rate and the latency quantiles
/// (Harrell–Davis, [`hd_quantile`]) over each request's steal-adjusted
/// round trip ([`per_request`]), set-up time (steal-adjusted) and peak
/// memory as the median over passes.
///
/// The machine is a virtual one on a shared host: the share of the CPU
/// time it wanted that the hypervisor gave to other guests swung between
/// 5% and 35% from run to run, and stretched every wall-clock figure of a
/// run with it.
fn end_to_end(passes: &[Pass], setups: &[f64], metrics: &mut Metrics) {
    let best = per_request(passes);
    let rtts: Vec<f64> = best.iter().map(|(_, ms)| *ms).collect();
    let repaired: Vec<f64> = best.iter().filter(|(s, _)| is_uncached_repair(s)).map(|(_, ms)| *ms).collect();
    // Quality is measured over computed answers: a cache hit repeats an
    // earlier answer, and counting it would weigh the Zipf head.
    let computed = || best.iter().map(|(s, _)| s).filter(|s| !s.response.cache_hit);
    let count = |status: Status| computed().filter(|s| s.response.status == status).count() as f64;
    let costs: Vec<f64> = computed()
        .filter(|s| s.response.status == Status::Repaired)
        .filter_map(|s| s.response.cost)
        .map(|c| c as f64)
        .collect();
    let stolen: Vec<f64> = passes.iter().map(|p| p.steal_share).collect();
    println!(
        "samples: {} requests, each the median of {} round trip(s) ({} beyond p99); {} uncached repairs \
         ({} beyond p90); median steal share {:.3}",
        rtts.len(),
        passes.len(),
        rtts.len() / 100,
        repaired.len(),
        repaired.len() / 10,
        median(&stolen)
    );
    metrics.put("throughput_rps", share(rtts.len() as f64, rtts.iter().sum::<f64>() / 1e3), "req/s");
    metrics.put("latency_p50_ms", hd_quantile(&rtts, 0.5), "ms");
    metrics.put("latency_p99_ms", hd_quantile(&rtts, 0.99), "ms");
    metrics.put("repaired_latency_p50_ms", hd_quantile(&repaired, 0.5), "ms");
    metrics.put("repaired_latency_p90_ms", hd_quantile(&repaired, 0.90), "ms");
    metrics.put(
        "repair_rate",
        share(count(Status::Repaired), count(Status::Repaired) + count(Status::NoRepair)),
        "ratio",
    );
    metrics.put("mean_repair_cost", mean(&costs), "cost");
    metrics.put("setup_s", median(setups), "s");
    metrics.put("peak_rss_mb", median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()), "MiB");
}

fn traced(workload: &Workload, state: &Path, run: &mut Run) {
    let (build_s, load_s, index_bytes) = persist(workload, state);
    let index_dir = workload.name.warm_loads().then_some(state);

    // One untraced closed-loop pass: network, service and cache numbers.
    let deployment = Deployment::start(workload, index_dir);
    let pass = load::replay(&deployment, &workload.requests);
    let stats = deployment.stats();
    let (panics, shed) = deployment.panics_and_shed();
    let generations = deployment.generations();
    let setup_s = deployment.setup_s * (1.0 - deployment.setup_steal_share);
    deployment.stop();
    if panics > 0 {
        run.failures.push(format!("{panics} worker panic(s)"));
    }
    let timed_verdicts = audit(workload, &pass, run);
    let mut overhead = Vec::new();
    let mut elapsed = Vec::new();
    for sample in pass.samples.iter().flatten() {
        overhead.push(sample.rtt_us - sample.response.elapsed_us as f64);
        elapsed.push(sample.response.elapsed_us as f64);
    }
    let mut e2e = Metrics::default();
    end_to_end(std::slice::from_ref(&pass), &[setup_s], &mut e2e);
    for (name, value, unit) in e2e.entries() {
        println!("end-to-end (single pass, not a result) {name} = {value} {unit}");
    }

    // The sequential traced replay.
    let (stores, _) = load::stores(workload, index_dir, &traced_config());
    let mut traced = TracedRun::new(stores);
    for bench in &workload.requests {
        traced.step(bench);
        run.attempted += 1;
    }
    run.failures.append(&mut traced.failures);
    for bench in &workload.requests {
        let verdict = &traced.verdicts[bench.request.id as usize];
        run.failures.extend(check(bench, verdict.status, verdict.cost, &verdict.feedback));
    }
    run.order_mismatches += traced.order_mismatches;
    // One connection sends in stream order: the closed-loop pass computed
    // what the sequential replay computed, learns included.
    for (id, (timed, traced)) in timed_verdicts.iter().zip(&traced.verdicts).enumerate() {
        if let Some(timed) = timed {
            run.compare(id, timed, traced, "closed-loop answer differs from the sequential one");
        }
    }
    println!(
        "verdict digest ({} requests, sequential traced run): {:016x}",
        traced.verdicts.len(),
        verdict_digest(&traced.verdicts)
    );
    println!("self time by layer (ms): {:?}", traced.self_times());

    let m = &mut run.metrics;
    m.put("net.overhead_p50_us", median(&overhead), "us");
    m.put("net.overhead_p99_us", quantile(&overhead, 0.99), "us");
    m.put("pool.panics", panics as f64, "count");
    m.put("pool.shed", shed as f64, "count");
    m.put("service.elapsed_p50_us", median(&elapsed), "us");
    m.put("service.elapsed_p99_us", quantile(&elapsed, 0.99), "us");
    m.put("cache.hit_share", share(stats.cache_hits as f64, stats.requests as f64), "ratio");
    m.put("cache.coalesced", stats.coalesced as f64, "count");
    m.put("cache.batch_dedup", stats.batch_dedup as f64, "count");
    m.put("store.build_s", build_s, "s");
    m.put("store.load_s", load_s, "s");
    m.put("store.index_bytes", index_bytes as f64, "bytes");
    m.put("store.generations", generations as f64, "count");
    m.put("feedback.order_mismatches", run.order_mismatches as f64, "count");
    traced.report(m);
}
