//! `clara-cli` — command-line front end for the Clara pipeline.
//!
//! ```text
//! clara-cli problems [--lang L]           # list the built-in assignments
//! clara-cli grade  <problem> <file>       # run the grading test suite on an attempt
//! clara-cli repair [--lang L] <problem> <file>   # grade and, if incorrect, print repair feedback
//! clara-cli clusters <problem> [n]        # cluster a synthetic pool of n correct solutions
//! clara-cli serve [options] [problem...]  # run the feedback service (NDJSON on stdio)
//! clara-cli batch [--lang L] <problem> <file...> # repair many attempts through one shared index
//! ```
//!
//! The `<problem>` argument is one of the assignment names listed by
//! `clara-cli problems`: the nine MiniPy assignments from the paper's
//! Appendix A plus the MiniC translations (`fibonacci_c`, ...). Each problem
//! has exactly one submission language; `--lang minipy|minic` (aliases
//! `python`, `c`) filters the listing / the served problem set and, on
//! `repair`/`batch`, asserts the problem's language — a mismatch is a usage
//! error rather than a confusing syntax error.
//!
//! Exit codes (asserted by the integration smoke test): `0` — the attempt is
//! correct or a repair was found (for `batch`: all attempts), `1` — no
//! repair was found / the attempt is incorrect or unsupported, `2` — usage,
//! unknown problem, unreadable file or syntax error.
//!
//! ## `serve`
//!
//! `serve` builds (or warm-loads, with `--index-dir`) the per-problem
//! cluster indexes, then answers newline-delimited JSON requests on
//! stdin/stdout — see `clara_server::protocol` — until EOF. Options:
//!
//! * `--index-dir DIR` — persist/load cluster indexes under `DIR` (warm
//!   start: only cluster representatives are re-analysed);
//! * `--listen ADDR` — serve the NDJSON protocol over TCP on `ADDR`
//!   through the nonblocking poll(2) event loop (the fleet protocol);
//! * `--http ADDR` — serve `POST /repair` / `GET /health` / `GET /stats`
//!   on `ADDR` (e.g. `127.0.0.1:8077`);
//! * `--shard i/N` — fleet position: load only the problems this shard
//!   holds on the consistent-hash ring (as owner or as the ring-successor
//!   replica) and reject the rest with a routing error;
//! * `--router --shards a:p1,b:p2,…` — hold no indexes; forward each
//!   request to the shard owning its problem×language key (the addresses
//!   are the shards' `--listen` endpoints, in shard-index order);
//! * `--pool-size N` — correct-solution pool built per problem when no
//!   stored index exists (default 60);
//! * `--workers N` / `--queue N` — worker pool sizing;
//! * `--no-learn` — reject online insertion of correct submissions;
//! * `--slow-ms N` — dump a structured-log line with the per-stage span
//!   breakdown for every request slower than `N` ms (and every failed
//!   request); `--slow-ms 0` traces everything;
//! * `--faults SPEC` (or `CLARA_FAULTS`) — deterministic fault injection
//!   at the net layer for chaos testing, e.g.
//!   `seed=7,drop=0.02,close=0.01,garble=0.02,delay=0.1,delay_ms=5`.
//!
//! Without `--listen`/`--http` the NDJSON protocol runs on stdin/stdout
//! exactly as before. With either listener the process serves over TCP
//! instead, prints each bound address to stderr as `(… endpoint on ADDR)`
//! (bind to port 0 for an ephemeral port), and treats stdin EOF as the
//! shutdown signal.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use clara::prelude::*;
use clara_server::{
    run_ndjson, Backend, ClusterStore, EventLoop, EventLoopConfig, FaultPlan, FeedbackService, Request,
    Router, RouterConfig, Server, ServerConfig, ServiceConfig, ShardSpec, Status, REPLICATION_FACTOR,
};

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  clara-cli problems [--lang minipy|minic]");
    eprintln!("  clara-cli grade  <problem> <attempt.py|attempt.c>");
    eprintln!("  clara-cli repair [--lang L] <problem> <attempt.py|attempt.c>");
    eprintln!("  clara-cli clusters <problem> [pool-size]");
    eprintln!("  clara-cli serve [--index-dir DIR] [--listen ADDR] [--http ADDR] [--shard i/N]");
    eprintln!("                  [--router --shards ADDR,ADDR,...] [--pool-size N]");
    eprintln!("                  [--workers N] [--queue N] [--no-learn] [--lang L]");
    eprintln!("                  [--slow-ms N] [--faults SPEC] [problem...]");
    eprintln!("                  (SPEC e.g. seed=7,drop=0.02,close=0.01,garble=0.02,delay=0.1,delay_ms=5;");
    eprintln!("                   also read from CLARA_FAULTS)");
    eprintln!("  clara-cli batch [--lang L] <problem> <attempt.py|attempt.c>...");
    ExitCode::from(2)
}

fn find_problem(name: &str) -> Option<Problem> {
    clara::corpus::all_problems_all_langs().into_iter().find(|p| p.name == name)
}

/// Extracts a leading/interspersed `--lang VALUE` pair from `args`.
/// `Ok(None)` when absent; `Err(())` when the value is missing or unknown.
fn extract_lang(args: &mut Vec<String>) -> Result<Option<Lang>, ()> {
    let Some(index) = args.iter().position(|a| a == "--lang") else { return Ok(None) };
    if index + 1 >= args.len() {
        eprintln!("--lang needs a value (minipy|minic)");
        return Err(());
    }
    let value = args.remove(index + 1);
    args.remove(index);
    match Lang::from_tag(&value) {
        Some(lang) => Ok(Some(lang)),
        None => {
            eprintln!("unknown language `{value}` (use minipy|minic)");
            Err(())
        }
    }
}

/// Checks a `--lang` assertion against the resolved problem.
fn lang_matches(problem: &Problem, lang: Option<Lang>) -> bool {
    match lang {
        Some(lang) if lang != problem.lang => {
            eprintln!("problem `{}` is a {} assignment, not {}", problem.name, problem.lang, lang);
            false
        }
        _ => true,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().cloned();
    let lang = match command.as_deref() {
        // `serve` parses its own options (including --lang).
        Some("serve") => None,
        _ => match extract_lang(&mut args) {
            Ok(lang) => lang,
            Err(()) => return usage(),
        },
    };
    match command.as_deref() {
        Some("problems") => {
            for problem in clara::corpus::all_problems_all_langs() {
                if lang.is_some_and(|l| l != problem.lang) {
                    continue;
                }
                println!(
                    "{:<22} [{}] entry `{}`, {} tests — {}",
                    problem.name,
                    problem.lang,
                    problem.entry,
                    problem.spec.tests.len(),
                    problem.statement
                );
            }
            ExitCode::SUCCESS
        }
        Some("grade") if args.len() == 3 => grade(&args[1], &args[2], lang),
        Some("repair") if args.len() == 3 => repair(&args[1], &args[2], lang),
        Some("clusters") if args.len() >= 2 => {
            let pool = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(60);
            clusters(&args[1], pool, lang)
        }
        Some("serve") => serve(&args[1..]),
        Some("batch") if args.len() >= 3 => batch(&args[1], &args[2..], lang),
        _ => usage(),
    }
}

fn load(path: &str) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(err) => {
            eprintln!("cannot read `{path}`: {err}");
            None
        }
    }
}

fn grade(problem_name: &str, path: &str, lang: Option<Lang>) -> ExitCode {
    let Some(problem) = find_problem(problem_name) else {
        eprintln!("unknown problem `{problem_name}` (see `clara-cli problems`)");
        return ExitCode::from(2);
    };
    if !lang_matches(&problem, lang) {
        return ExitCode::from(2);
    }
    let Some(source) = load(path) else { return ExitCode::from(2) };
    let Some(report) = problem.grade_report(&source) else {
        // Re-parse only on the error path, to name the syntax error.
        let err = clara::core::frontend(problem.lang)
            .parse(&source)
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "unparseable submission".to_owned());
        println!("syntax error: {err}");
        return ExitCode::from(2);
    };
    println!("{} / {} tests passed", report.passed_count(), problem.spec.tests.len());
    if report.all_passed() {
        println!("the attempt is correct");
        ExitCode::SUCCESS
    } else {
        if let Some(index) = report.first_failure() {
            let test = &problem.spec.tests[index];
            println!(
                "first failing test: arguments {:?}",
                test.args.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
        ExitCode::FAILURE
    }
}

/// Builds the correct-solution pool for a problem the way a course would use
/// its archive: the problem's seeds plus a synthetic expansion (MiniPy) or
/// the seed-cycling MiniC pool.
fn build_store(problem: &Problem, pool: usize) -> ClusterStore {
    let dataset = generate_dataset_for(
        problem,
        DatasetConfig { correct_count: pool, incorrect_count: 0, seed: 4242, ..DatasetConfig::default() },
    );
    let (store, _) = ClusterStore::build(
        problem,
        dataset.correct.iter().map(|a| a.source.as_str()),
        ClaraConfig::default(),
    );
    store
}

fn repair(problem_name: &str, path: &str, lang: Option<Lang>) -> ExitCode {
    let Some(problem) = find_problem(problem_name) else {
        eprintln!("unknown problem `{problem_name}` (see `clara-cli problems`)");
        return ExitCode::from(2);
    };
    if !lang_matches(&problem, lang) {
        return ExitCode::from(2);
    }
    let Some(source) = load(path) else { return ExitCode::from(2) };
    let parsed = match clara::core::frontend(problem.lang).parse(&source) {
        Ok(parsed) => parsed,
        Err(err) => {
            println!("syntax error: {err}");
            return ExitCode::from(2);
        }
    };
    if parsed.passes(&problem.spec) {
        println!("the attempt already passes all tests — nothing to repair");
        return ExitCode::SUCCESS;
    }

    let store = build_store(&problem, 60);
    let engine = store.engine();
    eprintln!(
        "(cluster pool: {} correct solutions in {} clusters)",
        engine.correct_count(),
        engine.clusters().len()
    );

    match engine.repair_parsed(parsed.as_ref()) {
        Err(err) => {
            println!("the attempt cannot be analysed: {err}");
            ExitCode::FAILURE
        }
        Ok(outcome) => {
            let exit = match &outcome.result.best {
                Some(found) => {
                    println!(
                        "repair found (cost {}, {} modified expressions, {:.2?}):",
                        found.total_cost,
                        found.modified_expression_count(),
                        outcome.result.elapsed
                    );
                    ExitCode::SUCCESS
                }
                None => {
                    println!("no repair found: {:?}", outcome.result.failure);
                    ExitCode::FAILURE
                }
            };
            for line in outcome.feedback.lines() {
                println!("  * {line}");
            }
            exit
        }
    }
}

fn clusters(problem_name: &str, pool: usize, lang: Option<Lang>) -> ExitCode {
    let Some(problem) = find_problem(problem_name) else {
        eprintln!("unknown problem `{problem_name}` (see `clara-cli problems`)");
        return ExitCode::from(2);
    };
    if !lang_matches(&problem, lang) {
        return ExitCode::from(2);
    }
    let store = build_store(&problem, pool);
    let stats = store.stats();
    println!(
        "{}: {} correct solutions -> {} clusters (largest {}, {} mined expressions)",
        problem.name, stats.program_count, stats.cluster_count, stats.largest_cluster, stats.expression_count
    );
    for (index, cluster) in store.engine().clusters().iter().enumerate() {
        println!(
            "  cluster {index:>2}: {:>3} member(s), control flow {}",
            cluster.size(),
            clara_model::StructSig::sequence_key(&cluster.representative.program.signature)
        );
    }
    ExitCode::SUCCESS
}

struct ServeOptions {
    problems: Vec<String>,
    index_dir: Option<std::path::PathBuf>,
    listen: Option<String>,
    http: Option<String>,
    shard: ShardSpec,
    router: bool,
    shards: Vec<String>,
    pool_size: usize,
    workers: Option<usize>,
    queue: Option<usize>,
    learn: bool,
    lang: Option<Lang>,
    slow_ms: Option<u64>,
    faults: Option<FaultPlan>,
}

fn parse_serve_options(args: &[String]) -> Option<ServeOptions> {
    let mut options = ServeOptions {
        problems: Vec::new(),
        index_dir: None,
        listen: None,
        http: None,
        shard: ShardSpec::solo(),
        router: false,
        shards: Vec::new(),
        pool_size: 60,
        workers: None,
        queue: None,
        learn: true,
        lang: None,
        slow_ms: None,
        faults: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--index-dir" => options.index_dir = Some(iter.next()?.into()),
            "--listen" => options.listen = Some(iter.next()?.clone()),
            "--http" => options.http = Some(iter.next()?.clone()),
            "--shard" => options.shard = iter.next()?.parse().ok()?,
            "--router" => options.router = true,
            "--shards" => {
                options.shards = iter
                    .next()?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--pool-size" => options.pool_size = iter.next()?.parse().ok()?,
            "--workers" => options.workers = Some(iter.next()?.parse().ok()?),
            "--queue" => options.queue = Some(iter.next()?.parse().ok()?),
            "--no-learn" => options.learn = false,
            "--slow-ms" => options.slow_ms = Some(iter.next()?.parse().ok()?),
            "--lang" => options.lang = Some(Lang::from_tag(iter.next()?)?),
            "--faults" => match iter.next()?.parse() {
                Ok(plan) => options.faults = Some(plan),
                Err(err) => {
                    eprintln!("bad --faults spec: {err}");
                    return None;
                }
            },
            flag if flag.starts_with("--") => return None,
            name => options.problems.push(name.to_owned()),
        }
    }
    if options.faults.is_none() {
        if let Ok(spec) = std::env::var("CLARA_FAULTS") {
            if !spec.is_empty() {
                match spec.parse() {
                    Ok(plan) => options.faults = Some(plan),
                    Err(err) => {
                        eprintln!("bad CLARA_FAULTS spec: {err}");
                        return None;
                    }
                }
            }
        }
    }
    Some(options)
}

/// Binds a listener and reports the actual bound address (so `:0` requests
/// an ephemeral port and the caller learns which one).
fn bind_reported(kind: &str, addr: &str) -> Result<std::net::TcpListener, ExitCode> {
    match std::net::TcpListener::bind(addr) {
        Ok(listener) => {
            let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.to_owned());
            eprintln!("({kind} endpoint on {bound})");
            Ok(listener)
        }
        Err(err) => {
            eprintln!("cannot bind `{addr}`: {err}");
            Err(ExitCode::from(2))
        }
    }
}

/// Runs an event loop over `backend` with the requested listeners; stdin
/// EOF (watched from a helper thread) requests shutdown.
fn run_event_loop(
    backend: Backend,
    listen: Option<&str>,
    http: Option<&str>,
    faults: Option<FaultPlan>,
) -> Result<(), ExitCode> {
    if let Some(plan) = &faults {
        eprintln!("(fault injection armed: {plan:?})");
    }
    let config = EventLoopConfig { faults, ..EventLoopConfig::default() };
    let mut event_loop = match EventLoop::new(backend, config) {
        Ok(event_loop) => event_loop,
        Err(err) => {
            eprintln!("cannot start the event loop: {err}");
            return Err(ExitCode::FAILURE);
        }
    };
    let attach = |result: std::io::Result<EventLoop>| {
        result.map_err(|err| {
            eprintln!("cannot attach listener: {err}");
            ExitCode::FAILURE
        })
    };
    if let Some(addr) = listen {
        let listener = bind_reported("ndjson", addr)?;
        event_loop = attach(event_loop.with_ndjson_listener(listener))?;
    }
    if let Some(addr) = http {
        let listener = bind_reported("http", addr)?;
        event_loop = attach(event_loop.with_http_listener(listener))?;
    }
    let handle = event_loop.handle();
    std::thread::Builder::new()
        .name("clara-stdin-anchor".to_owned())
        .spawn(move || {
            // stdin is the process lifetime anchor: consume it to EOF, then
            // ask the loop to drain and exit.
            let mut sink = String::new();
            let stdin = std::io::stdin();
            loop {
                sink.clear();
                match stdin.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            handle.request_shutdown();
        })
        .expect("spawning the stdin anchor");
    eprintln!("(serving on the event loop; stdin EOF shuts down)");
    if let Err(err) = event_loop.run() {
        eprintln!("serve error: {err}");
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// `serve --router`: a thin forwarding process holding no indexes.
fn serve_router(options: &ServeOptions) -> ExitCode {
    if options.shards.is_empty() {
        eprintln!(
            "--router needs --shards ADDR,ADDR,... (one NDJSON address per shard, in shard-index order)"
        );
        return ExitCode::from(2);
    }
    if options.listen.is_none() && options.http.is_none() {
        eprintln!("--router needs --listen and/or --http to accept clients");
        return ExitCode::from(2);
    }
    let catalog = clara::corpus::all_problems_all_langs()
        .into_iter()
        .map(|p| (p.name.to_owned(), p.lang.as_str().to_owned()));
    let router = Arc::new(Router::new(
        options.shards.clone(),
        catalog,
        RouterConfig {
            workers: options.workers.unwrap_or(4),
            queue_capacity: options.queue.unwrap_or(64),
            ..RouterConfig::default()
        },
    ));
    eprintln!("(router over {} shard(s): {})", options.shards.len(), options.shards.join(", "));
    let outcome = run_event_loop(
        Backend::router(Arc::clone(&router)),
        options.listen.as_deref(),
        options.http.as_deref(),
        options.faults,
    );
    let report = router.report(0);
    eprintln!(
        "(forwarded {} request(s), {} upstream error(s), {} retr(ies), {} failover(s))",
        report.forwarded, report.upstream_errors, report.retries, report.failovers
    );
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn serve(args: &[String]) -> ExitCode {
    let Some(options) = parse_serve_options(args) else { return usage() };
    if options.router {
        return serve_router(&options);
    }
    let all = clara::corpus::all_problems_all_langs();
    let selected: Vec<Problem> = if options.problems.is_empty() {
        all.into_iter().filter(|p| options.lang.is_none_or(|l| l == p.lang)).collect()
    } else {
        let mut selected = Vec::new();
        for name in &options.problems {
            match all.iter().find(|p| p.name == *name) {
                Some(problem) => {
                    // An explicit name contradicting --lang is a usage
                    // error, not a silent override.
                    if !lang_matches(problem, options.lang) {
                        return ExitCode::from(2);
                    }
                    selected.push(problem.clone());
                }
                None => {
                    eprintln!("unknown problem `{name}` (see `clara-cli problems`)");
                    return ExitCode::from(2);
                }
            }
        }
        selected
    };

    // A fleet shard loads the problems it *holds* on the consistent-hash
    // ring — those it owns plus those it carries as the ring successor
    // (replica), so reads and learns survive the owner's death. Everything
    // else is answered with a routing error pointing at the owning shard.
    let spec = options.shard;
    let selected: Vec<Problem> = if spec.is_solo() {
        selected
    } else {
        let total = selected.len();
        let held: Vec<Problem> = selected
            .into_iter()
            .filter(|p| spec.holds(p.name, p.lang.as_str(), REPLICATION_FACTOR))
            .collect();
        eprintln!(
            "(shard {spec}: holds {} of {total} problem indexes at replication factor {REPLICATION_FACTOR})",
            held.len()
        );
        held
    };

    // Bring every shard online: warm-load a stored index when possible,
    // otherwise build cold from the synthetic archive (and persist for the
    // next start when an index directory was given).
    let mut stores = Vec::with_capacity(selected.len());
    for problem in &selected {
        let loaded = options.index_dir.as_deref().and_then(|dir| {
            // Crash-safe load: a truncated or corrupt index file is
            // quarantined and rebuilt from seeds instead of refusing to
            // start (or silently re-tripping on it every launch).
            match ClusterStore::load_or_recover(dir, problem, ClaraConfig::default()) {
                Ok(store) => store,
                Err(err) => {
                    eprintln!("({}: ignoring stored index: {err})", problem.name);
                    None
                }
            }
        });
        let store = match loaded {
            Some(store) => {
                eprintln!("({}: warm-loaded {} clusters)", problem.name, store.stats().cluster_count);
                store
            }
            None => {
                let store = build_store(problem, options.pool_size);
                if let Some(dir) = options.index_dir.as_deref() {
                    match store.save(dir) {
                        Ok(path) => eprintln!("({}: index saved to {})", problem.name, path.display()),
                        Err(err) => eprintln!("({}: could not save index: {err})", problem.name),
                    }
                }
                eprintln!(
                    "({}: cold-built {} clusters from {} solutions)",
                    problem.name,
                    store.stats().cluster_count,
                    store.stats().program_count
                );
                store
            }
        };
        stores.push(store);
    }

    let service = Arc::new(FeedbackService::new(
        stores,
        ServiceConfig {
            learn: options.learn,
            shard: spec,
            slow_ms: options.slow_ms,
            ..ServiceConfig::default()
        },
    ));
    let mut server_config = ServerConfig::default();
    if let Some(workers) = options.workers {
        server_config.workers = workers;
    }
    if let Some(queue) = options.queue {
        server_config.queue_capacity = queue;
    }
    let mut server = Server::new(Arc::clone(&service), server_config);

    if options.listen.is_some() || options.http.is_some() {
        // Fleet mode: all traffic over TCP through the poll(2) event loop;
        // stdin only anchors the process lifetime.
        let server = Arc::new(server);
        let outcome = run_event_loop(
            Backend::local(Arc::clone(&server)),
            options.listen.as_deref(),
            options.http.as_deref(),
            options.faults,
        );
        // The loop has exited and dropped its backend; joining the workers
        // (pool drop) guarantees in-flight learns reach the index before we
        // persist it below.
        drop(server);
        if let Err(code) = outcome {
            return code;
        }
    } else {
        eprintln!("(serving NDJSON on stdin/stdout; EOF shuts down)");
        let stdin = std::io::stdin();
        if let Err(err) = run_ndjson(&mut server, stdin.lock(), std::io::stdout()) {
            eprintln!("serve error: {err}");
            return ExitCode::FAILURE;
        }
    }
    let stats = service.stats();
    // Persist what was learned online, so the next warm start sees it.
    if let Some(dir) = options.index_dir.as_deref() {
        if stats.learned > 0 {
            match service.save_indexes(dir) {
                Ok(()) => eprintln!("(re-saved indexes with {} learned solution(s))", stats.learned),
                Err(err) => eprintln!("(could not re-save indexes: {err})"),
            }
        }
    }
    eprintln!(
        "(served {} requests: {} cache hits, {} repaired, {} correct, {} no-repair, {} errors, {} learned)",
        stats.requests,
        stats.cache_hits,
        stats.repaired,
        stats.correct,
        stats.no_repair,
        stats.errors,
        stats.learned
    );
    ExitCode::SUCCESS
}

fn batch(problem_name: &str, paths: &[String], lang: Option<Lang>) -> ExitCode {
    let Some(problem) = find_problem(problem_name) else {
        eprintln!("unknown problem `{problem_name}` (see `clara-cli problems`)");
        return ExitCode::from(2);
    };
    if !lang_matches(&problem, lang) {
        return ExitCode::from(2);
    }
    let store = build_store(&problem, 60);
    let service = FeedbackService::new(vec![store], ServiceConfig::default());

    // Exit-code contract (module docs): 2 — unreadable/unparseable attempts,
    // else 1 — attempts without a repair, else 0.
    let mut errored = 0usize;
    let mut unrepaired = 0usize;
    for (index, path) in paths.iter().enumerate() {
        let Some(source) = load(path) else {
            errored += 1;
            continue;
        };
        let response = service.handle(&Request {
            id: index as u64,
            problem: problem.name.to_owned(),
            lang: Some(problem.lang.as_str().to_owned()),
            source,
            learn: None,
            trace: None,
        });
        let summary = match response.status {
            Status::Correct => "correct".to_owned(),
            Status::Repaired => format!(
                "repaired (cost {}, {} suggestion(s)){}",
                response.cost.unwrap_or(0),
                response.feedback.len(),
                if response.cache_hit { ", cached" } else { "" }
            ),
            Status::NoRepair => {
                unrepaired += 1;
                "no repair found".to_owned()
            }
            Status::Error => {
                errored += 1;
                format!("error: {}", response.error.as_deref().unwrap_or("unknown"))
            }
        };
        println!("{path}: {summary}");
        let _ = std::io::stdout().flush();
    }
    if errored > 0 {
        ExitCode::from(2)
    } else if unrepaired > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
