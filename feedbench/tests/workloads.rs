//! Self-tests of the benchmark's inputs and load model.

use std::collections::HashSet;

use clara_corpus::mooc::derivatives;
use feedbench::load::{replay, Deployment};
use feedbench::workload::{
    expected_class, generate, nproc, structural_hash, BenchRequest, Class, Workload, WorkloadName,
};

/// Everything a stream is made of, in order: what the service receives
/// plus what the benchmark expects of it.
fn fingerprint(workload: &Workload) -> Vec<String> {
    let mut lines: Vec<String> = workload.pools.iter().flatten().cloned().collect();
    lines.extend(workload.requests.iter().map(|r| {
        format!(
            "{}|{}|{:?}|{:?}|{}|{}|{}",
            r.request.id,
            r.request.problem,
            r.request.lang,
            r.request.learn,
            r.class.as_str(),
            r.origin,
            r.request.source
        )
    }));
    lines
}

#[test]
fn a_seed_fixes_the_stream_and_seeds_differ() {
    for name in WorkloadName::ALL {
        let first = fingerprint(&generate(name, 7));
        assert_eq!(first, fingerprint(&generate(name, 7)), "{} is not reproducible", name.as_str());
        assert_ne!(first, fingerprint(&generate(name, 8)), "{} ignores its seed", name.as_str());
    }
}

#[test]
fn duplicate_free_workloads_have_no_structural_duplicates() {
    for name in [WorkloadName::FreshLargePool, WorkloadName::Adversarial] {
        let workload = generate(name, 3);
        let mut seen = HashSet::new();
        for r in &workload.requests {
            let problem =
                workload.problems.iter().find(|p| p.name == r.request.problem).expect("served problem");
            // Unparseable submissions never reach the result cache; they
            // must still be distinct texts.
            let key = structural_hash(problem, &r.request.source)
                .map_or_else(|| r.request.source.clone(), |h| h.to_string());
            assert!(
                seen.insert((r.request.problem.clone(), key)),
                "{}: request {} repeats",
                name.as_str(),
                r.request.id
            );
            assert_eq!(r.request.learn, None, "{} sends no learns", name.as_str());
        }
    }
}

#[test]
fn the_zipf_stream_repeats_and_learns_each_correct_submission_once() {
    let workload = generate(WorkloadName::MoocZipf, 3);
    let distinct: HashSet<(&str, &str)> =
        workload.requests.iter().map(|r| (r.request.problem.as_str(), r.request.source.as_str())).collect();
    assert!(distinct.len() * 2 < workload.requests.len(), "the Zipf head should repeat");
    let mut learned = HashSet::new();
    for r in workload.requests.iter().filter(|r| r.request.learn == Some(true)) {
        assert_eq!(r.class, Class::Correct);
        assert!(learned.insert((&r.request.problem, &r.request.source)), "learned twice: {}", r.request.id);
    }
    assert!(!learned.is_empty());
}

#[test]
fn expected_classes_come_from_grader_and_frontend() {
    let problem = derivatives();
    assert_eq!(expected_class(&problem, problem.reference), Class::Correct);
    assert_eq!(expected_class(&problem, "def computeDeriv(:\n"), Class::Unanalysable);
    let helper =
        format!("def helper(x):\n    return x\n\n{}", problem.reference.replace("return", "return 1 +"));
    assert_eq!(expected_class(&problem, &helper), Class::Unanalysable);
    assert_eq!(expected_class(&problem, "def computeDeriv(poly):\n    return poly\n"), Class::Incorrect);
}

#[test]
fn the_load_never_opens_more_clients_than_cores() {
    let problem = derivatives();
    let sources = [problem.reference, "def computeDeriv(poly):\n    return poly\n", "def computeDeriv(:\n"];
    let requests: Vec<BenchRequest> = (0..40)
        .map(|id| {
            let source = sources[id % sources.len()].to_owned();
            BenchRequest {
                class: expected_class(&problem, &source),
                request: clara_server::Request {
                    id: id as u64,
                    problem: problem.name.to_owned(),
                    lang: None,
                    source,
                    learn: None,
                    trace: None,
                },
                origin: "test",
            }
        })
        .collect();
    let workload = Workload {
        name: WorkloadName::MoocZipf,
        seed: 0,
        pools: vec![problem.seeds.iter().map(|s| (*s).to_owned()).collect()],
        problems: vec![problem],
        requests,
    };
    let deployment = Deployment::start(&workload, None);
    let pass = replay(&deployment, &workload.requests);
    deployment.stop();
    assert!(pass.failures.is_empty(), "{:?}", pass.failures);
    assert!(pass.clients >= 1 && pass.clients <= nproc(), "{} clients", pass.clients);
    assert!(pass.max_in_flight >= 1 && pass.max_in_flight <= nproc(), "{} in flight", pass.max_in_flight);
    assert!(pass.samples.iter().all(Option::is_some));
}
