//! Set-up of the in-process service and the closed-loop load generator.
//!
//! The service is deployed as `clara-cli serve --listen` deploys it: cluster
//! stores behind a `FeedbackService`, a batch-draining worker pool, and the
//! poll(2) event loop speaking NDJSON over loopback TCP. The load is a
//! closed loop: each client connection sends its next request only after
//! the previous response arrived, as a student waits for feedback before
//! resubmitting.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clara_core::ClaraConfig;
use clara_server::{
    Backend, ClusterStore, EventLoop, EventLoopConfig, FeedbackService, LoopHandle, Response, Server,
    ServerConfig, ServiceConfig, ServiceStats,
};

use crate::stats::{rss_mb, CpuTicks};
use crate::workload::{nproc, BenchRequest, Workload};

/// How long a client waits for one response before counting it missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
/// Client connections of the closed loop. One: with two requests in flight
/// on a two-core box, the worker pool's round-robin dispatch queues a
/// request behind the other connection's while a worker idles, so the
/// figures measured which requests happened to pair up and how the
/// scheduler placed four busy threads, not the service.
pub const CLIENTS: usize = 1;
/// How often a pass samples the process's resident set size.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(10);

/// The cluster stores of a workload, built from the pools or warm-loaded
/// from `index_dir`, plus the seconds that took.
pub fn stores(
    workload: &Workload,
    index_dir: Option<&Path>,
    config: &ClaraConfig,
) -> (Vec<ClusterStore>, f64) {
    let start = Instant::now();
    let stores = workload
        .problems
        .iter()
        .zip(&workload.pools)
        .map(|(problem, pool)| match index_dir {
            Some(dir) => ClusterStore::load(dir, problem, config.clone())
                .expect("persisted index loads")
                .expect("persisted index exists"),
            None => ClusterStore::build(problem, pool.iter().map(String::as_str), config.clone()).0,
        })
        .collect();
    (stores, start.elapsed().as_secs_f64())
}

/// Serialized size of the stores' indexes in bytes (the file size for a
/// persisted index).
pub fn index_bytes(stores: &[ClusterStore]) -> usize {
    stores.iter().map(|s| s.to_json().len()).sum()
}

/// Hands freed heap pages back to the operating system, so that the next
/// pass's resident-set peak starts from what is live instead of from what
/// the allocator kept from an earlier pass.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free pages to the
        // kernel; it takes no pointers and invalidates no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A running service: worker pool plus event loop on a loopback port.
pub struct Deployment {
    server: Arc<Server>,
    handle: LoopHandle,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    /// Seconds from the corpus in memory to a server accepting connections.
    pub setup_s: f64,
    /// Share of the CPU time wanted during set-up that the hypervisor took
    /// ([`CpuTicks::steal_share_since`]).
    pub setup_steal_share: f64,
}

impl Deployment {
    /// Builds (or, with `index_dir`, warm-loads) the stores and starts the
    /// service with one worker per core.
    pub fn start(workload: &Workload, index_dir: Option<&Path>) -> Deployment {
        let ticks = CpuTicks::now();
        let start = Instant::now();
        let (stores, _) = stores(workload, index_dir, &ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(stores, ServiceConfig::default()));
        let server =
            Arc::new(Server::new(service, ServerConfig { workers: nproc(), ..ServerConfig::default() }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let event_loop = EventLoop::new(Backend::local(Arc::clone(&server)), EventLoopConfig::default())
            .and_then(|l| l.with_ndjson_listener(listener))
            .expect("event loop starts");
        let handle = event_loop.handle();
        let thread = std::thread::spawn(move || event_loop.run());
        let setup_s = start.elapsed().as_secs_f64();
        let setup_steal_share = CpuTicks::now().steal_share_since(ticks);
        Deployment { server, handle, addr, thread, setup_s, setup_steal_share }
    }

    /// The service counters.
    pub fn stats(&self) -> ServiceStats {
        self.server.service().stats()
    }

    /// Jobs lost to worker panics and requests shed at the front door.
    pub fn panics_and_shed(&self) -> (u64, u64) {
        (self.server.panic_count(), self.server.shed_count())
    }

    /// Sum of the problems' index generations (one per published learn).
    pub fn generations(&self) -> u64 {
        self.server.service().shard_stats().iter().map(|s| s.generation).sum()
    }

    /// Stops the event loop and joins every thread the service started.
    pub fn stop(self) {
        self.handle.request_shutdown();
        self.thread.join().expect("event loop thread").expect("event loop exits cleanly");
        // The loop's backend held the other reference; it is gone now.
        let mut server = Arc::try_unwrap(self.server).ok().expect("event loop released the server");
        server.shutdown();
    }
}

/// One answered request of a timed pass.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Client round trip: request line written → response line read.
    pub rtt_us: f64,
    /// The parsed response.
    pub response: Response,
}

/// Outcome of one closed-loop replay of a stream.
pub struct Pass {
    /// Per stream position: the answer, or `None` when none arrived.
    pub samples: Vec<Option<Sample>>,
    /// Transport failures (malformed, mismatched or missing responses).
    pub failures: Vec<String>,
    /// Wall seconds from the first request sent to the last response read.
    pub wall_s: f64,
    /// Share of the CPU time wanted during the pass that the hypervisor
    /// took ([`CpuTicks::steal_share_since`]).
    pub steal_share: f64,
    /// Client connections the pass opened.
    pub clients: usize,
    /// Most requests in flight at once over all connections.
    pub max_in_flight: usize,
    /// Highest resident set size sampled during the pass, in MiB.
    pub peak_rss_mb: f64,
}

/// One client's record of a request: its stream position and its answer
/// or what went wrong.
type Answer = (usize, Result<Sample, String>);

/// Requests in flight, and the most seen at once.
#[derive(Default)]
struct InFlight {
    now: AtomicUsize,
    max: AtomicUsize,
}

/// Replays `requests` in a closed loop over [`CLIENTS`] connection(s).
/// Clients take the next unsent request from a shared cursor, so the stream
/// is sent in order and each connection has at most one request in flight.
pub fn replay(deployment: &Deployment, requests: &[BenchRequest]) -> Pass {
    let clients = CLIENTS.min(nproc());
    // Requests are rendered before the clock starts.
    let lines: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(&r.request).expect("request serializes") + "\n")
        .collect();
    let cursor = AtomicUsize::new(0);
    let in_flight = InFlight::default();
    let done = AtomicBool::new(false);
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let (per_client, peak_rss_mb): (Vec<Vec<Answer>>, f64) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak: f64 = 0.0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(rss_mb());
                std::thread::sleep(RSS_SAMPLE_PERIOD);
            }
            peak.max(rss_mb())
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client(deployment.addr, &lines, requests, &cursor, &in_flight)))
            .collect();
        let per_client = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        done.store(true, Ordering::SeqCst);
        (per_client, sampler.join().expect("RSS sampler thread"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal_share = CpuTicks::now().steal_share_since(ticks);
    let mut samples: Vec<Option<Sample>> = vec![None; requests.len()];
    let mut failed = vec![false; requests.len()];
    let mut failures = Vec::new();
    for (index, outcome) in per_client.into_iter().flatten() {
        match outcome {
            Ok(sample) => samples[index] = Some(sample),
            Err(reason) => {
                failed[index] = true;
                failures.push(format!("request {index}: {reason}"));
            }
        }
    }
    for (index, sample) in samples.iter().enumerate() {
        if sample.is_none() && !failed[index] {
            failures.push(format!("request {index}: never sent"));
        }
    }
    Pass {
        samples,
        failures,
        wall_s,
        steal_share,
        clients,
        max_in_flight: in_flight.max.into_inner(),
        peak_rss_mb,
    }
}

fn client(
    addr: SocketAddr,
    lines: &[String],
    requests: &[BenchRequest],
    cursor: &AtomicUsize,
    in_flight: &InFlight,
) -> Vec<Answer> {
    let mut out = Vec::new();
    let connected = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    });
    let (mut writer, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            // Claim the rest of the stream so every request is accounted.
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= requests.len() {
                    return out;
                }
                out.push((index, Err(format!("connect failed: {e}"))));
            }
        }
    };
    let mut line = String::new();
    loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= requests.len() {
            return out;
        }
        line.clear();
        let now = in_flight.now.fetch_add(1, Ordering::SeqCst) + 1;
        in_flight.max.fetch_max(now, Ordering::SeqCst);
        let sent = Instant::now();
        let read = writer.write_all(lines[index].as_bytes()).and_then(|()| reader.read_line(&mut line));
        let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
        in_flight.now.fetch_sub(1, Ordering::SeqCst);
        let outcome = match read {
            Ok(0) => Err("connection closed before the response".to_owned()),
            Ok(_) => match serde_json::from_str::<Response>(line.trim_end()) {
                Ok(response) if response.id == requests[index].request.id => Ok(Sample { rtt_us, response }),
                Ok(response) => Err(format!("out-of-order response (id {})", response.id)),
                Err(e) => Err(format!("malformed response: {e}")),
            },
            Err(e) => Err(format!("no response: {e}")),
        };
        let broken = outcome.is_err();
        out.push((index, outcome));
        if broken {
            // The connection's framing is unknown now: stop this client and
            // let the others finish the stream.
            return out;
        }
    }
}
