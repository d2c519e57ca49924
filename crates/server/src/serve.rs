//! Front ends: the batched server wrapper, the stdin/stdout NDJSON loop and
//! the HTTP endpoint (served by the poll(2) event loop in [`crate::net`]).
//!
//! All front ends funnel requests through the same [`WorkerPool`] into the
//! shared [`FeedbackService`]; the pool's bounded queue gives the
//! service backpressure (a flooding client blocks or is shed instead of
//! ballooning memory). Workers drain requests in batches, so the service
//! amortises snapshot resolution and deduplicates identical submissions
//! arriving close together.

use std::io::{BufRead, BufWriter, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender, TryRecvError};
use std::sync::Arc;

use crate::pool::{PoolClosed, WorkerPool};
use crate::protocol::{parse_incoming, render_response, Incoming, Request, Response, StatsReport};
use crate::service::FeedbackService;

/// Worker-pool sizing of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Job-queue slots **per worker**: the shared queue holds
    /// `workers × queue_capacity` jobs (submission blocks or is shed when it
    /// is full).
    pub queue_capacity: usize,
    /// Most requests one worker drains per wakeup; the whole batch is
    /// answered with one service call (one snapshot resolution per shard,
    /// batch-local dedup of identical submissions).
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: default_workers(), queue_capacity: 64, max_batch: 16 }
    }
}

/// The default worker count: the `CLARA_WORKERS` environment variable when
/// set (and a positive integer), otherwise the detected core count capped at
/// 8. The default is clamped to the cores actually present — on a 1-core
/// box one worker, not a hardcoded floor of two threads contending for the
/// same core. `serve --workers N` overrides both.
pub fn default_workers() -> usize {
    if let Some(n) =
        std::env::var("CLARA_WORKERS").ok().and_then(|v| v.parse::<usize>().ok()).filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

type Job = (Request, Box<dyn FnOnce(Response) + Send>);

/// A [`FeedbackService`] behind a panic-isolated, batch-draining worker
/// pool.
pub struct Server {
    service: Arc<FeedbackService>,
    pool: WorkerPool<Job>,
    shed: AtomicU64,
}

impl Server {
    /// Spawns the worker pool over `service`.
    pub fn new(service: Arc<FeedbackService>, config: ServerConfig) -> Self {
        let handler_service = Arc::clone(&service);
        let pool = WorkerPool::new_batched(
            config.workers,
            config.queue_capacity,
            config.max_batch,
            move |jobs: Vec<Job>| {
                let (requests, replies): (Vec<Request>, Vec<_>) = jobs.into_iter().unzip();
                let responses = handler_service.handle_batch(&requests);
                for (reply, response) in replies.into_iter().zip(responses) {
                    reply(response);
                }
            },
        );
        Server { service, pool, shed: AtomicU64::new(0) }
    }

    /// The underlying service (for stats and persistence).
    pub fn service(&self) -> &Arc<FeedbackService> {
        &self.service
    }

    /// Enqueues a request; `on_response` runs on a worker thread when the
    /// request completes. Blocks while the job queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] after [`Server::shutdown`].
    pub fn submit(
        &self,
        request: Request,
        on_response: impl FnOnce(Response) + Send + 'static,
    ) -> Result<(), PoolClosed> {
        self.pool.submit((request, Box::new(on_response)))
    }

    /// Enqueues a request without blocking; `Ok(false)` signals that the job
    /// queue is full (the caller sheds or retries — the event loop
    /// parks the request in its pending ring).
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] after [`Server::shutdown`].
    pub fn try_submit(
        &self,
        request: Request,
        on_response: impl FnOnce(Response) + Send + 'static,
    ) -> Result<bool, PoolClosed> {
        self.pool.try_submit((request, Box::new(on_response)))
    }

    /// Handles a request synchronously on the calling thread (bypasses the
    /// queue; used by tests and one-shot tooling).
    pub fn handle_sync(&self, request: &Request) -> Response {
        self.service.handle(request)
    }

    /// Number of jobs lost to handler panics (workers survive them).
    pub fn panic_count(&self) -> u64 {
        self.pool.panic_count()
    }

    /// Jobs currently waiting in the job queue.
    pub fn queued(&self) -> u64 {
        self.pool.queued()
    }

    /// Records a request shed at the front door (pending ring overflow).
    /// Called by the event loop so overload shows up in `/stats`.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Builds the operational-stats report served by `GET /stats` and the
    /// NDJSON `{"stats":true}` control request.
    pub fn stats_report(&self, id: u64) -> StatsReport {
        let service = self.service.stats();
        let (hits, misses) = self.service.cache_counters();
        let probes = hits + misses;
        StatsReport {
            id,
            shard: self.service.shard_spec().to_string(),
            snapshot_generation: self.service.snapshot_generation(),
            queue_depth: self.pool.queued(),
            workers: self.pool.worker_count() as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if probes == 0 { 0.0 } else { hits as f64 / probes as f64 },
            worker_panics: self.pool.panic_count(),
            shed_requests: self.shed.load(Ordering::Relaxed),
            service,
            problems: self.service.shard_stats(),
        }
    }

    /// Drains the queues and joins the workers.
    pub fn shutdown(&mut self) {
        self.pool.shutdown();
    }
}

/// Runs the NDJSON protocol: one request per `reader` line, one response
/// per `writer` line (possibly out of order; correlate by `id`). A
/// `{"id":…,"stats":true}` line is answered inline with a [`StatsReport`].
/// Returns after EOF once every in-flight request has been answered.
///
/// Responses are written by a dedicated writer thread through a
/// [`BufWriter`]: workers hand finished lines to a channel instead of
/// contending on a shared `Mutex<dyn Write>` and syscall-flushing per line;
/// the writer flushes when the channel runs momentarily dry, so bursts of
/// responses coalesce into few `write(2)` calls.
///
/// # Errors
///
/// Returns the first I/O error of the reader.
pub fn run_ndjson(
    server: &mut Server,
    reader: impl BufRead,
    writer: impl Write + Send + 'static,
) -> std::io::Result<()> {
    let (line_tx, line_rx) = channel::<String>();
    let writer_thread = std::thread::Builder::new()
        .name("clara-ndjson-writer".to_owned())
        .spawn(move || {
            let mut out = BufWriter::new(writer);
            // Block for the next response, then drain whatever else is
            // ready before flushing once.
            while let Ok(line) = line_rx.recv() {
                let _ = writeln!(out, "{line}");
                loop {
                    match line_rx.try_recv() {
                        Ok(line) => {
                            let _ = writeln!(out, "{line}");
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            let _ = out.flush();
                            return;
                        }
                    }
                }
                let _ = out.flush();
            }
            let _ = out.flush();
        })
        .expect("spawning the writer thread");

    let send_line = |tx: &Sender<String>, line: String| {
        let _ = tx.send(line);
    };

    let mut result = Ok(());
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_incoming(&line) {
            Ok(Incoming::Stats { id }) => {
                let report = server.stats_report(id);
                send_line(&line_tx, serde_json::to_string(&report).expect("stats serialize"));
            }
            Ok(Incoming::Metrics { id }) => {
                let dump = crate::obs::Registry::global().dump(id);
                send_line(&line_tx, serde_json::to_string(&dump).expect("metrics serialize"));
            }
            Ok(Incoming::Feedback(request)) => {
                let tx = line_tx.clone();
                let submitted = server.submit(request, move |response| {
                    let _ = tx.send(render_response(&response));
                });
                if submitted.is_err() {
                    break;
                }
            }
            Err(message) => {
                send_line(
                    &line_tx,
                    render_response(&Response::error(0, format!("malformed request: {message}"))),
                );
            }
        }
    }
    // EOF: wait for in-flight requests so the client sees every response
    // before the stream closes.
    server.shutdown();
    drop(line_tx);
    let _ = writer_thread.join();
    result
}

/// Serves the HTTP API on `listener` through the nonblocking poll(2) event
/// loop until shutdown is requested:
///
/// * `POST /repair` with a request body → a response body (handled on the
///   worker pool, concurrently across connections),
/// * `GET /health` → service counters,
/// * `GET /stats` → the full [`StatsReport`].
///
/// # Errors
///
/// Returns the event-loop I/O error that terminated serving.
pub fn serve_http(server: Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    let backend = crate::net::Backend::local(server);
    crate::net::EventLoop::new(backend, crate::net::EventLoopConfig::default())?
        .with_http_listener(listener)?
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::store::ClusterStore;
    use clara_core::ClaraConfig;
    use clara_corpus::mooc::derivatives;
    use std::io::Read;
    use std::net::TcpStream;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Mutex;

    fn test_server(config: ServerConfig) -> Server {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        Server::new(service, config)
    }

    fn ndjson_request(id: u64, source: &str) -> String {
        render_request(&Request {
            id,
            problem: "derivatives".to_owned(),
            lang: None,
            source: source.to_owned(),
            learn: None,
            trace: None,
        })
    }

    fn render_request(request: &Request) -> String {
        serde_json::to_string(request).unwrap()
    }

    /// A `Write` handle appending into a shared buffer, for capturing the
    /// writer thread's output.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ndjson_round_trip_over_in_memory_pipes() {
        let mut server = test_server(ServerConfig { workers: 2, queue_capacity: 4, max_batch: 4 });
        let input = [
            ndjson_request(1, "def computeDeriv(poly):\n    return poly\n"),
            "not json".to_owned(),
            ndjson_request(2, derivatives().seeds[0]),
            r#"{"id":77,"stats":true}"#.to_owned(),
        ]
        .join("\n");
        let output: Arc<Mutex<Vec<u8>>> = Arc::default();
        run_ndjson(&mut server, input.as_bytes(), SharedBuf(Arc::clone(&output))).unwrap();
        let text = String::from_utf8(output.lock().unwrap().clone()).unwrap();
        let mut responses = Vec::new();
        let mut stats = Vec::new();
        for line in text.lines() {
            if line.contains("\"snapshot_generation\"") {
                stats.push(serde_json::from_str::<StatsReport>(line).expect(line));
            } else {
                responses.push(serde_json::from_str::<Response>(line).expect(line));
            }
        }
        assert_eq!(responses.len(), 3);
        // The malformed line gets id 0; the real requests echo their ids.
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let by_id = |id: u64| responses.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id(2).status, crate::protocol::Status::Correct);
        assert_eq!(by_id(0).status, crate::protocol::Status::Error);
        // The stats control line got a report with its id echoed.
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].id, 77);
        assert_eq!(stats[0].workers, 2);
        assert_eq!(stats[0].problems.len(), 1);
    }

    #[test]
    fn submit_delivers_responses_through_the_pool() {
        let mut server = test_server(ServerConfig { workers: 2, queue_capacity: 8, max_batch: 4 });
        let (reply, responses) = channel::<Response>();
        for id in 0..6u64 {
            let reply: Sender<Response> = reply.clone();
            server
                .submit(
                    Request {
                        id,
                        problem: "derivatives".to_owned(),
                        lang: None,
                        source: derivatives().seeds[0].to_owned(),
                        learn: None,
                        trace: None,
                    },
                    move |response| {
                        let _ = reply.send(response);
                    },
                )
                .unwrap();
        }
        drop(reply);
        server.shutdown();
        let collected: Vec<Response> = responses.iter().collect();
        assert_eq!(collected.len(), 6);
        assert!(collected.iter().all(|r| r.status == crate::protocol::Status::Correct));
        // All but the first are structural duplicates → cache or batch hits.
        assert_eq!(collected.iter().filter(|r| r.cache_hit).count(), 5);
    }

    #[test]
    fn http_endpoint_answers_repair_health_and_stats() {
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4, max_batch: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loop_server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_http(loop_server, listener);
        });

        let body = ndjson_request(9, "def computeDeriv(poly):\n    return poly\n");
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /repair HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let json = reply.split("\r\n\r\n").nth(1).unwrap();
        let response: Response = serde_json::from_str(json).unwrap();
        assert_eq!(response.id, 9);

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"requests\""), "{reply}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let json = reply.split("\r\n\r\n").nth(1).unwrap();
        let report: StatsReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.shard, "0/1");
        assert_eq!(report.problems.len(), 1);
        assert!(report.service.requests >= 1, "the repair above is counted");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("text/plain"), "Prometheus content type: {reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# TYPE clara_requests_total counter"), "{body}");
        assert!(body.contains("# TYPE clara_request_duration_us histogram"), "{body}");
        assert!(body.contains("clara_stage_duration_us_bucket{stage=\"parse\""), "{body}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
    }

    #[test]
    fn http_connections_are_served_concurrently() {
        // The old front end accepted sequentially: a slow client blocked
        // everyone behind it. The event loop multiplexes: a connection that
        // has sent only half its request must not delay a complete one.
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4, max_batch: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loop_server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_http(loop_server, listener);
        });

        // A slow connection: headers announced, body never sent.
        let mut slow = TcpStream::connect(addr).unwrap();
        write!(slow, "POST /repair HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n").unwrap();

        // A complete request right behind it must be answered promptly.
        let mut fast = TcpStream::connect(addr).unwrap();
        fast.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        write!(fast, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reply = String::new();
        fast.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "slow client starved the loop: {reply}");
        drop(slow);
    }

    #[test]
    fn http_malformed_requests_get_clean_400s() {
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4, max_batch: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loop_server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_http(loop_server, listener);
        });

        let roundtrip = |raw: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            // Half-close the write side so truncated bodies hit EOF instead
            // of the idle timeout.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            reply
        };
        let json_error = |reply: &str| -> Response {
            let json = reply.split("\r\n\r\n").nth(1).expect("a body");
            serde_json::from_str(json).expect("a JSON error body")
        };

        // Malformed JSON body.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("malformed request"));

        // Truncated body: fewer bytes than announced.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"id\":1");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("truncated body"));

        // An absurd Content-Length that does not even parse as usize.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n{}");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("invalid Content-Length"));

        // A parseable but oversized Content-Length is bounded, not allocated.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n{}");
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

        // Missing Content-Length entirely.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nHost: localhost\r\n\r\n{}");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("missing Content-Length"));
    }

    #[test]
    fn stats_report_tracks_queue_and_cache() {
        let server = test_server(ServerConfig { workers: 1, queue_capacity: 4, max_batch: 4 });
        let request = Request {
            id: 1,
            problem: "derivatives".to_owned(),
            lang: None,
            source: derivatives().seeds[0].to_owned(),
            learn: None,
            trace: None,
        };
        let _ = server.handle_sync(&request);
        let _ = server.handle_sync(&request);
        let report = server.stats_report(5);
        assert_eq!(report.id, 5);
        assert_eq!(report.service.requests, 2);
        assert_eq!(report.cache_hits, 1);
        assert!(report.cache_hit_rate > 0.0 && report.cache_hit_rate < 1.0);
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.problems[0].requests, 2);
    }

    #[test]
    fn default_worker_count_respects_the_machine() {
        let workers = ServerConfig::default().workers;
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert!(workers >= 1);
        // CLARA_WORKERS may raise it in exotic environments; without the
        // env var the default never exceeds min(cores, 8).
        if std::env::var("CLARA_WORKERS").is_err() {
            assert!(workers <= cores.min(8), "workers {workers} vs cores {cores}");
        }
    }
}
