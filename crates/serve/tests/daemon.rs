//! End-to-end daemon tests over real sockets: admission control, job
//! execution with fingerprint parity, deadline fast-fail, chaos
//! poisoning, graceful drain, incomplete requests, how a warm answer
//! arrives, and how fast an idle daemon answers and stops.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_flow::{run_design, FlowConfig};
use vpga_serve::{get, spawn, DaemonConfig, DEFAULT_WORKERS};

fn test_daemon(chaos: bool) -> vpga_serve::DaemonHandle {
    spawn(DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        cache_budget: 64 << 20,
        checkpoint_dir: None,
        chaos,
    })
    .expect("daemon spawn")
}

fn fingerprint(body: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix("fingerprint 0x"))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
}

/// The `/stats` counter named `key`, read from its `key=value` token.
fn stat(body: &str, key: &str) -> Option<u64> {
    body.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
}

#[test]
fn healthz_stats_and_404() {
    let daemon = test_daemon(false);
    let (status, body) = get(daemon.addr(), "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = get(daemon.addr(), "/stats").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("completed=0"), "fresh daemon stats: {body}");
    assert!(body.contains("cache entries=0"), "stats: {body}");
    // The pool size and the queue wait of the two connections picked up
    // so far (the health probe and this request), accept to pick-up.
    assert_eq!(stat(&body, "workers"), Some(2), "stats: {body}");
    let max = stat(&body, "queue_wait_us_max").expect("queue_wait_us_max");
    let sum = stat(&body, "queue_wait_us_sum").expect("queue_wait_us_sum");
    assert!(max <= sum, "stats: {body}");
    let (_, body) = get(daemon.addr(), "/stats").unwrap();
    assert!(stat(&body, "queue_wait_us_sum") >= Some(sum), "{body}");
    // The time jobs spent in the flow: none has run yet. A job that
    // fails before its first stage still spent its time there, and that
    // fits in its round trip.
    assert_eq!(stat(&body, "service_us_max"), Some(0), "stats: {body}");
    assert_eq!(stat(&body, "service_us_sum"), Some(0), "stats: {body}");
    let start = Instant::now();
    let job = "/job?design=alu&arch=granular&variant=a&deadline_ms=0";
    let (status, _) = get(daemon.addr(), job).unwrap();
    let round_trip = u64::try_from(start.elapsed().as_micros()).unwrap();
    assert_eq!(status, 200);
    let (_, body) = get(daemon.addr(), "/stats").unwrap();
    let max = stat(&body, "service_us_max").expect("service_us_max");
    let sum = stat(&body, "service_us_sum").expect("service_us_sum");
    assert!(max <= sum && sum <= round_trip, "{round_trip} µs: {body}");
    assert_eq!(stat(&body, "failed"), Some(1), "stats: {body}");
    let (status, _) = get(daemon.addr(), "/nope").unwrap();
    assert_eq!(status, 404);
    daemon.shutdown();
    let summary = daemon.join();
    assert!(summary.cache_valid);
}

#[test]
fn bad_requests_are_rejected_not_crashed() {
    let daemon = test_daemon(false);
    for path in [
        "/job",
        "/job?design=nope&arch=granular&variant=a",
        "/job?design=alu&arch=asic&variant=a",
        "/job?design=alu&arch=granular&variant=c",
        "/job?design=alu&arch=granular&variant=a&params=huge",
        "/job?design=alu&arch=granular&variant=a&deadline_ms=soon",
    ] {
        let (status, _) = get(daemon.addr(), path).unwrap();
        assert_eq!(status, 400, "{path} should be a 400");
    }
    let (_, body) = get(daemon.addr(), "/matrix?params=huge").unwrap();
    assert!(body.contains("tiny|small|medium|paper"), "{body}");
    let (status, _) = get(daemon.addr(), "/healthz").unwrap();
    assert_eq!(status, 200, "daemon must survive bad requests");
    daemon.shutdown();
    daemon.join();
}

#[test]
fn incomplete_request_heads_fail_closed() {
    let daemon = test_daemon(false);
    // A client that half-closes after its request line, before the blank
    // line that ends the head, and one whose head runs past 8 KiB.
    let oversized = format!(
        "GET /healthz?pad={} HTTP/1.1\r\nHost: vpga\r\n\r\n",
        "x".repeat(9 << 10)
    );
    let heads = [("GET /healthz HTTP/1.1\r\n", true), (&*oversized, false)];
    for (failed, (head, half_close)) in (1..).zip(heads) {
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        if half_close {
            stream.shutdown(Shutdown::Write).unwrap();
        }
        // The answer itself may be lost: closing with request bytes
        // unread resets the connection. The daemon counts the request
        // before it closes, so the counters are read once it has.
        let _ = stream.read_to_end(&mut Vec::new());
        let (_, body) = get(daemon.addr(), "/stats").unwrap();
        assert_eq!(stat(&body, "failed"), Some(failed), "{body}");
        assert_eq!(stat(&body, "completed"), Some(0), "{body}");
    }
    daemon.shutdown();
    daemon.join();
}

#[test]
fn a_warm_hit_arrives_in_at_most_two_reads() {
    let daemon = test_daemon(false);
    let path = "/job?design=alu&arch=granular&variant=a&params=tiny";
    get(daemon.addr(), path).unwrap();
    let (status, warm) = get(daemon.addr(), path).unwrap();
    assert_eq!(status, 200);
    assert!(warm.contains("result hit=true"), "warm run: {warm}");
    // The daemon writes the status line on admission and the rest of a
    // hit at once, so the client's reads see at most those two writes.
    // Written a format fragment at a time (about 25 writes), a warm
    // answer took 5 to 16 reads.
    let expected =
        format!("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\n{warm}");
    let request = format!("GET {path} HTTP/1.1\r\nHost: vpga\r\nConnection: close\r\n\r\n");
    for _ in 0..10 {
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut answer = Vec::new();
        let mut reads = 0;
        let mut chunk = [0u8; 64 << 10];
        loop {
            match stream.read(&mut chunk).unwrap() {
                0 => break,
                n => {
                    answer.extend_from_slice(&chunk[..n]);
                    reads += 1;
                }
            }
        }
        assert_eq!(String::from_utf8(answer).unwrap(), expected);
        assert!(reads <= 2, "a warm hit arrived in {reads} reads");
    }
    daemon.shutdown();
    daemon.join();
}

#[test]
fn job_fingerprint_matches_batch_and_warm_run_hits() {
    let daemon = test_daemon(false);
    let path = "/job?design=alu&arch=granular&variant=a&params=tiny";
    let (status, cold) = get(daemon.addr(), path).unwrap();
    assert_eq!(status, 200);
    assert!(cold.contains("front hit=false"), "cold run: {cold}");
    assert!(
        cold.contains("stage synth"),
        "cold run streams stages: {cold}"
    );
    let (_, warm) = get(daemon.addr(), path).unwrap();
    assert!(warm.contains("front hit=true"), "warm run: {warm}");
    assert!(warm.contains("result hit=true"), "warm run: {warm}");
    let batch = run_design(
        &NamedDesign::Alu.generate(&DesignParams::tiny()),
        &PlbArchitecture::granular(),
        &FlowConfig::default(),
    )
    .unwrap();
    assert_eq!(fingerprint(&cold), Some(batch.flow_a.fingerprint()));
    assert_eq!(fingerprint(&warm), Some(batch.flow_a.fingerprint()));
    daemon.shutdown();
    let summary = daemon.join();
    assert_eq!(summary.completed, 2);
    assert!(summary.cache_valid);
}

#[test]
fn zero_queue_depth_rejects_with_retry_after() {
    let daemon = spawn(DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 0,
        cache_budget: 1 << 20,
        checkpoint_dir: None,
        chaos: false,
    })
    .unwrap();
    // With a zero-depth queue every connection is turned away at the
    // door — bounded admission, never unbounded buffering.
    let (status, body) = get(daemon.addr(), "/healthz").unwrap();
    assert_eq!(status, 503);
    assert!(body.contains("retry"), "admission body: {body}");
    daemon.shutdown();
    let summary = daemon.join();
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.accepted, 0);
}

#[test]
fn zero_deadline_fails_fast_without_running_stages() {
    let daemon = test_daemon(false);
    // Every size preset is accepted by name, `medium` included.
    for path in [
        "/job?design=fpu&arch=lut&variant=b&params=tiny&deadline_ms=0",
        "/job?design=alu&arch=granular&variant=a&params=medium&deadline_ms=0",
    ] {
        let (status, body) = get(daemon.addr(), path).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        assert!(body.contains("error "), "zero deadline must error: {body}");
        assert!(!body.contains("stage "), "no stage may run: {body}");
        assert!(fingerprint(&body).is_none());
    }
    daemon.shutdown();
    let summary = daemon.join();
    assert_eq!(summary.failed, 2);
    assert_eq!(summary.cache.misses, 0, "cache untouched by rejected jobs");
}

#[test]
fn poisoned_job_fails_isolated_and_next_job_is_clean() {
    let daemon = test_daemon(true);
    let poisoned = get(
        daemon.addr(),
        "/job?design=alu&arch=granular&variant=a&params=tiny&poison=place",
    )
    .unwrap();
    assert_eq!(poisoned.0, 200);
    assert!(
        poisoned.1.contains("error ") && poisoned.1.contains("panic"),
        "poison must surface as a trapped panic: {}",
        poisoned.1
    );
    // The abandoned claim must not wedge the key: the same job now runs
    // clean and matches batch.
    let (_, clean) = get(
        daemon.addr(),
        "/job?design=alu&arch=granular&variant=a&params=tiny",
    )
    .unwrap();
    let batch = run_design(
        &NamedDesign::Alu.generate(&DesignParams::tiny()),
        &PlbArchitecture::granular(),
        &FlowConfig::default(),
    )
    .unwrap();
    assert_eq!(fingerprint(&clean), Some(batch.flow_a.fingerprint()));
    daemon.cache().validate_all().unwrap();
    daemon.shutdown();
    let summary = daemon.join();
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.completed, 1);
    assert!(summary.cache_valid);
}

#[test]
fn chaos_params_are_ignored_without_chaos_mode() {
    let daemon = test_daemon(false);
    let (status, body) = get(
        daemon.addr(),
        "/job?design=alu&arch=granular&variant=a&params=tiny&poison=place",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(fingerprint(&body).is_some(), "poison ignored: {body}");
    daemon.shutdown();
    daemon.join();
}

#[test]
fn drain_mid_job_cancels_cooperatively_and_leaves_cache_valid() {
    let daemon = test_daemon(true);
    let addr = daemon.addr();
    // A stalled job: sleeps 400ms inside its first stage event, so the
    // drain lands while the job is mid-flight.
    let stalled = std::thread::spawn(move || {
        get(
            addr,
            "/job?design=firewire&arch=granular&variant=b&params=tiny&stall_ms=400",
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    daemon.shutdown();
    let summary = daemon.join();
    // The stalled connection got a response: either it finished its
    // stages before the cancel check, or it reports the cancellation.
    let (status, body) = stalled.join().unwrap().unwrap();
    assert_eq!(status, 200);
    assert!(
        fingerprint(&body).is_some() || body.contains("cancelled"),
        "drained job response: {body}"
    );
    assert!(summary.cache_valid, "cache must validate after drain");
    // And the daemon is gone: new connections are refused.
    assert!(get(addr, "/healthz").is_err());
}

#[test]
fn an_idle_daemon_accepts_each_request_as_it_arrives() {
    let daemon = test_daemon(false);
    // Sequential round trips, each sent while the daemon is idle in its
    // accept loop. An accept loop that naps while no connection is
    // pending adds most of a nap to every one, since the next request
    // arrives just as the nap begins (a 5 ms nap put each near 5 ms).
    // The 10th percentile still catches that, and host load cannot push
    // every sample over the limit.
    let mut round_trips: Vec<Duration> = (0..30)
        .map(|_| {
            let start = Instant::now();
            let (status, _) = get(daemon.addr(), "/healthz").unwrap();
            assert_eq!(status, 200);
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let p10 = round_trips[round_trips.len() / 10];
    daemon.shutdown();
    daemon.join();
    assert!(
        p10 < Duration::from_micros(2500),
        "10th-percentile /healthz round trip {p10:?}: {round_trips:?}"
    );
}

#[test]
fn a_cold_job_leaves_the_health_probe_a_worker_on_the_smallest_default_pool() {
    let daemon = spawn(DaemonConfig {
        workers: *DEFAULT_WORKERS.start(),
        chaos: true,
        ..DaemonConfig::default()
    })
    .expect("daemon spawn");
    // A cold job that stalls 2 s in its first stage event holds one
    // worker; its first `stage` line says the stall has begun.
    let mut job = TcpStream::connect(daemon.addr()).unwrap();
    job.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(
        job,
        "GET /job?design=alu&arch=granular&variant=a&params=tiny&stall_ms=2000 HTTP/1.1\r\n\
         Host: vpga\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut job = BufReader::new(job);
    let mut line = String::new();
    while !line.starts_with("stage ") {
        line.clear();
        let read = job.read_line(&mut line).unwrap();
        assert_ne!(read, 0, "the job's stream ended before its first stage");
    }
    // The liveness probe is served by another worker, not after the job.
    let start = Instant::now();
    let (status, body) = get(daemon.addr(), "/healthz").unwrap();
    let took = start.elapsed();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert!(
        took < Duration::from_secs(1),
        "/healthz waited {took:?} behind the stalled job"
    );
    daemon.shutdown();
    let mut rest = String::new();
    job.read_to_string(&mut rest).unwrap();
    assert!(
        fingerprint(&rest).is_some() || rest.contains("cancelled"),
        "drained job response: {rest}"
    );
    assert!(daemon.join().cache_valid);
}

#[test]
fn an_idle_daemon_drains_within_a_second() {
    // Once by the handle, once by the endpoint; each daemon has gone
    // idle in its accept loop first.
    for by_endpoint in [false, true] {
        let daemon = test_daemon(false);
        std::thread::sleep(Duration::from_millis(250));
        let start = Instant::now();
        if by_endpoint {
            let (status, body) = get(daemon.addr(), "/shutdown").unwrap();
            assert_eq!((status, body.as_str()), (200, "draining\n"));
        } else {
            daemon.shutdown();
        }
        let summary = daemon.join();
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "drain by endpoint={by_endpoint} took {took:?}"
        );
        assert!(summary.cache_valid);
    }
}
